"""Baseline multi-objective query optimization algorithms.

These are the competitors of the paper's evaluation (Section 6.1):

* ``DP(α)`` — dynamic-programming approximation schemes (Trummer & Koch
  2014), including the exhaustive variant for small α,
* ``II`` — multi-objective generalization of iterative improvement, using the
  same efficient climbing function as RMQ,
* ``SA`` — multi-objective generalization of the SAIO simulated-annealing
  variant of Steinbrunn et al.,
* ``2P`` — two-phase optimization (II followed by SA),
* ``NSGA-II`` — the non-dominated sorting genetic algorithm with the ordinal
  plan encoding and single-point crossover proposed for query optimization.

Two additional sanity baselines are provided (not part of the paper's
figures): a weighted-sum scalarization sweep and pure random plan sampling.

:func:`make_optimizer` builds any algorithm (including RMQ) from its report
name, which is what the benchmark harness uses.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Tuple

from repro.baselines.dp import ArenaDPOptimizer
from repro.baselines.iterative_improvement import IterativeImprovementOptimizer
from repro.baselines.nsga2 import NSGA2Optimizer
from repro.baselines.random_sampling import RandomSamplingOptimizer
from repro.baselines.simulated_annealing import SimulatedAnnealingOptimizer
from repro.baselines.two_phase import TwoPhaseOptimizer
from repro.baselines.weighted_sum import WeightedSumOptimizer
from repro.core.interface import AnytimeOptimizer
from repro.core.rmq import RMQOptimizer
from repro.cost.model import MultiObjectiveCostModel

__all__ = [
    "ArenaDPOptimizer",
    "IterativeImprovementOptimizer",
    "SimulatedAnnealingOptimizer",
    "TwoPhaseOptimizer",
    "NSGA2Optimizer",
    "WeightedSumOptimizer",
    "RandomSamplingOptimizer",
    "make_optimizer",
    "available_algorithms",
    "PAPER_ALGORITHMS",
]

_OptimizerBuilder = Callable[[MultiObjectiveCostModel, random.Random], AnytimeOptimizer]

#: The algorithm names appearing in the paper's figures, in legend order.
PAPER_ALGORITHMS: Tuple[str, ...] = (
    "DP(Infinity)",
    "DP(1000)",
    "DP(2)",
    "SA",
    "2P",
    "NSGA-II",
    "II",
    "RMQ",
)

_REGISTRY: Dict[str, _OptimizerBuilder] = {
    "RMQ": lambda model, rng: RMQOptimizer(model, rng=rng),
    "II": lambda model, rng: IterativeImprovementOptimizer(model, rng=rng),
    "SA": lambda model, rng: SimulatedAnnealingOptimizer(model, rng=rng),
    "2P": lambda model, rng: TwoPhaseOptimizer(model, rng=rng),
    "NSGA-II": lambda model, rng: NSGA2Optimizer(model, rng=rng),
    "DP(Infinity)": lambda model, rng: ArenaDPOptimizer(model, alpha=float("inf")),
    "DP(1000)": lambda model, rng: ArenaDPOptimizer(model, alpha=1000.0),
    "DP(2)": lambda model, rng: ArenaDPOptimizer(model, alpha=2.0),
    "DP(1.01)": lambda model, rng: ArenaDPOptimizer(model, alpha=1.01),
    "WeightedSum": lambda model, rng: WeightedSumOptimizer(model, rng=rng),
    "RandomSampling": lambda model, rng: RandomSamplingOptimizer(model, rng=rng),
    # RMQ ablation variants (used by the ablation benchmarks).
    "RMQ-NoCache": lambda model, rng: RMQOptimizer(model, rng=rng, use_plan_cache=False),
    "RMQ-NoClimb": lambda model, rng: RMQOptimizer(model, rng=rng, use_climbing=False),
    "RMQ-LeftDeep": lambda model, rng: RMQOptimizer(model, rng=rng, left_deep_only=True),
    "RMQ-AlphaFixed1": lambda model, rng: RMQOptimizer(
        model, rng=rng, schedule=_constant_schedule(1.0)
    ),
    "RMQ-AlphaFixed25": lambda model, rng: RMQOptimizer(
        model, rng=rng, schedule=_constant_schedule(25.0)
    ),
}


def _constant_schedule(alpha: float):
    """Constant α schedule helper for the ablation registry entries."""
    from repro.core.frontier import AlphaSchedule

    return AlphaSchedule.constant(alpha)


def available_algorithms() -> Tuple[str, ...]:
    """Names accepted by :func:`make_optimizer`."""
    return tuple(sorted(_REGISTRY))


def make_optimizer(
    name: str,
    cost_model: MultiObjectiveCostModel,
    rng: random.Random | None = None,
) -> AnytimeOptimizer:
    """Instantiate an optimizer by its report name (e.g. ``"RMQ"``, ``"DP(2)"``)."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_algorithms())
        raise KeyError(f"unknown algorithm {name!r}; known algorithms: {known}") from None
    return builder(cost_model, rng if rng is not None else random.Random())
