"""The object-plan oracle: the paper's algorithms over ``Plan`` trees.

The library runs every algorithm on the columnar plan arena
(:mod:`repro.plans.arena`).  This package keeps the plain implementation —
immutable ``Plan`` trees built and costed one node at a time through
``MultiObjectiveCostModel.make_scan`` / ``make_join`` — as the reference
the equivalence suites compare the library against: same frontiers, same
RNG stream, same work counters.  The modules follow the paper:

``random_plans``
    ``RandomPlan`` (Algorithm 1, Lemma 1).
``transformations``
    The bushy-plan mutations ``ParetoStep`` applies (Section 4.2).
``pareto_climb``
    ``ParetoStep`` / ``ParetoClimb`` (Algorithm 2).
``plan_cache``
    The plan cache ``P`` and its ``SigBetter`` pruning (Algorithm 3).
``frontier``
    ``ApproximateFrontiers`` (Algorithm 3).
``rmq``
    ``RandomMOQO`` (Algorithm 1).
``local_search``, ``baselines``, ``dp``
    The competitors of Section 6.1: II, SA, 2P, NSGA-II, DP(α), plus the
    WeightedSum and RandomSampling sanity baselines.
``pareto``
    The scalar Pareto frontier, Pareto filter and hypervolume the
    library's NumPy kernel is property-tested against.

pytest collects no test from this package; test modules import it as
``oracle`` (pytest puts ``tests/`` on ``sys.path``).
"""

from __future__ import annotations

import random

from oracle.baselines import (
    IterativeImprovementOptimizer,
    NSGA2Optimizer,
    RandomSamplingOptimizer,
    SimulatedAnnealingOptimizer,
    TwoPhaseOptimizer,
    WeightedSumOptimizer,
)
from oracle.dp import DPOptimizer
from oracle.rmq import RMQOptimizer
from repro.bench.scenario import ScenarioScale, ScenarioSpec
from repro.bench.tasks import reference_alpha
from repro.core.frontier import AlphaSchedule
from repro.core.interface import AnytimeOptimizer
from repro.cost.model import MultiObjectiveCostModel


def build_optimizer(
    name: str, cost_model: MultiObjectiveCostModel, rng: random.Random, spec: ScenarioSpec
) -> AnytimeOptimizer:
    """The oracle twin of :func:`repro.bench.tasks.build_optimizer`.

    Covers the algorithms of the regression zoo, with the same
    scenario-level options: the NSGA-II population and RMQ's compressed α
    schedule below paper scale.
    """
    if name.startswith("DP("):
        return DPOptimizer(cost_model, alpha=reference_alpha(name))
    if name == "NSGA-II":
        return NSGA2Optimizer(cost_model, rng=rng, population_size=spec.nsga_population)
    if name == "RMQ":
        schedule = None if spec.scale is ScenarioScale.PAPER else AlphaSchedule.compressed()
        return RMQOptimizer(cost_model, rng=rng, schedule=schedule)
    builders = {
        "II": IterativeImprovementOptimizer,
        "SA": SimulatedAnnealingOptimizer,
        "2P": TwoPhaseOptimizer,
        "WeightedSum": WeightedSumOptimizer,
        "RandomSampling": RandomSamplingOptimizer,
    }
    return builders[name](cost_model, rng=rng)
