"""The paper's primary contribution: the RMQ randomized optimizer.

Modules map one-to-one onto the paper's Section 4:

``random_plans``
    Random bushy (and left-deep) plan generation — the ``RandomPlan`` step of
    Algorithm 1 (linear time, Lemma 1).
``pareto_climb``
    Fast multi-objective hill climbing — Algorithm 2 (``ParetoStep`` /
    ``ParetoClimb``), applying mutations in independent sub-trees
    simultaneously.
``plan_cache``
    The partial-plan cache ``P`` mapping intermediate results to
    non-dominated partial plans.
``frontier``
    Frontier approximation for the intermediate results of a locally optimal
    plan — Algorithm 3 (``ApproximateFrontiers``) and the α schedule.
``rmq``
    The main loop — Algorithm 1 (``RandomMOQO``), exposed through the anytime
    optimizer interface shared with the baselines.
``interface``
    The anytime optimizer interface used by RMQ, all baselines and the
    benchmark harness.
"""

from repro.core.interface import AnytimeOptimizer, OptimizerStatistics
from repro.core.pareto_climb import ClimbResult
from repro.core.frontier import AlphaSchedule
from repro.core.rmq import RMQOptimizer

__all__ = [
    "AnytimeOptimizer",
    "OptimizerStatistics",
    "ClimbResult",
    "AlphaSchedule",
    "RMQOptimizer",
]
