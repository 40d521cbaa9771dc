"""Pareto-dominance machinery.

Implements the dominance relations of Section 3 (dominance, strict dominance,
approximate dominance with factor alpha), Pareto frontier containers with the
two pruning policies used by Algorithms 2 and 3, the approximation-error
indicator used throughout the evaluation (Section 6.1), and a hypervolume
indicator as an additional quality measure.

The package is split into a hot numeric kernel and the algorithm-facing
containers built on top of it:

* :mod:`repro.pareto.engine` — NumPy-backed batched dominance, the one
  frontier insertion kernel (:class:`~repro.pareto.engine.FrontierEntry`
  with its one-row and batch insertion, shared by the plan cache, the DP
  and every :class:`~repro.pareto.frontier.ParetoFrontier`), the vectorized
  ε indicator, and hypervolume sweeps;
* :mod:`repro.pareto.frontier` — :class:`~repro.pareto.frontier.ParetoFrontier`
  and :func:`~repro.pareto.frontier.pareto_filter` on that kernel.

The pure-Python specifications the kernel is property-tested against live
with the tests (``tests/oracle``).
"""

from repro.pareto.dominance import (
    approx_dominates,
    dominates,
    strictly_dominates,
)
from repro.pareto.engine import as_cost_matrix
from repro.pareto.frontier import ParetoFrontier, pareto_filter
from repro.pareto.epsilon import (
    approximation_error,
    approximation_error_of_plans,
    approximation_error_scalar,
    is_alpha_approximation,
)
from repro.pareto.hypervolume import hypervolume
from repro.pareto.selection import NoFeasiblePlanError, filter_by_bounds, select_plan

__all__ = [
    "select_plan",
    "filter_by_bounds",
    "NoFeasiblePlanError",
    "dominates",
    "strictly_dominates",
    "approx_dominates",
    "ParetoFrontier",
    "as_cost_matrix",
    "pareto_filter",
    "approximation_error",
    "approximation_error_scalar",
    "approximation_error_of_plans",
    "is_alpha_approximation",
    "hypervolume",
]
