"""Reference Pareto frontiers.

For large queries the true Pareto frontier is unobtainable, so — exactly like
the paper — the reference frontier is the Pareto-optimal subset of the union
of all plans produced by all compared algorithms on the test case
(Section 6.1).  For small queries the paper instead uses the DP approximation
scheme with α = 1.01 as a reference with formal guarantees (appendix,
Figures 8 and 9); :func:`dp_reference_frontier` reproduces that.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.baselines.dp import ArenaDPOptimizer
from repro.cost.model import MultiObjectiveCostModel
from repro.pareto.frontier import pareto_filter


def union_reference_frontier(
    frontiers: Iterable[Iterable[Sequence[float]]],
) -> List[Tuple[float, ...]]:
    """Pareto-optimal subset of the union of several produced frontiers.

    Raises ``ValueError`` when no plan at all was produced (the reference must
    not be empty).
    """
    all_costs = [tuple(cost) for frontier in frontiers for cost in frontier]
    if not all_costs:
        raise ValueError("cannot build a reference frontier from zero plans")
    return pareto_filter(all_costs)


def dp_reference_frontier(
    cost_model: MultiObjectiveCostModel,
    alpha: float = 1.01,
    time_budget: float | None = None,
    max_steps: int | None = 1_000_000,
) -> List[Tuple[float, ...]]:
    """Reference frontier computed by the DP approximation scheme.

    Parameters
    ----------
    cost_model:
        Cost model of the test-case query (should join few tables; the DP
        enumeration is exponential).
    alpha:
        Approximation guarantee of the reference (1.01 in the paper).
    time_budget / max_steps:
        Safety budgets; the scheme normally completes well before them for
        the small queries this is intended for.

    Returns
    -------
    list of cost tuples
        The Pareto-filtered cost vectors of the DP result.  Empty only if the
        scheme could not finish within the budgets.
    """
    optimizer = ArenaDPOptimizer(cost_model, alpha=alpha)
    optimizer.run(time_budget=time_budget, max_steps=max_steps)
    frontier = [tuple(plan.cost) for plan in optimizer.frontier()]
    return pareto_filter(frontier) if frontier else []
