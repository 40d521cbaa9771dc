"""The partial-plan cache ``P`` of Algorithms 1 and 3, over ``Plan`` objects.

The cache maps every intermediate result (a set of table indices) to the
non-dominated partial plans generating it.  Insertion follows Algorithm 3's
pruning function: a new plan is rejected if a cached plan with the same
output data representation α-dominates it (``SigBetter``); otherwise it is
inserted and every cached plan of that representation it dominates is
evicted.

Every decision is taken by :meth:`PlanCache._sig_better`, one cached plan
at a time — the scalar specification of the library's insertion kernel.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.obs import global_metrics
from repro.pareto.dominance import approx_dominates, dominates
from repro.plans.plan import Plan


class PlanCache:
    """Cache of non-dominated partial plans per intermediate result."""

    def __init__(self) -> None:
        self._entries: Dict[FrozenSet[int], List[Plan]] = {}

    # ------------------------------------------------------------ accessors
    def plans(self, relations: FrozenSet[int] | Iterable[int]) -> List[Plan]:
        """Cached plans joining exactly the given table set (``P[rel]``)."""
        return list(self._entries.get(frozenset(relations), []))

    def table_sets(self) -> List[FrozenSet[int]]:
        """All intermediate results that currently have cached plans."""
        return list(self._entries)

    def __contains__(self, relations: object) -> bool:
        if not isinstance(relations, (frozenset, set)):
            return False
        return frozenset(relations) in self._entries

    def __len__(self) -> int:
        """Number of cached intermediate results."""
        return len(self._entries)

    @property
    def total_plans(self) -> int:
        """Total number of cached partial plans over all intermediate results."""
        return sum(len(plans) for plans in self._entries.values())

    def size_of(self, relations: FrozenSet[int] | Iterable[int]) -> int:
        """Number of cached plans for one intermediate result."""
        return len(self._entries.get(frozenset(relations), []))

    def frontier_costs(
        self, relations: FrozenSet[int] | Iterable[int]
    ) -> List[Tuple[float, ...]]:
        """Cost vectors of the cached plans for one intermediate result."""
        return [plan.cost for plan in self.plans(relations)]

    # -------------------------------------------------------------- updates
    def insert(self, plan: Plan, alpha: float = 1.0) -> bool:
        """Insert a partial plan using Algorithm 3's pruning rule.

        Returns True when the plan was kept.
        """
        if alpha < 1.0:
            raise ValueError(f"approximation factor must be at least 1, got {alpha}")
        plans = self._entries.setdefault(plan.rel, [])
        metrics = global_metrics()
        metrics.add("frontier.candidates")
        if any(self._sig_better(cached, plan, alpha) for cached in plans):
            metrics.add("frontier.rejected")
            return False
        metrics.add("frontier.accepted")
        survivors = [cached for cached in plans if not self._sig_better(plan, cached, 1.0)]
        if len(survivors) != len(plans):
            metrics.add("frontier.evicted", len(plans) - len(survivors))
        survivors.append(plan)
        self._entries[plan.rel] = survivors
        return True

    def insert_all(self, plans: Iterable[Plan], alpha: float = 1.0) -> int:
        """Insert several plans; returns how many were kept."""
        return sum(1 for plan in plans if self.insert(plan, alpha))

    def clear(self) -> None:
        """Drop every cached plan."""
        self._entries.clear()

    # ------------------------------------------------------------ internals
    @staticmethod
    def _sig_better(first: Plan, second: Plan, alpha: float) -> bool:
        """``SigBetter`` from Algorithm 3: same output format and α-dominant cost."""
        if first.output_format is not second.output_format:
            return False
        if alpha == 1.0:
            return dominates(first.cost, second.cost)
        return approx_dominates(first.cost, second.cost, alpha)
