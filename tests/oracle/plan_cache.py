"""The partial-plan cache ``P`` of Algorithms 1 and 3, over ``Plan`` objects.

The cache maps every intermediate result (a set of table indices) to the
non-dominated partial plans generating it.  Insertion follows Algorithm 3's
pruning function: a new plan is rejected if a cached plan with the same
output data representation α-dominates it (``SigBetter``); otherwise it is
inserted and every cached plan of that representation it dominates is
evicted.

Each entry is backed by a :class:`repro.pareto.engine.ParetoSet` whose rows
are tagged with the plan's output format, so ``store=`` selects the
frontier store exactly as it does for any other ``ParetoSet``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.obs import global_metrics
from repro.pareto.dominance import approx_dominates, dominates
from repro.pareto.engine import ParetoSet
from repro.plans.plan import Plan


class PlanCache:
    """Cache of non-dominated partial plans per intermediate result."""

    def __init__(self, store: str | None = None) -> None:
        self._store = store
        self._entries: Dict[FrozenSet[int], Tuple[List[Plan], ParetoSet]] = {}
        # Output formats are compared by identity (``is``), exactly like
        # ``SigBetter``; each distinct format object gets a small integer
        # tag used by the kernel.  The reference list pins the keyed objects
        # so id() values stay unique.
        self._format_tags: Dict[int, int] = {}
        self._format_refs: List[object] = []

    # ------------------------------------------------------------ accessors
    def plans(self, relations: FrozenSet[int] | Iterable[int]) -> List[Plan]:
        """Cached plans joining exactly the given table set (``P[rel]``)."""
        entry = self._entries.get(frozenset(relations))
        return list(entry[0]) if entry is not None else []

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
        return sum(len(plans) for plans, _ in self._entries.values())

    def size_of(self, relations: FrozenSet[int] | Iterable[int]) -> int:
        """Number of cached plans for one intermediate result."""
        entry = self._entries.get(frozenset(relations))
        return len(entry[0]) if entry is not None else 0

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
        key = plan.rel
        entry = self._entries.get(key)
        if entry is None:
            entry = ([], ParetoSet(store=self._store))
            self._entries[key] = entry
        plans, costs = entry
        accepted, evicted = costs.insert(
            plan.cost, alpha=alpha, tag=self._format_tag(plan.output_format)
        )
        metrics = global_metrics()
        metrics.add("frontier.candidates")
        if not accepted:
            metrics.add("frontier.rejected")
            return False
        metrics.add("frontier.accepted")
        if evicted:
            metrics.add("frontier.evicted", len(evicted))
            removed = set(evicted)
            plans = [p for index, p in enumerate(plans) if index not in removed]
            self._entries[key] = (plans, costs)
        plans.append(plan)
        return True

    def insert_all(self, plans: Iterable[Plan], alpha: float = 1.0) -> int:
        """Insert several plans; returns how many were kept."""
        return sum(1 for plan in plans if self.insert(plan, alpha))

    def clear(self) -> None:
        """Drop every cached plan."""
        self._entries.clear()

    # ------------------------------------------------------------ internals
    def _format_tag(self, output_format: object) -> int:
        tag = self._format_tags.get(id(output_format))
        if tag is None:
            tag = len(self._format_refs)
            self._format_tags[id(output_format)] = tag
            self._format_refs.append(output_format)
        return tag

    @staticmethod
    def _sig_better(first: Plan, second: Plan, alpha: float) -> bool:
        """``SigBetter`` from Algorithm 3: same output format and α-dominant cost.

        The scalar specification of the tagged kernel comparison.
        """
        if first.output_format is not second.output_format:
            return False
        if alpha == 1.0:
            return dominates(first.cost, second.cost)
        return approx_dominates(first.cost, second.cost, alpha)
