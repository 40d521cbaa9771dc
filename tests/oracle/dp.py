"""DP(α): the approximation schemes of Trummer & Koch (SIGMOD 2014).

Bottom-up dynamic programming over table subsets.  Every ordered split of
a subset into two non-empty parts combines the cached plans of both parts
with every applicable operator; candidates are pruned per subset with the
factor ``α^(1/(n-1))`` so the errors compounding over ``n - 1`` join levels
meet the overall target α.  ``step()`` processes a bounded number of
splits; the frontier stays empty until the full table set is processed.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterator, List, Tuple

from oracle.plan_cache import PlanCache
from repro.baselines.dp import (
    _ALPHA_CAP,
    _format_alpha,
    _level_alpha_for,
    _validate_parameters,
)
from repro.core.interface import AnytimeOptimizer
from repro.cost.model import MultiObjectiveCostModel
from repro.plans.operators import JoinOperator
from repro.plans.plan import Plan


class DPOptimizer(AnytimeOptimizer):
    """Multi-objective dynamic programming with α-approximate pruning."""

    def __init__(
        self,
        cost_model: MultiObjectiveCostModel,
        alpha: float = 2.0,
        tasks_per_step: int = 50,
    ) -> None:
        super().__init__(cost_model)
        _validate_parameters(alpha, tasks_per_step)
        self.name = f"DP({_format_alpha(alpha)})"
        self._alpha = min(alpha, _ALPHA_CAP)
        self._tasks_per_step = tasks_per_step
        self._cache = PlanCache()
        self._finished = False
        self._level_alpha = _level_alpha_for(self._alpha, cost_model.query.num_tables)
        # Operator applicability depends only on the two input formats.
        self._join_operators_memo: Dict[object, Tuple[JoinOperator, ...]] = {}
        # Scan plans are seeded at construction, so their ``plans_built``
        # are charged here, not to the first step().
        for table_index in sorted(self.query.relations):
            for operator in cost_model.scan_operators(table_index):
                plan = cost_model.make_scan(table_index, operator)
                self.statistics.plans_built += 1
                self._cache.insert(plan, self._level_alpha)
        self._tasks = self._task_generator()

    @property
    def alpha(self) -> float:
        """Overall approximation-factor target."""
        return self._alpha

    @property
    def level_alpha(self) -> float:
        """Per-join pruning factor derived from the overall target."""
        return self._level_alpha

    @property
    def plan_cache(self) -> PlanCache:
        """The DP table: partial plans per table subset."""
        return self._cache

    @property
    def finished(self) -> bool:
        """Whether every subset has been processed."""
        return self._finished

    def step(self) -> None:
        """Process a bounded batch of subset-combination tasks."""
        if self._finished:
            return
        for _ in range(self._tasks_per_step):
            try:
                left, right = next(self._tasks)
            except StopIteration:
                self._finished = True
                break
            self._combine(left, right)
        self.statistics.steps += 1

    def frontier(self) -> List[Plan]:
        """Plans for the full query table set (empty until DP completes it)."""
        return self._cache.plans(self.query.relations)

    def _task_generator(self) -> Iterator[Tuple[FrozenSet[int], FrozenSet[int]]]:
        """(outer set, inner set) splits, subsets by increasing size."""
        tables = sorted(self.query.relations)
        for size in range(2, len(tables) + 1):
            for subset in combinations(tables, size):
                subset_set = frozenset(subset)
                for left_size in range(1, size):
                    for left in combinations(subset, left_size):
                        left_set = frozenset(left)
                        yield left_set, subset_set - left_set

    def _join_operators(self, outer: Plan, inner: Plan) -> Tuple[JoinOperator, ...]:
        key = (outer.output_format, inner.output_format)
        operators = self._join_operators_memo.get(key)
        if operators is None:
            operators = tuple(self.cost_model.join_operators(outer, inner))
            self._join_operators_memo[key] = operators
        return operators

    def _combine(self, left: FrozenSet[int], right: FrozenSet[int]) -> None:
        outer_plans = self._cache.plans(left)
        inner_plans = self._cache.plans(right)
        for outer in outer_plans:
            for inner in inner_plans:
                for operator in self._join_operators(outer, inner):
                    candidate = self.cost_model.make_join(outer, inner, operator)
                    self.statistics.plans_built += 1
                    self._cache.insert(candidate, self._level_alpha)
