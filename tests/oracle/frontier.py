"""``ApproximateFrontiers`` (Algorithm 3) over ``Plan`` objects.

The locally optimal plan is walked in post-order; for every intermediate
result it uses, all cached plans of the two children are combined with
every applicable operator and inserted into the plan cache under the
iteration's approximation factor α.
"""

from __future__ import annotations

from oracle.plan_cache import PlanCache
from repro.core.frontier import AlphaSchedule
from repro.cost.model import PlanFactory
from repro.plans.plan import JoinPlan, Plan, ScanPlan


class FrontierApproximator:
    """Approximates Pareto frontiers for the intermediate results of a plan."""

    def __init__(
        self,
        factory: PlanFactory,
        schedule: AlphaSchedule | None = None,
    ) -> None:
        self._factory = factory
        self._schedule = schedule if schedule is not None else AlphaSchedule.paper()
        self._plans_built = 0

    @property
    def schedule(self) -> AlphaSchedule:
        """The α schedule in use."""
        return self._schedule

    @property
    def plans_built(self) -> int:
        """Number of candidate plans constructed so far."""
        return self._plans_built

    def approximate(self, plan: Plan, cache: PlanCache, iteration: int) -> PlanCache:
        """Run ``ApproximateFrontiers`` for one locally optimal plan.

        ``cache`` is updated in place and returned; ``iteration`` (1-based)
        selects α from the schedule.
        """
        alpha = self._schedule.alpha(iteration)
        self._approximate_node(plan, cache, alpha)
        return cache

    def _approximate_node(self, plan: Plan, cache: PlanCache, alpha: float) -> None:
        if isinstance(plan, JoinPlan):
            self._approximate_node(plan.outer, cache, alpha)
            self._approximate_node(plan.inner, cache, alpha)
            outer_plans = cache.plans(plan.outer.rel)
            inner_plans = cache.plans(plan.inner.rel)
            for outer in outer_plans:
                for inner in inner_plans:
                    for operator in self._factory.join_operators(outer, inner):
                        candidate = self._factory.make_join(outer, inner, operator)
                        self._plans_built += 1
                        cache.insert(candidate, alpha)
        elif isinstance(plan, ScanPlan):
            table_index = plan.table.index
            for operator in self._factory.scan_operators(table_index):
                candidate = self._factory.make_scan(table_index, operator)
                self._plans_built += 1
                cache.insert(candidate, alpha)
        else:
            raise TypeError(f"unknown plan type: {type(plan)!r}")
