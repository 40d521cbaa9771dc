"""``RandomMOQO`` (Algorithm 1) over the object components.

Each iteration draws a random bushy plan, climbs to a local Pareto optimum
and approximates the frontiers of the intermediate results the optimum
uses, sharing partial plans across iterations through the plan cache.
The result after any number of iterations is ``P[q]``, the cached plan set
for the whole query.  The ablation switches are those of the runtime
:class:`repro.core.rmq.RMQOptimizer`.
"""

from __future__ import annotations

import random
from typing import List

from oracle.frontier import FrontierApproximator
from oracle.pareto_climb import ParetoClimber
from oracle.plan_cache import PlanCache
from oracle.random_plans import RandomPlanGenerator
from repro.core.frontier import AlphaSchedule
from repro.core.interface import AnytimeOptimizer
from repro.cost.model import MultiObjectiveCostModel
from repro.plans.plan import Plan
from repro.plans.transformations import TransformationRules


class RMQOptimizer(AnytimeOptimizer):
    """Randomized multi-objective query optimizer over ``Plan`` trees."""

    name = "RMQ"

    def __init__(
        self,
        cost_model: MultiObjectiveCostModel,
        rng: random.Random | None = None,
        schedule: AlphaSchedule | None = None,
        rules: TransformationRules | None = None,
        use_plan_cache: bool = True,
        use_climbing: bool = True,
        left_deep_only: bool = False,
    ) -> None:
        super().__init__(cost_model)
        self._rng = rng if rng is not None else random.Random()
        self._generator = RandomPlanGenerator(cost_model, self._rng)
        self._climber = ParetoClimber(cost_model, rules)
        self._approximator = FrontierApproximator(cost_model, schedule)
        self._cache = PlanCache()
        self._iteration = 0
        self._use_plan_cache = use_plan_cache
        self._use_climbing = use_climbing
        self._left_deep_only = left_deep_only
        self._path_lengths: List[int] = []

    @property
    def plan_cache(self) -> PlanCache:
        """The partial-plan cache shared across iterations."""
        return self._cache

    @property
    def climb_path_lengths(self) -> List[int]:
        """Hill-climbing path lengths of all iterations."""
        return list(self._path_lengths)

    def step(self) -> None:
        """One iteration of Algorithm 1."""
        self._iteration += 1
        if self._left_deep_only:
            plan = self._generator.random_left_deep_plan()
        else:
            plan = self._generator.random_bushy_plan()
        if self._use_climbing:
            climb = self._climber.climb(plan)
            plan = climb.plan
            self._path_lengths.append(climb.path_length)
            self.statistics.plans_built += climb.plans_built
        else:
            self._path_lengths.append(0)
        if not self._use_plan_cache:
            complete = self._cache.plans(self.query.relations)
            self._cache.clear()
            self._cache.insert_all(complete)
        built_before = self._approximator.plans_built
        self._approximator.approximate(plan, self._cache, self._iteration)
        self.statistics.plans_built += self._approximator.plans_built - built_before
        self.statistics.steps += 1

    def frontier(self) -> List[Plan]:
        """The cached Pareto plan set for the full query (``P[q]``)."""
        return self._cache.plans(self.query.relations)
