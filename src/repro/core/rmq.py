"""The RMQ optimizer: main loop of the paper (Algorithm 1, ``RandomMOQO``).

Each iteration performs the three steps of Section 4.1:

1. generate a random bushy plan (``RandomPlan``),
2. improve it via multi-objective hill climbing (``ParetoClimb``),
3. approximate the Pareto frontiers of all intermediate results used by the
   locally optimal plan, reusing non-dominated partial plans from the plan
   cache (``ApproximateFrontiers``) under the iteration-dependent
   approximation factor α.

The result plan set after any number of iterations is the cached plan set for
the full query table set, ``P[q]``.

Plans are :class:`~repro.plans.arena.PlanArena` handles: hill-climbing
neighborhoods and the frontier-combination cross products are costed by
the batch kernel (:mod:`repro.cost.batch`), and ``Plan`` objects are
materialized only when :meth:`RMQOptimizer.frontier` is called.
"""

from __future__ import annotations

import random
from typing import List

from repro.core.frontier import AlphaSchedule, ArenaFrontierApproximator
from repro.core.interface import AnytimeOptimizer
from repro.core.pareto_climb import ArenaParetoClimber
from repro.core.plan_cache import ArenaPlanCache
from repro.core.random_plans import ArenaRandomPlanGenerator
from repro.cost.batch import BatchCostModel
from repro.cost.model import MultiObjectiveCostModel
from repro.plans.plan import Plan
from repro.plans.transformations import TransformationRules


class RMQOptimizer(AnytimeOptimizer):
    """Randomized multi-objective query optimizer (the paper's RMQ).

    Parameters
    ----------
    cost_model:
        Cost model / plan factory for the query to optimize.
    rng:
        Source of randomness; inject a seeded ``random.Random`` for
        reproducible runs.
    schedule:
        α schedule for the frontier approximation; defaults to the paper's
        ``25 · 0.99^⌊i/25⌋``.
    rules:
        Local transformation rules for the hill climbing neighborhood.
    use_plan_cache:
        When False, the plan cache is cleared of partial plans between
        iterations (only complete plans are kept), disabling the sharing of
        partial plans across iterations.  Used by the ablation benchmark.
    use_climbing:
        When False, the random plan is used directly as the base of the
        frontier approximation without hill climbing (ablation).
    left_deep_only:
        When True, random plans are drawn from the left-deep space instead of
        the unconstrained bushy space (Section 4.1 notes this variation).
    """

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
        self._rules = rules if rules is not None else TransformationRules()
        self._batch_model = BatchCostModel(cost_model)
        self._generator = ArenaRandomPlanGenerator(self._batch_model, self._rng)
        self._climber = ArenaParetoClimber(self._batch_model, self._rules)
        self._approximator = ArenaFrontierApproximator(self._batch_model, schedule)
        self._cache = ArenaPlanCache(self._batch_model)
        self._iteration = 0
        self._use_plan_cache = use_plan_cache
        self._use_climbing = use_climbing
        self._left_deep_only = left_deep_only
        self._path_lengths: List[int] = []

    # ------------------------------------------------------------ accessors
    @property
    def plan_cache(self) -> ArenaPlanCache:
        """The partial-plan cache shared across iterations (``plans``
        materializes handles on access)."""
        return self._cache

    @property
    def iteration(self) -> int:
        """Number of completed main-loop iterations."""
        return self._iteration

    @property
    def climb_path_lengths(self) -> List[int]:
        """Hill-climbing path lengths of all iterations (Figure 3, left)."""
        return list(self._path_lengths)

    @property
    def current_alpha(self) -> float:
        """Approximation factor that the next iteration will use."""
        return self._approximator.schedule.alpha(self._iteration + 1)

    # ------------------------------------------------------------- protocol
    def step(self) -> None:
        """Run one iteration of Algorithm 1."""
        self._iteration += 1
        random_plan = self._random_plan()
        if self._use_climbing:
            climb = self._climber.climb(random_plan)
            optimal_plan = climb.plan
            self._path_lengths.append(climb.path_length)
            self.statistics.plans_built += climb.plans_built
        else:
            optimal_plan = random_plan
            self._path_lengths.append(0)
        if not self._use_plan_cache:
            self._drop_partial_plans()
        built_before = self._approximator.plans_built
        self._approximator.approximate(optimal_plan, self._cache, self._iteration)
        self.statistics.plans_built += self._approximator.plans_built - built_before
        self.statistics.steps += 1
        self.statistics.extra["mean_path_length"] = sum(self._path_lengths) / len(
            self._path_lengths
        )

    def frontier(self) -> List[Plan]:
        """The cached Pareto plan set for the full query (``P[q]``)."""
        return self._cache.plans(self.query.relations)

    # ------------------------------------------------------------ internals
    def _random_plan(self) -> int:
        if self._left_deep_only:
            return self._generator.random_left_deep_plan()
        return self._generator.random_bushy_plan()

    def _drop_partial_plans(self) -> None:
        """Ablation hook: forget partial plans, keeping only complete plans."""
        complete = self._cache.handles(self.query.relations)
        self._cache.clear()
        for handle in complete:
            self._cache.insert(handle)
