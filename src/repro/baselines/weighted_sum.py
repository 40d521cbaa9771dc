"""Weighted-sum scalarization baseline (sanity check, not in the paper's plots).

Section 2 of the paper points out that mapping multi-objective optimization
to single-objective optimization with a weighted sum over cost metrics "will
not yield the Pareto frontier but at most a subset of it (the convex hull)".
This baseline makes that observation testable: each step draws a random
weight vector, scalarizes the cost metrics, and hill-climbs a random plan
under the scalar cost.  The archive of all plans found approximates (at
best) the convex hull of the Pareto frontier.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.baselines.local_search import arena_all_neighbors
from repro.core.interface import AnytimeOptimizer
from repro.core.random_plans import ArenaRandomPlanGenerator
from repro.cost.batch import BatchCostModel, JoinSpec, PlanRef
from repro.cost.model import MultiObjectiveCostModel
from repro.pareto.frontier import ParetoFrontier
from repro.plans.plan import Plan
from repro.plans.transformations import ArenaTransformationRules, TransformationRules


class WeightedSumOptimizer(AnytimeOptimizer):
    """Single-objective hill climbing over randomly drawn metric weights."""

    name = "WeightedSum"

    def __init__(
        self,
        cost_model: MultiObjectiveCostModel,
        rng: random.Random | None = None,
        rules: TransformationRules | None = None,
        max_climb_steps: int = 200,
    ) -> None:
        super().__init__(cost_model)
        self._rng = rng if rng is not None else random.Random()
        self._batch_model = BatchCostModel(cost_model)
        self._arena = self._batch_model.arena
        self._rules = ArenaTransformationRules(self._batch_model, rules)
        self._generator = ArenaRandomPlanGenerator(self._batch_model, self._rng)
        self._max_climb_steps = max_climb_steps
        self._archive: ParetoFrontier[int] = ParetoFrontier(cost_of=self._arena.cost)

    def step(self) -> None:
        """Draw a weight vector, climb a random plan under the scalarized cost."""
        weights = self._random_weights()
        model = self._batch_model
        plan = self._generator.random_bushy_plan()
        self.statistics.plans_built += self._arena.num_nodes(plan)
        for _ in range(self._max_climb_steps):
            neighbors = arena_all_neighbors(model, plan, self._rules)
            self.statistics.plans_built += len(neighbors)
            best = min(
                neighbors,
                key=lambda candidate: self._scalar(self._cost_of(candidate), weights),
                default=None,
            )
            if best is None or self._scalar(
                self._cost_of(best), weights
            ) >= self._scalar(self._arena.cost(plan), weights):
                break
            plan = model.realize(best)
        self._archive.insert(plan)
        self.statistics.steps += 1

    def frontier(self) -> List[Plan]:
        """Non-dominated set over all scalarized climbs so far."""
        return self._arena.to_plans(self._archive.items())

    # ------------------------------------------------------------ internals
    def _cost_of(self, ref: PlanRef) -> Tuple[float, ...]:
        if isinstance(ref, JoinSpec):
            return ref.cost
        return self._arena.cost(ref)

    def _random_weights(self) -> Tuple[float, ...]:
        raw = [self._rng.random() + 1e-9 for _ in range(self.cost_model.num_metrics)]
        total = sum(raw)
        return tuple(value / total for value in raw)

    @staticmethod
    def _scalar(cost: Tuple[float, ...], weights: Tuple[float, ...]) -> float:
        return sum(value * weight for value, weight in zip(cost, weights))
