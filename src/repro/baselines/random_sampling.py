"""Pure random plan sampling (sanity baseline, not in the paper's plots).

Sampling random plans and keeping the non-dominated ones is the weakest
conceivable randomized baseline; it lower-bounds what any local-search based
algorithm should achieve and is useful in tests (every other algorithm should
beat it given the same plan budget).
"""

from __future__ import annotations

import random
from typing import List

from repro.core.interface import AnytimeOptimizer
from repro.core.random_plans import ArenaRandomPlanGenerator
from repro.cost.batch import BatchCostModel
from repro.cost.model import MultiObjectiveCostModel
from repro.pareto.frontier import ParetoFrontier
from repro.plans.plan import Plan


class RandomSamplingOptimizer(AnytimeOptimizer):
    """Keeps the non-dominated subset of independently sampled random plans.

    Sampled plans are arena handles; only the surviving frontier is
    materialized on :meth:`frontier`.
    """

    name = "RandomSampling"

    def __init__(
        self,
        cost_model: MultiObjectiveCostModel,
        rng: random.Random | None = None,
        plans_per_step: int = 10,
    ) -> None:
        super().__init__(cost_model)
        if plans_per_step < 1:
            raise ValueError("plans_per_step must be positive")
        rng = rng if rng is not None else random.Random()
        batch_model = BatchCostModel(cost_model)
        self._arena = batch_model.arena
        self._generator = ArenaRandomPlanGenerator(batch_model, rng)
        self._archive: ParetoFrontier[int] = ParetoFrontier(cost_of=self._arena.cost)
        self._plans_per_step = plans_per_step

    def step(self) -> None:
        """Sample a batch of random plans and archive the non-dominated ones.

        The whole batch goes through one vectorized frontier insertion
        (identical result to inserting one by one).
        """
        batch = []
        for _ in range(self._plans_per_step):
            plan = self._generator.random_bushy_plan()
            self.statistics.plans_built += self._arena.num_nodes(plan)
            batch.append(plan)
        self._archive.insert_all(batch)
        self.statistics.steps += 1

    def frontier(self) -> List[Plan]:
        """Non-dominated set of all sampled plans."""
        return self._arena.to_plans(self._archive.items())
