"""II — multi-objective iterative improvement.

The generalization of iterative improvement used as a baseline in the paper
(Section 6.1): each iteration starts from a fresh random plan and walks to a
local Pareto optimum.  It uses the same efficient climbing function as RMQ
(Algorithm 2), as the paper's implementation does.  All local optima are
collected in a non-dominated archive, which is the algorithm's frontier
approximation.

The difference to RMQ is exactly what the paper isolates: II neither varies
operator configurations systematically around the local optimum nor shares
partial plans across iterations through a plan cache.
"""

from __future__ import annotations

import random
from typing import List

from repro.core.interface import AnytimeOptimizer
from repro.core.pareto_climb import ArenaParetoClimber
from repro.core.random_plans import ArenaRandomPlanGenerator
from repro.cost.batch import BatchCostModel
from repro.cost.model import MultiObjectiveCostModel
from repro.pareto.frontier import ParetoFrontier
from repro.plans.plan import Plan
from repro.plans.transformations import TransformationRules


class IterativeImprovementOptimizer(AnytimeOptimizer):
    """Iterative improvement with the fast multi-objective climbing function."""

    name = "II"

    def __init__(
        self,
        cost_model: MultiObjectiveCostModel,
        rng: random.Random | None = None,
        rules: TransformationRules | None = None,
    ) -> None:
        super().__init__(cost_model)
        self._rng = rng if rng is not None else random.Random()
        self._rules = rules if rules is not None else TransformationRules()
        self._batch_model = BatchCostModel(cost_model)
        self._arena = self._batch_model.arena
        self._generator = ArenaRandomPlanGenerator(self._batch_model, self._rng)
        self._climber = ArenaParetoClimber(self._batch_model, self._rules)
        self._archive: ParetoFrontier[int] = ParetoFrontier(cost_of=self._arena.cost)
        self._path_lengths: List[int] = []

    @property
    def batch_model(self) -> BatchCostModel:
        """The batch cost model whose arena holds the plans (two-phase
        optimization hands it to its annealing phase)."""
        return self._batch_model

    @property
    def climb_path_lengths(self) -> List[int]:
        """Hill-climbing path lengths of all iterations."""
        return list(self._path_lengths)

    def step(self) -> None:
        """One iteration: random plan, climb to a local optimum, archive it."""
        start = self._generator.random_bushy_plan()
        result = self._climber.climb(start)
        self._archive.insert(result.plan)
        self._path_lengths.append(result.path_length)
        self.statistics.steps += 1
        self.statistics.plans_built += result.plans_built + self._arena.num_nodes(start)

    def frontier(self) -> List[Plan]:
        """Non-dominated set of all local optima found so far."""
        return self._arena.to_plans(self._archive.items())

    def frontier_refs(self) -> List[int]:
        """The frontier as arena handles, without materialization.  Used by
        :class:`~repro.baselines.two_phase.TwoPhaseOptimizer` to merge
        archives without building objects."""
        return self._archive.items()
