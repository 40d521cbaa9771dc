"""2P — two-phase optimization.

Two-phase optimization (Steinbrunn et al., used as a baseline in Section 6.1)
first runs a limited number of iterative-improvement iterations and then
continues with simulated annealing from the best plan found, with a reduced
initial temperature.  The multi-objective generalization below runs the
multi-objective II for ten iterations (the setting used in the paper) and
seeds the multi-objective SA with a plan chosen from II's archive.
"""

from __future__ import annotations

import random
from typing import List

from repro.baselines.iterative_improvement import IterativeImprovementOptimizer
from repro.baselines.simulated_annealing import SimulatedAnnealingOptimizer
from repro.core.interface import AnytimeOptimizer
from repro.cost.model import MultiObjectiveCostModel
from repro.pareto.frontier import ParetoFrontier
from repro.plans.plan import Plan
from repro.plans.transformations import TransformationRules


class TwoPhaseOptimizer(AnytimeOptimizer):
    """Two-phase optimization: II first, then SA from the best plan found.

    Parameters
    ----------
    cost_model:
        Cost model / plan factory for the query.
    rng:
        Source of randomness.
    improvement_iterations:
        Number of II iterations before switching to SA (the paper follows
        Steinbrunn et al. and uses ten).
    sa_temperature_factor:
        Initial temperature factor of the SA phase; two-phase optimization
        starts with a much lower temperature than plain SA because it starts
        from an already good plan.
    """

    name = "2P"

    def __init__(
        self,
        cost_model: MultiObjectiveCostModel,
        rng: random.Random | None = None,
        rules: TransformationRules | None = None,
        improvement_iterations: int = 10,
        sa_temperature_factor: float = 0.1,
    ) -> None:
        super().__init__(cost_model)
        if improvement_iterations < 1:
            raise ValueError("need at least one improvement iteration")
        self._rng = rng if rng is not None else random.Random()
        self._rules = rules if rules is not None else TransformationRules()
        self._improvement_iterations = improvement_iterations
        self._sa_temperature_factor = sa_temperature_factor
        self._improvement = IterativeImprovementOptimizer(
            cost_model, rng=self._rng, rules=self._rules
        )
        # The archive holds arena handles of the phases' shared arena, merged
        # straight from the phases' archives; Plan objects are materialized
        # once, in :meth:`frontier`.
        self._arena = self._improvement.batch_model.arena
        self._archive: ParetoFrontier[int] = ParetoFrontier(cost_of=self._arena.cost)
        self._annealer: SimulatedAnnealingOptimizer | None = None

    # ------------------------------------------------------------ accessors
    @property
    def in_second_phase(self) -> bool:
        """Whether the optimizer has switched to the simulated-annealing phase."""
        return self._annealer is not None

    # ------------------------------------------------------------- protocol
    def step(self) -> None:
        """Run one II iteration (phase one) or one SA stage (phase two)."""
        if self._improvement.statistics.steps < self._improvement_iterations:
            self._improvement.step()
            self._archive.insert_all(self._improvement.frontier_refs())
        else:
            if self._annealer is None:
                self._annealer = self._build_annealer()
            self._annealer.step()
            self._archive.insert_all(self._annealer.frontier_refs())
        self.statistics.steps += 1
        self.statistics.plans_built = (
            self._improvement.statistics.plans_built
            + (self._annealer.statistics.plans_built if self._annealer else 0)
        )

    def frontier(self) -> List[Plan]:
        """Union of the non-dominated plans found in both phases."""
        return self._arena.to_plans(self._archive.items())

    # ------------------------------------------------------------ internals
    def _build_annealer(self) -> SimulatedAnnealingOptimizer:
        start_plan = self._select_start_plan()
        # The annealer shares the improvement phase's batch model, so the
        # start plan is passed as a handle of the shared arena.
        return SimulatedAnnealingOptimizer(
            self.cost_model,
            rng=self._rng,
            rules=self._rules,
            initial_temperature_factor=self._sa_temperature_factor,
            start_plan=start_plan,
            batch_model=self._improvement.batch_model,
        )

    def _select_start_plan(self) -> int | None:
        """Pick the II plan with the lowest normalized total cost as SA's start.

        The result is an arena handle of the shared batch model.
        """
        candidates = self._improvement.frontier_refs()
        if not candidates:
            return None
        cost_of = self._arena.cost
        maxima = [
            max(cost_of(plan)[i] for plan in candidates) or 1.0
            for i in range(self.cost_model.num_metrics)
        ]

        def normalized_total(plan) -> float:
            return sum(
                value / maximum for value, maximum in zip(cost_of(plan), maxima)
            )

        return min(candidates, key=normalized_total)
