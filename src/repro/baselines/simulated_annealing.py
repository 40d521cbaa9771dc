"""SA — multi-objective generalization of SAIO simulated annealing.

The paper (Section 6.1) generalizes the SAIO variant of simulated annealing
described by Steinbrunn et al.: the algorithm walks from the current plan to
a randomly selected neighbor and accepts the move when the neighbor is
cheaper, or otherwise with a probability that decreases with the cost
difference and the current temperature.  The multi-objective generalization
uses the *average relative cost difference over all metrics* as the scalar
cost difference.

All visited complete plans feed a non-dominated archive, which serves as the
algorithm's frontier approximation — the paper observes that SA nevertheless
approximates the frontier poorly because it spends its whole budget refining
a single plan trajectory.
"""

from __future__ import annotations

import math
import random
from typing import List

from repro.baselines.local_search import arena_random_neighbor
from repro.core.interface import AnytimeOptimizer
from repro.core.random_plans import ArenaRandomPlanGenerator
from repro.cost.batch import BatchCostModel
from repro.cost.model import MultiObjectiveCostModel
from repro.cost.vector import mean_relative_difference
from repro.pareto.frontier import ParetoFrontier
from repro.plans.plan import Plan
from repro.plans.transformations import ArenaTransformationRules, TransformationRules


class SimulatedAnnealingOptimizer(AnytimeOptimizer):
    """Multi-objective SAIO simulated annealing.

    Parameters
    ----------
    cost_model:
        Cost model / plan factory for the query.
    rng:
        Source of randomness.
    initial_temperature_factor:
        The initial temperature is this factor times the (scalar) magnitude
        of the start plan's relative cost (SAIO uses ``2 ×`` the start cost;
        with relative cost differences the natural scale is O(1)).
    cooling_rate:
        Multiplicative temperature decay applied after every stage.
    moves_per_stage:
        Number of neighbor moves attempted per temperature stage; one call to
        :meth:`step` executes one stage.
    frozen_temperature:
        Temperature below which the system is frozen and restarts from a new
        random plan (keeping the archive).
    start_plan:
        Optional start plan (used by two-phase optimization); a random bushy
        plan is drawn when omitted.  A ``Plan`` object is interned into the
        arena; an ``int`` is taken as a handle of ``batch_model``'s arena
        and must name one of its nodes.
    batch_model:
        Optional batch cost model to share (two-phase optimization passes
        the improvement phase's, whose arena holds the start plan).
    """

    name = "SA"

    def __init__(
        self,
        cost_model: MultiObjectiveCostModel,
        rng: random.Random | None = None,
        rules: TransformationRules | None = None,
        initial_temperature_factor: float = 2.0,
        cooling_rate: float = 0.95,
        moves_per_stage: int | None = None,
        frozen_temperature: float = 1e-3,
        start_plan: "Plan | int | None" = None,
        batch_model: BatchCostModel | None = None,
    ) -> None:
        super().__init__(cost_model)
        if initial_temperature_factor <= 0:
            raise ValueError("initial temperature factor must be positive")
        if not 0 < cooling_rate < 1:
            raise ValueError("cooling rate must be in (0, 1)")
        self._rng = rng if rng is not None else random.Random()
        self._batch_model = (
            batch_model if batch_model is not None else BatchCostModel(cost_model)
        )
        self._arena = self._batch_model.arena
        self._rules = ArenaTransformationRules(self._batch_model, rules)
        self._generator = ArenaRandomPlanGenerator(self._batch_model, self._rng)
        self._archive: ParetoFrontier[int] = ParetoFrontier(cost_of=self._arena.cost)
        self._initial_temperature = initial_temperature_factor
        self._cooling_rate = cooling_rate
        self._moves_per_stage = (
            moves_per_stage
            if moves_per_stage is not None
            else max(4, 2 * cost_model.query.num_tables)
        )
        self._frozen_temperature = frozen_temperature
        # ``_current_object`` caches the Plan-object view of the current
        # handle so that :attr:`current_plan` is stable between calls (and
        # returns the exact object a caller seeded the annealer with).
        self._current_object: Plan | None = None
        self._current: int | None = None
        if isinstance(start_plan, int):
            # Already an arena handle (a caller sharing ``batch_model``, e.g.
            # two-phase optimization).
            if not 0 <= start_plan < len(self._arena):
                raise ValueError(
                    f"start_plan {start_plan} is not a node of the batch "
                    f"model's arena ({len(self._arena)} nodes)"
                )
            self._current = start_plan
        elif start_plan is not None:
            self._current = self._batch_model.intern_plan(start_plan)
            self._current_object = start_plan
        self._temperature = self._initial_temperature
        if self._current is not None:
            self._archive.insert(self._current)

    # ------------------------------------------------------------ accessors
    @property
    def temperature(self) -> float:
        """Current annealing temperature."""
        return self._temperature

    @property
    def current_plan(self) -> Plan | None:
        """The plan the annealer is currently at (None before the first step)."""
        if self._current is None:
            return None
        if self._current_object is None:
            self._current_object = self._arena.to_plan(self._current)
        return self._current_object

    # ------------------------------------------------------------- protocol
    def step(self) -> None:
        """Execute one temperature stage (a batch of neighbor moves)."""
        if self._current is None or self._temperature < self._frozen_temperature:
            self._restart()
        for _ in range(self._moves_per_stage):
            self._one_move()
        self._temperature *= self._cooling_rate
        self.statistics.steps += 1

    def frontier(self) -> List[Plan]:
        """Non-dominated set of all complete plans visited so far."""
        return self._arena.to_plans(self._archive.items())

    def frontier_refs(self) -> List[int]:
        """The frontier as arena handles (see ``II.frontier_refs``)."""
        return self._archive.items()

    # ------------------------------------------------------------ internals
    def _restart(self) -> None:
        self._current = self._generator.random_bushy_plan()
        self._current_object = None
        self._archive.insert(self._current)
        self._temperature = self._initial_temperature
        self.statistics.plans_built += self._arena.num_nodes(self._current)

    def _one_move(self) -> None:
        assert self._current is not None
        neighbor = arena_random_neighbor(
            self._batch_model, self._current, self._rules, self._rng
        )
        if neighbor is None:
            return
        self.statistics.plans_built += 1
        delta = mean_relative_difference(
            self._arena.cost(neighbor), self._arena.cost(self._current)
        )
        if delta <= 0 or self._accept_uphill(delta):
            self._current = neighbor
            self._current_object = None
            self._archive.insert(neighbor)

    def _accept_uphill(self, delta: float) -> bool:
        if self._temperature <= 0:
            return False
        probability = math.exp(-delta / self._temperature)
        return self._rng.random() < probability
