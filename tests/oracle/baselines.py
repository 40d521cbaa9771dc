"""The randomized baselines of Section 6.1 over ``Plan`` objects.

Each class is the smallest loop the equivalence suites compare the
runtime baseline of the same name against: same RNG draws in the same
order, same frontier, same ``steps`` and ``plans_built`` counters.  The
archives are the scalar reference frontier.  NSGA-II's evolution loop
does not depend on the plan representation, so its oracle subclasses the
runtime class and only decodes genomes into ``Plan`` trees; the
pure-Python non-dominated sort and crowding distance its vectorized
kernels are tested against live here too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from oracle.local_search import all_neighbors, random_neighbor
from oracle.pareto import ScalarParetoFrontier
from oracle.pareto_climb import ParetoClimber
from oracle.random_plans import RandomPlanGenerator
from oracle.transformations import TransformationRules
from repro.baselines import nsga2
from repro.core.interface import AnytimeOptimizer
from repro.cost.model import MultiObjectiveCostModel
from repro.cost.vector import mean_relative_difference
from repro.pareto.dominance import strictly_dominates
from repro.plans.plan import Plan


def _plan_archive() -> ScalarParetoFrontier:
    return ScalarParetoFrontier(cost_of=lambda plan: plan.cost)


class IterativeImprovementOptimizer(AnytimeOptimizer):
    """II: climb fresh random plans to local optima, archive the optima."""

    name = "II"

    def __init__(
        self,
        cost_model: MultiObjectiveCostModel,
        rng: random.Random | None = None,
        rules: TransformationRules | None = None,
    ) -> None:
        super().__init__(cost_model)
        self._rng = rng if rng is not None else random.Random()
        self._generator = RandomPlanGenerator(cost_model, self._rng)
        self._climber = ParetoClimber(cost_model, rules)
        self._archive = _plan_archive()

    def step(self) -> None:
        start = self._generator.random_bushy_plan()
        result = self._climber.climb(start)
        self._archive.insert(result.plan)
        self.statistics.steps += 1
        self.statistics.plans_built += result.plans_built + start.num_nodes

    def frontier(self) -> List[Plan]:
        return self._archive.items()


class RandomSamplingOptimizer(AnytimeOptimizer):
    """Keeps the non-dominated subset of independently sampled random plans."""

    name = "RandomSampling"

    def __init__(
        self,
        cost_model: MultiObjectiveCostModel,
        rng: random.Random | None = None,
        plans_per_step: int = 10,
    ) -> None:
        super().__init__(cost_model)
        self._generator = RandomPlanGenerator(cost_model, rng)
        self._archive = _plan_archive()
        self._plans_per_step = plans_per_step

    def step(self) -> None:
        batch = []
        for _ in range(self._plans_per_step):
            plan = self._generator.random_bushy_plan()
            self.statistics.plans_built += plan.num_nodes
            batch.append(plan)
        self._archive.insert_all(batch)
        self.statistics.steps += 1

    def frontier(self) -> List[Plan]:
        return self._archive.items()


class SimulatedAnnealingOptimizer(AnytimeOptimizer):
    """SAIO simulated annealing on the mean relative cost difference."""

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
        start_plan: Plan | None = None,
    ) -> None:
        super().__init__(cost_model)
        self._rng = rng if rng is not None else random.Random()
        self._rules = TransformationRules.of(rules)
        self._generator = RandomPlanGenerator(cost_model, self._rng)
        self._archive = _plan_archive()
        self._initial_temperature = initial_temperature_factor
        self._cooling_rate = cooling_rate
        self._moves_per_stage = (
            moves_per_stage
            if moves_per_stage is not None
            else max(4, 2 * cost_model.query.num_tables)
        )
        self._frozen_temperature = frozen_temperature
        self._current = start_plan
        self._temperature = self._initial_temperature
        if start_plan is not None:
            self._archive.insert(start_plan)

    def step(self) -> None:
        """One temperature stage: a batch of neighbor moves, then cooling."""
        if self._current is None or self._temperature < self._frozen_temperature:
            self._current = self._generator.random_bushy_plan()
            self._archive.insert(self._current)
            self._temperature = self._initial_temperature
            self.statistics.plans_built += self._current.num_nodes
        for _ in range(self._moves_per_stage):
            self._one_move()
        self._temperature *= self._cooling_rate
        self.statistics.steps += 1

    def frontier(self) -> List[Plan]:
        return self._archive.items()

    def _one_move(self) -> None:
        neighbor = random_neighbor(self._current, self._rules, self.cost_model, self._rng)
        if neighbor is None:
            return
        self.statistics.plans_built += 1
        delta = mean_relative_difference(neighbor.cost, self._current.cost)
        if delta <= 0 or self._accept_uphill(delta):
            self._current = neighbor
            self._archive.insert(neighbor)

    def _accept_uphill(self, delta: float) -> bool:
        if self._temperature <= 0:
            return False
        return self._rng.random() < math.exp(-delta / self._temperature)


class TwoPhaseOptimizer(AnytimeOptimizer):
    """2P: ten II iterations, then SA from the II plan of least normalized cost."""

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
        self._rng = rng if rng is not None else random.Random()
        self._rules = rules
        self._improvement_iterations = improvement_iterations
        self._sa_temperature_factor = sa_temperature_factor
        self._improvement = IterativeImprovementOptimizer(
            cost_model, rng=self._rng, rules=rules
        )
        self._annealer: SimulatedAnnealingOptimizer | None = None
        self._archive = _plan_archive()

    def step(self) -> None:
        if self._improvement.statistics.steps < self._improvement_iterations:
            self._improvement.step()
            self._archive.insert_all(self._improvement.frontier())
        else:
            if self._annealer is None:
                self._annealer = SimulatedAnnealingOptimizer(
                    self.cost_model,
                    rng=self._rng,
                    rules=self._rules,
                    initial_temperature_factor=self._sa_temperature_factor,
                    start_plan=self._select_start_plan(),
                )
            self._annealer.step()
            self._archive.insert_all(self._annealer.frontier())
        self.statistics.steps += 1
        self.statistics.plans_built = self._improvement.statistics.plans_built + (
            self._annealer.statistics.plans_built if self._annealer else 0
        )

    def frontier(self) -> List[Plan]:
        return self._archive.items()

    def _select_start_plan(self) -> Plan | None:
        candidates = self._improvement.frontier()
        if not candidates:
            return None
        maxima = [
            max(plan.cost[i] for plan in candidates) or 1.0
            for i in range(self.cost_model.num_metrics)
        ]
        return min(
            candidates,
            key=lambda plan: sum(
                value / maximum for value, maximum in zip(plan.cost, maxima)
            ),
        )


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
        self._rules = TransformationRules.of(rules)
        self._generator = RandomPlanGenerator(cost_model, self._rng)
        self._max_climb_steps = max_climb_steps
        self._archive = _plan_archive()

    def step(self) -> None:
        raw = [self._rng.random() + 1e-9 for _ in range(self.cost_model.num_metrics)]
        total = sum(raw)
        weights = tuple(value / total for value in raw)

        def scalar(cost: Tuple[float, ...]) -> float:
            return sum(value * weight for value, weight in zip(cost, weights))

        plan = self._generator.random_bushy_plan()
        self.statistics.plans_built += plan.num_nodes
        for _ in range(self._max_climb_steps):
            neighbors = all_neighbors(plan, self._rules, self.cost_model)
            self.statistics.plans_built += len(neighbors)
            best = min(neighbors, key=lambda candidate: scalar(candidate.cost), default=None)
            if best is None or scalar(best.cost) >= scalar(plan.cost):
                break
            plan = best
        self._archive.insert(plan)
        self.statistics.steps += 1

    def frontier(self) -> List[Plan]:
        return self._archive.items()


@dataclass
class Individual:
    """A genome together with its decoded plan and cost vector."""

    genome: nsga2.Genome
    plan: Plan
    rank: int = 0
    crowding: float = 0.0

    @property
    def cost(self) -> Tuple[float, ...]:
        """Cost vector of the decoded plan."""
        return self.plan.cost


class NSGA2Optimizer(nsga2.NSGA2Optimizer):
    """NSGA-II whose individuals hold ``Plan`` trees."""

    def _make_individual(self, genome: nsga2.Genome) -> Individual:
        order, commute_genes, scan_genes, join_genes = self._genome_layout(genome)
        factory = self.cost_model
        scan_ops = factory.scan_operators(order[0])
        plan: Plan = factory.make_scan(order[0], scan_ops[scan_genes[0] % len(scan_ops)])
        for position, table_index in enumerate(order[1:], start=1):
            scan_ops = factory.scan_operators(table_index)
            scan = factory.make_scan(
                table_index, scan_ops[scan_genes[position] % len(scan_ops)]
            )
            if commute_genes[position - 1] % 2 == 0:
                outer, inner = plan, scan
            else:
                outer, inner = scan, plan
            join_ops = factory.join_operators(outer, inner)
            plan = factory.make_join(
                outer, inner, join_ops[join_genes[position - 1] % len(join_ops)]
            )
        self.statistics.plans_built += plan.num_nodes
        return Individual(genome=genome, plan=plan)

    def frontier(self) -> List[Plan]:
        unique = _plan_archive()
        unique.insert_all(ind.plan for ind in self._population if ind.rank == 0)
        return unique.items()


def fast_non_dominated_sort_scalar(population: list) -> List[list]:
    """Deb et al.'s fast non-dominated sort, one pair at a time.

    The specification of ``NSGA2Optimizer._fast_non_dominated_sort``:
    fronts, ranks (written to each individual) and the order within each
    front.
    """
    dominated_by: Dict[int, List[int]] = {i: [] for i in range(len(population))}
    domination_count = [0] * len(population)
    fronts: List[List[int]] = [[]]
    for i, first in enumerate(population):
        for j, second in enumerate(population):
            if i == j:
                continue
            if strictly_dominates(first.cost, second.cost):
                dominated_by[i].append(j)
            elif strictly_dominates(second.cost, first.cost):
                domination_count[i] += 1
        if domination_count[i] == 0:
            population[i].rank = 0
            fronts[0].append(i)
    current = 0
    while fronts[current]:
        next_front: List[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    population[j].rank = current + 1
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    return [[population[i] for i in front] for front in fronts if front]


def assign_crowding_scalar(front: list) -> None:
    """Crowding distances by per-metric list sorts.

    The specification of ``NSGA2Optimizer._assign_crowding``, including
    its side effect: ``front`` is left in the order of the last metric's
    stable sort.
    """
    if not front:
        return
    for individual in front:
        individual.crowding = 0.0
    num_metrics = len(front[0].cost)
    for metric in range(num_metrics):
        front.sort(key=lambda ind: ind.cost[metric])
        front[0].crowding = float("inf")
        front[-1].crowding = float("inf")
        span = front[-1].cost[metric] - front[0].cost[metric]
        if span <= 0:
            continue
        for position in range(1, len(front) - 1):
            gap = front[position + 1].cost[metric] - front[position - 1].cost[metric]
            front[position].crowding += gap / span
