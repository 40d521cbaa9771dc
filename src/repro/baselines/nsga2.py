"""NSGA-II for multi-objective query optimization.

The paper uses the Non-dominated Sorting Genetic Algorithm II (Deb et al.)
with "an ordinal plan encoding and a corresponding single-point crossover"
as proposed for (single-objective) query optimization by Steinbrunn et al.,
and a population of 200 individuals (Section 6.1).

Chromosome layout (all genes are small integers):

* ``n`` ordinal join-order genes — gene ``i`` selects one of the tables that
  have not been placed yet (its valid range shrinks with ``i``), which makes
  single-point crossover always produce valid orders;
* ``n - 1`` commute bits — whether the newly added table becomes the outer or
  the inner operand of its join;
* ``n`` scan-operator genes and ``n - 1`` join-operator genes — interpreted
  modulo the number of applicable operators at decode time.

Chromosomes decode into left-deep-style plans (the composite built so far is
joined with the next table), the plan space the ordinal encoding was designed
for.  One :meth:`step` runs one NSGA-II generation: binary tournament
selection, single-point crossover, per-gene mutation, and elitist
environmental selection by non-dominated rank and crowding distance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.interface import AnytimeOptimizer
from repro.cost.batch import BatchCostModel
from repro.cost.model import MultiObjectiveCostModel
from repro.pareto.engine import strictly_dominates_matrix
from repro.pareto.frontier import ParetoFrontier
from repro.plans.plan import Plan

Genome = Tuple[int, ...]

@dataclass
class ArenaIndividual:
    """A genome together with its decoded plan (an arena handle) and cost.

    The algorithm reads only ``genome``, ``cost``, ``rank`` and
    ``crowding``, so any object carrying those serves as an individual.
    """

    genome: Genome
    plan: int
    cost: Tuple[float, ...]
    rank: int = 0
    crowding: float = 0.0


class NSGA2Optimizer(AnytimeOptimizer):
    """NSGA-II over the ordinal plan encoding.

    Parameters
    ----------
    cost_model:
        Cost model / plan factory for the query.
    rng:
        Source of randomness.
    population_size:
        Number of individuals (the paper uses 200; tests use smaller values).
    crossover_probability:
        Probability of applying single-point crossover to a selected pair.
    mutation_probability:
        Per-gene mutation probability; defaults to ``1 / genome length``.
    """

    name = "NSGA-II"

    def __init__(
        self,
        cost_model: MultiObjectiveCostModel,
        rng: random.Random | None = None,
        population_size: int = 200,
        crossover_probability: float = 0.9,
        mutation_probability: float | None = None,
    ) -> None:
        super().__init__(cost_model)
        if population_size < 2:
            raise ValueError("population size must be at least 2")
        if not 0 <= crossover_probability <= 1:
            raise ValueError("crossover probability must be in [0, 1]")
        self._rng = rng if rng is not None else random.Random()
        self._batch_model = BatchCostModel(cost_model)
        self._population_size = population_size
        self._crossover_probability = crossover_probability
        num_tables = cost_model.query.num_tables
        # Layout: n ordinal order genes, n-1 commute bits, n scan-operator
        # genes, n-1 join-operator genes.
        self._genome_length = 2 * num_tables + 2 * max(0, num_tables - 1)
        self._mutation_probability = (
            mutation_probability
            if mutation_probability is not None
            else 1.0 / max(1, self._genome_length)
        )
        self._population: List[ArenaIndividual] = []

    # ------------------------------------------------------------ accessors
    @property
    def population(self) -> List[ArenaIndividual]:
        """The current population (empty before the first step)."""
        return list(self._population)

    @property
    def population_size(self) -> int:
        """Configured population size."""
        return self._population_size

    # ------------------------------------------------------------- protocol
    def step(self) -> None:
        """Run one NSGA-II generation (the first step initializes the population)."""
        if not self._population:
            self._population = [
                self._make_individual(self._random_genome())
                for _ in range(self._population_size)
            ]
            self._assign_ranks_and_crowding(self._population)
        else:
            offspring = self._make_offspring()
            combined = self._population + offspring
            self._population = self._environmental_selection(combined)
        self.statistics.steps += 1

    def frontier(self) -> List[Plan]:
        """Plans of the first non-dominated front of the current population."""
        if not self._population:
            return []
        arena = self._batch_model.arena
        unique: ParetoFrontier[int] = ParetoFrontier(cost_of=arena.cost)
        unique.insert_all(ind.plan for ind in self._population if ind.rank == 0)
        return arena.to_plans(unique.items())

    # -------------------------------------------------------------- encoding
    def _random_genome(self) -> Genome:
        num_tables = self.query.num_tables
        genes: List[int] = []
        for i in range(num_tables):
            genes.append(self._rng.randrange(num_tables - i))
        for _ in range(max(0, num_tables - 1)):
            genes.append(self._rng.randrange(2))
        for _ in range(num_tables):
            genes.append(self._rng.randrange(1024))
        for _ in range(max(0, num_tables - 1)):
            genes.append(self._rng.randrange(1024))
        return tuple(genes)

    def _gene_range(self, position: int) -> int:
        """Exclusive upper bound of the gene value at ``position``."""
        num_tables = self.query.num_tables
        if position < num_tables:
            return num_tables - position
        if position < num_tables + max(0, num_tables - 1):
            return 2
        return 1024

    def _genome_layout(
        self, genome: Genome
    ) -> Tuple[List[int], Genome, Genome, Genome]:
        """Split a genome into (table order, commute, scan, join genes).

        The one place the chromosome layout is interpreted.
        """
        num_tables = self.query.num_tables
        order_genes = genome[:num_tables]
        commute_genes = genome[num_tables : num_tables + max(0, num_tables - 1)]
        scan_genes = genome[
            num_tables + max(0, num_tables - 1) : 2 * num_tables + max(0, num_tables - 1)
        ]
        join_genes = genome[2 * num_tables + max(0, num_tables - 1) :]
        remaining = list(range(num_tables))
        order: List[int] = []
        for gene in order_genes:
            order.append(remaining.pop(gene % len(remaining)))
        return order, commute_genes, scan_genes, join_genes

    def decode(self, genome: Genome) -> Plan:
        """Decode a genome into a plan (public for tests and analysis)."""
        return self._batch_model.arena.to_plan(self._decode_handle(genome))

    def _decode_handle(self, genome: Genome) -> int:
        """Decode a genome into an arena handle."""
        order, commute_genes, scan_genes, join_genes = self._genome_layout(genome)
        model = self._batch_model
        scan_codes = model.scan_codes(order[0])
        plan = model.make_scan(order[0], scan_codes[scan_genes[0] % len(scan_codes)])
        for position, table_index in enumerate(order[1:], start=1):
            scan_codes = model.scan_codes(table_index)
            scan = model.make_scan(
                table_index, scan_codes[scan_genes[position] % len(scan_codes)]
            )
            if commute_genes[position - 1] % 2 == 0:
                outer, inner = plan, scan
            else:
                outer, inner = scan, plan
            join_codes = model.join_codes_for(inner)
            plan = model.make_join(
                outer, inner, join_codes[join_genes[position - 1] % len(join_codes)]
            )
        return plan

    def _make_individual(self, genome: Genome) -> ArenaIndividual:
        handle = self._decode_handle(genome)
        arena = self._batch_model.arena
        self.statistics.plans_built += arena.num_nodes(handle)
        return ArenaIndividual(genome=genome, plan=handle, cost=arena.cost(handle))

    # ------------------------------------------------------------ variation
    def _make_offspring(self) -> List[ArenaIndividual]:
        offspring: List[ArenaIndividual] = []
        while len(offspring) < self._population_size:
            parent_a = self._tournament()
            parent_b = self._tournament()
            child_a, child_b = self._crossover(parent_a.genome, parent_b.genome)
            offspring.append(self._make_individual(self._mutate(child_a)))
            if len(offspring) < self._population_size:
                offspring.append(self._make_individual(self._mutate(child_b)))
        return offspring

    def _tournament(self) -> ArenaIndividual:
        first = self._rng.choice(self._population)
        second = self._rng.choice(self._population)
        return first if self._crowded_better(first, second) else second

    @staticmethod
    def _crowded_better(first: ArenaIndividual, second: ArenaIndividual) -> bool:
        if first.rank != second.rank:
            return first.rank < second.rank
        return first.crowding > second.crowding

    def _crossover(self, first: Genome, second: Genome) -> Tuple[Genome, Genome]:
        if self._rng.random() > self._crossover_probability or len(first) < 2:
            return first, second
        point = self._rng.randrange(1, len(first))
        child_a = first[:point] + second[point:]
        child_b = second[:point] + first[point:]
        return child_a, child_b

    def _mutate(self, genome: Genome) -> Genome:
        genes = list(genome)
        for position in range(len(genes)):
            if self._rng.random() < self._mutation_probability:
                genes[position] = self._rng.randrange(self._gene_range(position))
        return tuple(genes)

    # ------------------------------------------------- environmental selection
    def _environmental_selection(
        self, combined: List[ArenaIndividual]
    ) -> List[ArenaIndividual]:
        fronts = self._fast_non_dominated_sort(combined)
        next_population: List[ArenaIndividual] = []
        for front in fronts:
            self._assign_crowding(front)
            if len(next_population) + len(front) <= self._population_size:
                next_population.extend(front)
            else:
                remaining = self._population_size - len(next_population)
                front.sort(key=lambda ind: ind.crowding, reverse=True)
                next_population.extend(front[:remaining])
                break
        return next_population

    def _assign_ranks_and_crowding(self, population: List[ArenaIndividual]) -> None:
        for front in self._fast_non_dominated_sort(population):
            self._assign_crowding(front)

    @staticmethod
    def _fast_non_dominated_sort(
        population: List[ArenaIndividual],
    ) -> List[List[ArenaIndividual]]:
        """Non-dominated sort on the vectorized dominance kernel.

        One ``strictly_dominates_matrix`` call replaces the O(n²) per-pair
        Python loop; fronts are then peeled by subtracting the dominator
        counts of each front from the remainder.  Front membership, ranks,
        and — critically for downstream tie-breaking — the order of
        individuals *within* each front are identical to the pure-Python
        specification this is property-tested against (Deb et al.'s fast
        non-dominated sort, in ``tests/oracle``): the scalar algorithm
        appends an individual to the next front the moment its last
        remaining dominator is processed, so the vectorized peel orders each
        front by (position of the last dominator in the previous front,
        population index).
        """
        if not population:
            return []
        costs = np.asarray([ind.cost for ind in population], dtype=np.float64)
        dominates = strictly_dominates_matrix(costs, costs)  # [i, j] = i ≺ j
        remaining = dominates.sum(axis=0).astype(np.int64)  # dominators of j
        fronts: List[List[ArenaIndividual]] = []
        current = np.flatnonzero(remaining == 0)  # ascending, like the scalar path
        rank = 0
        while current.size:
            for index in current:
                population[index].rank = rank
            fronts.append([population[index] for index in current])
            dominated = dominates[current]  # (front size, n)
            remaining[current] = -1  # assigned sentinels can never reach zero again
            remaining = remaining - dominated.sum(axis=0)
            candidates = np.flatnonzero(remaining == 0)
            if candidates.size:
                in_front = dominated[:, candidates]
                last_dominator = (
                    dominated.shape[0] - 1 - np.argmax(in_front[::-1, :], axis=0)
                )
                current = candidates[np.lexsort((candidates, last_dominator))]
            else:
                current = candidates
            rank += 1
        return fronts

    @staticmethod
    def _assign_crowding(front: List[ArenaIndividual]) -> None:
        """Crowding distances via stable argsort instead of per-metric list sorts.

        Reproduces the pure-Python specification (in ``tests/oracle``)
        exactly, including its side effect on the caller's list: the scalar
        code re-sorts ``front`` in place per metric (stable, so ties keep
        the order left by the previous metric), and environmental selection
        later relies on that final order for truncation tie-breaking.  The
        vectorized version chains stable argsorts over the same keys and
        reorders ``front`` to the order after the last metric.
        """
        if not front:
            return
        costs = np.asarray([ind.cost for ind in front], dtype=np.float64)
        size, num_metrics = costs.shape
        crowding = np.zeros(size, dtype=np.float64)
        order = np.arange(size)
        for metric in range(num_metrics):
            order = order[np.argsort(costs[order, metric], kind="stable")]
            column = costs[order, metric]
            crowding[order[0]] = np.inf
            crowding[order[-1]] = np.inf
            span = column[-1] - column[0]
            if span <= 0:
                continue
            if size > 2:
                crowding[order[1:-1]] += (column[2:] - column[:-2]) / span
        originals = list(front)
        for index, individual in enumerate(originals):
            individual.crowding = float(crowding[index])
        front[:] = [originals[index] for index in order]
