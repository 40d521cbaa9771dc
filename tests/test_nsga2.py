"""Tests for the NSGA-II baseline."""

import random

import pytest

from oracle.baselines import (
    Individual,
    assign_crowding_scalar,
    fast_non_dominated_sort_scalar,
)
from repro.baselines.nsga2 import NSGA2Optimizer
from repro.pareto.dominance import strictly_dominates
from repro.plans.validation import validate_plan


@pytest.fixture
def optimizer(chain_model):
    return NSGA2Optimizer(chain_model, rng=random.Random(4), population_size=12)


class TestConstruction:
    def test_invalid_population_rejected(self, chain_model):
        with pytest.raises(ValueError):
            NSGA2Optimizer(chain_model, population_size=1)

    def test_invalid_crossover_probability_rejected(self, chain_model):
        with pytest.raises(ValueError):
            NSGA2Optimizer(chain_model, crossover_probability=1.5)

    def test_paper_default_population_is_200(self, chain_model):
        optimizer = NSGA2Optimizer(chain_model)
        assert optimizer.population_size == 200


class TestEncoding:
    def test_random_genome_length(self, optimizer, chain_query_4):
        genome = optimizer._random_genome()
        n = chain_query_4.num_tables
        assert len(genome) == 2 * n + 2 * (n - 1)

    def test_decode_produces_valid_complete_plan(self, optimizer, chain_query_4, chain_model):
        for _ in range(20):
            genome = optimizer._random_genome()
            plan = optimizer.decode(genome)
            assert plan.rel == chain_query_4.relations
            validate_plan(plan, chain_query_4, chain_model.library, chain_model.num_metrics)

    def test_decode_is_deterministic(self, optimizer):
        genome = optimizer._random_genome()
        assert optimizer.decode(genome).cost == optimizer.decode(genome).cost

    def test_crossover_children_are_decodable(self, optimizer, chain_query_4):
        first = optimizer._random_genome()
        second = optimizer._random_genome()
        child_a, child_b = optimizer._crossover(first, second)
        assert optimizer.decode(child_a).rel == chain_query_4.relations
        assert optimizer.decode(child_b).rel == chain_query_4.relations

    def test_mutation_keeps_genes_in_range(self, optimizer):
        genome = optimizer._random_genome()
        mutated = optimizer._mutate(genome)
        assert len(mutated) == len(genome)
        for position, gene in enumerate(mutated):
            assert 0 <= gene < optimizer._gene_range(position)

    def test_different_genomes_can_give_different_join_orders(self, optimizer):
        signatures = set()
        for _ in range(30):
            plan = optimizer.decode(optimizer._random_genome())
            signatures.add(plan.join_order_signature())
        assert len(signatures) > 3


class TestEvolution:
    def test_first_step_initializes_population(self, optimizer):
        optimizer.step()
        assert len(optimizer.population) == 12
        assert optimizer.frontier()

    def test_population_size_stable_across_generations(self, optimizer):
        for _ in range(4):
            optimizer.step()
        assert len(optimizer.population) == 12

    def test_frontier_is_rank_zero_and_non_dominated(self, optimizer):
        for _ in range(3):
            optimizer.step()
        frontier = optimizer.frontier()
        assert frontier
        for first in frontier:
            for second in frontier:
                if first is second:
                    continue
                assert not strictly_dominates(first.cost, second.cost)

    def test_elitism_best_cost_never_regresses(self, chain_model):
        optimizer = NSGA2Optimizer(chain_model, rng=random.Random(9), population_size=16)
        optimizer.step()
        best_initial = min(ind.cost[0] for ind in optimizer.population)
        for _ in range(5):
            optimizer.step()
        best_final = min(ind.cost[0] for ind in optimizer.population)
        assert best_final <= best_initial

    def test_statistics_updated(self, optimizer):
        optimizer.run(max_steps=2)
        assert optimizer.statistics.steps == 2
        assert optimizer.statistics.plans_built >= 12


class TestNonDominatedSortAndCrowding:
    def _individual(self, optimizer, cost):
        plan = optimizer.decode(optimizer._random_genome())
        individual = Individual(genome=(), plan=plan)
        # Override the cost via a stand-in plan attribute for sorting tests.
        individual.plan = type(
            "FakePlan", (), {"cost": cost, "num_nodes": 1}
        )()
        return individual

    def test_fast_non_dominated_sort_ranks(self, optimizer):
        population = [
            self._individual(optimizer, (1.0, 1.0)),
            self._individual(optimizer, (2.0, 2.0)),
            self._individual(optimizer, (1.0, 3.0)),
            self._individual(optimizer, (3.0, 3.0)),
        ]
        fronts = NSGA2Optimizer._fast_non_dominated_sort(population)
        assert [ind.cost for ind in fronts[0]] == [(1.0, 1.0)]
        assert population[0].rank == 0
        assert population[3].rank == max(ind.rank for ind in population)

    def test_crowding_boundary_points_infinite(self, optimizer):
        front = [
            self._individual(optimizer, (1.0, 4.0)),
            self._individual(optimizer, (2.0, 3.0)),
            self._individual(optimizer, (4.0, 1.0)),
        ]
        NSGA2Optimizer._assign_crowding(front)
        crowdings = sorted(ind.crowding for ind in front)
        assert crowdings[-1] == float("inf")
        assert crowdings[-2] == float("inf")
        assert crowdings[0] < float("inf")


class TestVectorizedEquivalence:
    """The vectorized sort/crowding must reproduce the scalar specification
    exactly — ranks, crowding values, and the order of individuals within
    fronts (which downstream stable sorts tie-break on)."""

    def _population(self, optimizer, costs):
        individuals = []
        for cost in costs:
            individual = Individual(genome=(), plan=None)
            individual.plan = type("FakePlan", (), {"cost": cost, "num_nodes": 1})()
            individuals.append(individual)
        return individuals

    def _random_costs(self, rng, count, metrics, values=6):
        # Coarse integer grid: plenty of duplicate costs and per-metric ties,
        # the cases where an inexact reimplementation would diverge.
        return [
            tuple(float(rng.randrange(values)) for _ in range(metrics))
            for _ in range(count)
        ]

    def test_sort_matches_scalar_on_random_populations(self, optimizer):
        rng = random.Random(20160626)
        for _ in range(50):
            costs = self._random_costs(rng, rng.randrange(1, 25), rng.choice([2, 3]))
            vectorized = self._population(optimizer, costs)
            scalar = self._population(optimizer, costs)
            fronts_vec = NSGA2Optimizer._fast_non_dominated_sort(vectorized)
            fronts_ref = fast_non_dominated_sort_scalar(scalar)
            positions_vec = [
                [vectorized.index(ind) for ind in front] for front in fronts_vec
            ]
            positions_ref = [
                [scalar.index(ind) for ind in front] for front in fronts_ref
            ]
            assert positions_vec == positions_ref
            assert [ind.rank for ind in vectorized] == [ind.rank for ind in scalar]

    def test_crowding_matches_scalar_on_random_fronts(self, optimizer):
        rng = random.Random(7)
        for _ in range(50):
            costs = self._random_costs(rng, rng.randrange(1, 20), rng.choice([2, 3]))
            vectorized = self._population(optimizer, costs)
            scalar = self._population(optimizer, costs)
            original_vec, original_ref = list(vectorized), list(scalar)
            NSGA2Optimizer._assign_crowding(vectorized)
            assign_crowding_scalar(scalar)
            # Same final list order (the scalar path re-sorts in place)...
            assert [original_vec.index(ind) for ind in vectorized] == [
                original_ref.index(ind) for ind in scalar
            ]
            # ...and bit-identical crowding values, infinities included.
            for index in range(len(costs)):
                assert original_vec[index].crowding == original_ref[index].crowding

    def test_full_evolution_matches_scalar_path(self, chain_model):
        def evolve(use_scalar):
            optimizer = NSGA2Optimizer(
                chain_model, rng=random.Random(42), population_size=12
            )
            if use_scalar:
                optimizer._fast_non_dominated_sort = fast_non_dominated_sort_scalar
                optimizer._assign_crowding = assign_crowding_scalar
            for _ in range(5):
                optimizer.step()
            return [
                (ind.genome, ind.rank, ind.crowding) for ind in optimizer.population
            ]

        assert evolve(use_scalar=False) == evolve(use_scalar=True)
