"""Tests for the SA baseline (multi-objective SAIO simulated annealing)."""

import random

import pytest

from repro.baselines.simulated_annealing import SimulatedAnnealingOptimizer
from repro.pareto.dominance import strictly_dominates
from repro.plans.validation import validate_plan


@pytest.fixture
def optimizer(chain_model):
    return SimulatedAnnealingOptimizer(chain_model, rng=random.Random(4))


class TestConstruction:
    def test_invalid_parameters_rejected(self, chain_model):
        with pytest.raises(ValueError):
            SimulatedAnnealingOptimizer(chain_model, initial_temperature_factor=0.0)
        with pytest.raises(ValueError):
            SimulatedAnnealingOptimizer(chain_model, cooling_rate=1.0)
        with pytest.raises(ValueError):
            SimulatedAnnealingOptimizer(chain_model, cooling_rate=0.0)

    def test_start_plan_seeds_archive(self, chain_model, rng):
        from oracle.random_plans import RandomPlanGenerator

        start = RandomPlanGenerator(chain_model, rng).random_bushy_plan()
        optimizer = SimulatedAnnealingOptimizer(
            chain_model, rng=random.Random(1), start_plan=start
        )
        assert optimizer.current_plan is start
        assert optimizer.frontier()

    def test_handle_start_plan_needs_its_arena(self, chain_model):
        # An int start plan is a handle of batch_model's arena; without a
        # batch model the annealer's fresh arena holds no node at all.
        with pytest.raises(ValueError, match="start_plan"):
            SimulatedAnnealingOptimizer(chain_model, start_plan=3)

    def test_handle_start_plan_outside_the_arena_rejected(self, chain_model):
        from repro.cost.batch import BatchCostModel

        batch_model = BatchCostModel(chain_model)
        scan = batch_model.make_scan(0, 0)
        for handle in (len(batch_model.arena), -1):
            with pytest.raises(ValueError, match="start_plan"):
                SimulatedAnnealingOptimizer(
                    chain_model, start_plan=handle, batch_model=batch_model
                )
        optimizer = SimulatedAnnealingOptimizer(
            chain_model, start_plan=scan, batch_model=batch_model
        )
        assert optimizer.frontier_refs() == [scan]


class TestAnnealing:
    def test_step_produces_plans(self, optimizer, chain_query_4, chain_model):
        optimizer.step()
        frontier = optimizer.frontier()
        assert frontier
        for plan in frontier:
            validate_plan(plan, chain_query_4, chain_model.library, chain_model.num_metrics)

    def test_temperature_decreases(self, optimizer):
        optimizer.step()
        first = optimizer.temperature
        optimizer.step()
        assert optimizer.temperature < first

    def test_restart_after_freezing(self, chain_model):
        optimizer = SimulatedAnnealingOptimizer(
            chain_model,
            rng=random.Random(2),
            cooling_rate=0.5,
            frozen_temperature=0.5,
            initial_temperature_factor=1.0,
        )
        for _ in range(6):
            optimizer.step()
        # After freezing the temperature is reset to its initial value on restart.
        assert optimizer.temperature > 0.0
        assert optimizer.frontier()

    def test_archive_is_non_dominated(self, optimizer):
        optimizer.run(max_steps=10)
        frontier = optimizer.frontier()
        for first in frontier:
            for second in frontier:
                if first is second:
                    continue
                assert not strictly_dominates(first.cost, second.cost)

    def test_statistics_updated(self, optimizer):
        optimizer.run(max_steps=3)
        assert optimizer.statistics.steps == 3
        assert optimizer.statistics.plans_built > 0

    def test_moves_per_stage_controls_work(self, chain_model):
        small = SimulatedAnnealingOptimizer(
            chain_model, rng=random.Random(1), moves_per_stage=2
        )
        large = SimulatedAnnealingOptimizer(
            chain_model, rng=random.Random(1), moves_per_stage=50
        )
        small.step()
        large.step()
        assert large.statistics.plans_built > small.statistics.plans_built

    def test_best_cost_does_not_regress_with_more_steps(self, chain_model):
        optimizer = SimulatedAnnealingOptimizer(chain_model, rng=random.Random(6))
        optimizer.run(max_steps=3)
        best_early = min(plan.cost[0] for plan in optimizer.frontier())
        optimizer.run(max_steps=10)
        best_late = min(plan.cost[0] for plan in optimizer.frontier())
        assert best_late <= best_early
