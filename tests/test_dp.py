"""Tests of the DP(α) approximation schemes on the object oracle.

The runtime DP is compared with the oracle in ``tests/test_dp_arena.py``.
"""


import pytest

from oracle.dp import DPOptimizer
from repro.cost.model import MultiObjectiveCostModel
from repro.pareto.dominance import dominates
from repro.pareto.epsilon import approximation_error, is_alpha_approximation
from repro.plans.validation import validate_plan


class TestConstruction:
    def test_name_includes_alpha(self, chain_model):
        assert DPOptimizer(chain_model, alpha=2.0).name == "DP(2)"
        assert DPOptimizer(chain_model, alpha=1000.0).name == "DP(1000)"
        assert DPOptimizer(chain_model, alpha=float("inf")).name == "DP(Infinity)"
        assert DPOptimizer(chain_model, alpha=1.01).name == "DP(1.01)"

    def test_invalid_parameters_rejected(self, chain_model):
        with pytest.raises(ValueError):
            DPOptimizer(chain_model, alpha=0.5)
        with pytest.raises(ValueError):
            DPOptimizer(chain_model, tasks_per_step=0)

    def test_level_alpha_compounds_to_overall_alpha(self, chain_model, chain_query_4):
        optimizer = DPOptimizer(chain_model, alpha=2.0)
        joins = chain_query_4.num_tables - 1
        assert optimizer.level_alpha ** joins == pytest.approx(2.0)


class TestCompletion:
    def test_no_result_until_finished(self, chain_model):
        optimizer = DPOptimizer(chain_model, alpha=2.0, tasks_per_step=1)
        optimizer.step()
        assert optimizer.frontier() == []
        assert not optimizer.finished

    def test_finishes_on_small_query(self, chain_model, chain_query_4):
        optimizer = DPOptimizer(chain_model, alpha=2.0)
        optimizer.run(max_steps=10_000)
        assert optimizer.finished
        frontier = optimizer.frontier()
        assert frontier
        for plan in frontier:
            validate_plan(plan, chain_query_4, chain_model.library, chain_model.num_metrics)

    def test_step_after_finish_is_noop(self, two_table_query):
        model = MultiObjectiveCostModel(two_table_query, metrics=("time", "buffer"))
        optimizer = DPOptimizer(model, alpha=2.0)
        optimizer.run(max_steps=1_000)
        steps_before = optimizer.statistics.steps
        plans_before = optimizer.statistics.plans_built
        optimizer.step()
        assert optimizer.statistics.plans_built == plans_before
        assert optimizer.statistics.steps == steps_before

    def test_dp_table_covers_all_subsets(self, chain_model, chain_query_4):
        optimizer = DPOptimizer(chain_model, alpha=2.0)
        optimizer.run(max_steps=10_000)
        # Every non-empty subset of a 4-table query has cached plans
        # (the DP enumerates all subsets including Cartesian products).
        assert len(optimizer.plan_cache) == 2 ** chain_query_4.num_tables - 1


class TestResultQuality:
    def test_exhaustive_dp_dominates_any_single_plan(self, chain_model, rng):
        """No random plan may strictly dominate every plan of a fine DP result."""
        from oracle.random_plans import RandomPlanGenerator

        optimizer = DPOptimizer(chain_model, alpha=1.01)
        optimizer.run(max_steps=100_000)
        frontier_costs = [plan.cost for plan in optimizer.frontier()]
        generator = RandomPlanGenerator(chain_model, rng)
        for _ in range(30):
            candidate = generator.random_bushy_plan()
            covered = any(
                dominates(cost, candidate.cost) or cost == candidate.cost
                for cost in frontier_costs
            )
            strictly_better_than_all = all(
                dominates(candidate.cost, cost) and candidate.cost != cost
                for cost in frontier_costs
            )
            assert covered or not strictly_better_than_all

    def test_alpha_guarantee_against_fine_reference(self, two_metric_model):
        """DP(α) output must α-approximate the near-exact DP(1.01) frontier."""
        fine = DPOptimizer(two_metric_model, alpha=1.01)
        fine.run(max_steps=100_000)
        reference = [plan.cost for plan in fine.frontier()]

        coarse = DPOptimizer(two_metric_model, alpha=3.0)
        coarse.run(max_steps=100_000)
        produced = [plan.cost for plan in coarse.frontier()]
        # Allow the 1.01 slack of the reference itself on top of alpha.
        assert is_alpha_approximation(produced, reference, 3.0 * 1.02)

    def test_coarser_alpha_keeps_fewer_or_equal_plans(self, chain_model):
        fine = DPOptimizer(chain_model, alpha=1.01)
        fine.run(max_steps=100_000)
        coarse = DPOptimizer(chain_model, alpha=float("inf"))
        coarse.run(max_steps=100_000)
        assert len(coarse.frontier()) <= len(fine.frontier())
        assert coarse.statistics.plans_built <= fine.statistics.plans_built

    def test_dp_reference_beats_single_random_plans(self, chain_model, rng):
        from oracle.random_plans import RandomPlanGenerator

        optimizer = DPOptimizer(chain_model, alpha=1.01)
        optimizer.run(max_steps=100_000)
        reference = [plan.cost for plan in optimizer.frontier()]
        generator = RandomPlanGenerator(chain_model, rng)
        random_costs = [generator.random_bushy_plan().cost for _ in range(20)]
        # The DP frontier approximates random plans well (they are all
        # dominated or equal), so the error of the DP result measured against
        # a reference that includes the random plans stays close to one.
        combined_reference = reference + random_costs
        assert approximation_error(reference, combined_reference) <= 1.02


class TestLargeQueriesAreBounded:
    def test_large_query_step_is_bounded_and_incomplete(self, rng):
        """On a 30-table query a few DP steps must neither finish nor blow up."""
        from repro.query.generator import QueryGenerator
        from repro.query.join_graph import GraphShape

        query = QueryGenerator(rng=rng).generate(30, GraphShape.CHAIN)
        model = MultiObjectiveCostModel(query, metrics=("time", "buffer"))
        optimizer = DPOptimizer(model, alpha=2.0, tasks_per_step=20)
        for _ in range(10):
            optimizer.step()
        assert not optimizer.finished
        assert optimizer.frontier() == []
