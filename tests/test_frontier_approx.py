"""Unit tests of the α schedule and of ApproximateFrontiers (Algorithm 3) on
the object oracle."""

import pytest

from oracle.frontier import FrontierApproximator
from repro.core.frontier import AlphaSchedule
from oracle.plan_cache import PlanCache
from oracle.random_plans import RandomPlanGenerator
from repro.plans.plan import JoinPlan
from repro.plans.validation import validate_plan


class TestAlphaSchedule:
    def test_paper_schedule_values(self):
        schedule = AlphaSchedule.paper()
        assert schedule.alpha(1) == pytest.approx(25.0)
        assert schedule.alpha(24) == pytest.approx(25.0)
        assert schedule.alpha(25) == pytest.approx(25.0 * 0.99)
        assert schedule.alpha(50) == pytest.approx(25.0 * 0.99**2)

    def test_schedule_is_non_increasing(self):
        schedule = AlphaSchedule.paper()
        values = [schedule.alpha(i) for i in range(1, 2000)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_schedule_floored_at_one(self):
        schedule = AlphaSchedule(initial=2.0, decay=0.5, period=1)
        assert schedule.alpha(100) == 1.0

    def test_constant_schedule(self):
        schedule = AlphaSchedule.constant(5.0)
        assert schedule.alpha(1) == 5.0
        assert schedule.alpha(10_000) == 5.0

    def test_compressed_schedule_decays_faster(self):
        paper = AlphaSchedule.paper()
        compressed = AlphaSchedule.compressed(100)
        assert compressed.alpha(50) < paper.alpha(50)
        assert compressed.alpha(1) == pytest.approx(paper.alpha(1), rel=0.05)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AlphaSchedule(initial=0.5)
        with pytest.raises(ValueError):
            AlphaSchedule(decay=0.0)
        with pytest.raises(ValueError):
            AlphaSchedule(decay=1.5)
        with pytest.raises(ValueError):
            AlphaSchedule(period=0)
        with pytest.raises(ValueError):
            AlphaSchedule(floor=0.5)
        with pytest.raises(ValueError):
            AlphaSchedule.compressed(0)

    def test_invalid_iteration_rejected(self):
        with pytest.raises(ValueError):
            AlphaSchedule.paper().alpha(0)


class TestFrontierApproximator:
    @pytest.fixture
    def approximator(self, chain_model):
        return FrontierApproximator(chain_model)

    @pytest.fixture
    def base_plan(self, chain_model, rng):
        return RandomPlanGenerator(chain_model, rng).random_bushy_plan()

    def test_cache_populated_for_all_intermediate_results(
        self, approximator, base_plan, chain_model
    ):
        cache = PlanCache()
        approximator.approximate(base_plan, cache, iteration=1)
        for node in base_plan.iter_nodes():
            assert cache.plans(node.rel), f"no cached plans for {sorted(node.rel)}"

    def test_full_query_frontier_present(self, approximator, base_plan, chain_model):
        cache = PlanCache()
        approximator.approximate(base_plan, cache, iteration=1)
        assert cache.plans(chain_model.query.relations)

    def test_cached_plans_are_valid_partial_plans(
        self, approximator, base_plan, chain_model, chain_query_4
    ):
        cache = PlanCache()
        approximator.approximate(base_plan, cache, iteration=1)
        for rel in cache.table_sets():
            for plan in cache.plans(rel):
                assert plan.rel == rel
                validate_plan(
                    plan,
                    chain_query_4,
                    chain_model.library,
                    chain_model.num_metrics,
                    require_complete=False,
                )

    def test_operator_variations_tried(self, approximator, chain_model, rng):
        """For a fixed join order, the approximation explores operator choices."""
        cache = PlanCache()
        plan = RandomPlanGenerator(chain_model, rng).random_bushy_plan()
        approximator.approximate(plan, cache, iteration=10_000)  # fine precision
        top_plans = cache.plans(chain_model.query.relations)
        operators_used = set()
        for cached in top_plans:
            if isinstance(cached, JoinPlan):
                operators_used.add(cached.operator.name)
        assert len(top_plans) >= 2
        assert len(operators_used) >= 1

    def test_cache_reuse_across_iterations_grows_coverage(
        self, approximator, chain_model, rng
    ):
        cache = PlanCache()
        generator = RandomPlanGenerator(chain_model, rng)
        approximator.approximate(generator.random_bushy_plan(), cache, iteration=1)
        sets_after_first = len(cache)
        approximator.approximate(generator.random_bushy_plan(), cache, iteration=2)
        assert len(cache) >= sets_after_first

    def test_plans_built_counter_increases(self, approximator, base_plan):
        cache = PlanCache()
        before = approximator.plans_built
        approximator.approximate(base_plan, cache, iteration=1)
        assert approximator.plans_built > before

    def test_finer_alpha_keeps_at_least_as_many_plans(self, chain_model, rng):
        plan = RandomPlanGenerator(chain_model, rng).random_bushy_plan()
        coarse_cache = PlanCache()
        FrontierApproximator(chain_model, AlphaSchedule.constant(25.0)).approximate(
            plan, coarse_cache, iteration=1
        )
        fine_cache = PlanCache()
        FrontierApproximator(chain_model, AlphaSchedule.constant(1.0)).approximate(
            plan, fine_cache, iteration=1
        )
        rel = chain_model.query.relations
        assert fine_cache.size_of(rel) >= coarse_cache.size_of(rel)

    def test_returns_same_cache_object(self, approximator, base_plan):
        cache = PlanCache()
        returned = approximator.approximate(base_plan, cache, iteration=1)
        assert returned is cache
