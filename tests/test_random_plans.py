"""Unit tests of RandomPlan on the object oracle."""

import random


from oracle.random_plans import RandomPlanGenerator
from repro.plans.plan import JoinPlan
from repro.plans.validation import validate_plan


class TestRandomBushyPlans:
    def test_plan_covers_all_tables(self, cycle_model, cycle_query_6, rng):
        generator = RandomPlanGenerator(cycle_model, rng)
        plan = generator.random_bushy_plan()
        assert plan.rel == cycle_query_6.relations
        assert plan.num_nodes == 2 * cycle_query_6.num_tables - 1

    def test_plans_are_valid(self, star_model, star_query_5, rng):
        generator = RandomPlanGenerator(star_model, rng)
        for plan in generator.random_plans(30):
            validate_plan(plan, star_query_5, star_model.library, star_model.num_metrics)

    def test_single_table_query_yields_scan(self, single_table_query, rng):
        from repro.cost.model import MultiObjectiveCostModel

        model = MultiObjectiveCostModel(single_table_query, metrics=("time",))
        generator = RandomPlanGenerator(model, rng)
        plan = generator.random_bushy_plan()
        assert not plan.is_join
        assert plan.rel == frozenset({0})

    def test_randomness_produces_different_join_orders(self, cycle_model):
        generator = RandomPlanGenerator(cycle_model, random.Random(11))
        signatures = {
            plan.join_order_signature() for plan in generator.random_plans(40)
        }
        assert len(signatures) > 5

    def test_reproducible_from_seed(self, cycle_model):
        first = RandomPlanGenerator(cycle_model, random.Random(3)).random_plans(10)
        second = RandomPlanGenerator(cycle_model, random.Random(3)).random_plans(10)
        for a, b in zip(first, second):
            assert a.structurally_equal(b)

    def test_bushy_plans_occur(self, cycle_model):
        """The generator must produce genuinely bushy trees, not only linear ones."""
        generator = RandomPlanGenerator(cycle_model, random.Random(5))
        bushy_found = False
        for plan in generator.random_plans(50):
            assert isinstance(plan, JoinPlan)
            if plan.outer.is_join and plan.inner.is_join:
                bushy_found = True
                break
        assert bushy_found

    def test_random_batch_length(self, chain_model, rng):
        generator = RandomPlanGenerator(chain_model, rng)
        assert len(generator.random_plans(7)) == 7


class TestRandomLeftDeepPlans:
    def test_left_deep_structure(self, cycle_model, cycle_query_6, rng):
        generator = RandomPlanGenerator(cycle_model, rng)
        plan = generator.random_left_deep_plan()
        assert plan.rel == cycle_query_6.relations
        node = plan
        while isinstance(node, JoinPlan):
            assert not node.inner.is_join, "inner child of a left-deep join must be a scan"
            node = node.outer

    def test_left_deep_plans_are_valid(self, chain_model, chain_query_4, rng):
        generator = RandomPlanGenerator(chain_model, rng)
        for _ in range(10):
            plan = generator.random_left_deep_plan()
            validate_plan(plan, chain_query_4, chain_model.library, chain_model.num_metrics)

    def test_left_deep_orders_vary(self, cycle_model):
        generator = RandomPlanGenerator(cycle_model, random.Random(9))
        signatures = {
            generator.random_left_deep_plan().join_order_signature() for _ in range(30)
        }
        assert len(signatures) > 3
