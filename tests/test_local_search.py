"""Unit tests of single-node neighbor generation (the object oracle)."""

import random

import pytest

from oracle.local_search import (
    all_neighbors,
    enumerate_node_paths,
    node_at,
    random_neighbor,
    replace_at,
)
from oracle.random_plans import RandomPlanGenerator
from oracle.transformations import TransformationRules
from repro.plans.validation import validate_plan


@pytest.fixture
def rules():
    return TransformationRules()


@pytest.fixture
def bushy_plan(chain_model, rng):
    return RandomPlanGenerator(chain_model, rng).random_bushy_plan()


class TestNodePaths:
    def test_number_of_paths_equals_number_of_nodes(self, bushy_plan):
        paths = enumerate_node_paths(bushy_plan)
        assert len(paths) == bushy_plan.num_nodes
        assert () in paths

    def test_node_at_root(self, bushy_plan):
        assert node_at(bushy_plan, ()) is bushy_plan

    def test_node_at_children(self, bushy_plan):
        assert node_at(bushy_plan, ("o",)) is bushy_plan.outer
        assert node_at(bushy_plan, ("i",)) is bushy_plan.inner

    def test_node_at_invalid_path_rejected(self, chain_model):
        scan = chain_model.default_scan(0)
        with pytest.raises(ValueError):
            node_at(scan, ("o",))

    def test_paths_reach_every_node(self, bushy_plan):
        reached = {id(node_at(bushy_plan, path)) for path in enumerate_node_paths(bushy_plan)}
        expected = {id(node) for node in bushy_plan.iter_nodes()}
        assert reached == expected


class TestReplaceAt:
    def test_replace_root(self, bushy_plan, chain_model, rules):
        replacement = chain_model.default_scan(0)
        assert replace_at(bushy_plan, (), replacement, rules, chain_model) is replacement

    def test_replace_leaf_keeps_table_set(self, bushy_plan, chain_model, rules, chain_query_4):
        paths = enumerate_node_paths(bushy_plan)
        leaf_paths = [p for p in paths if not node_at(bushy_plan, p).is_join]
        path = leaf_paths[0]
        leaf = node_at(bushy_plan, path)
        alternatives = [
            chain_model.make_scan(leaf.table.index, op)
            for op in chain_model.scan_operators(leaf.table.index)
            if op != leaf.operator
        ]
        new_plan = replace_at(bushy_plan, path, alternatives[0], rules, chain_model)
        assert new_plan.rel == bushy_plan.rel
        validate_plan(new_plan, chain_query_4, chain_model.library, chain_model.num_metrics)

    def test_replace_below_scan_rejected(self, chain_model, rules):
        scan = chain_model.default_scan(0)
        with pytest.raises(ValueError):
            replace_at(scan, ("o",), scan, rules, chain_model)


class TestRandomNeighbor:
    def test_neighbor_is_valid_and_covers_query(
        self, bushy_plan, chain_model, chain_query_4, rules
    ):
        rng = random.Random(0)
        for _ in range(20):
            neighbor = random_neighbor(bushy_plan, rules, chain_model, rng)
            assert neighbor is not None
            assert neighbor.rel == bushy_plan.rel
            validate_plan(neighbor, chain_query_4, chain_model.library, chain_model.num_metrics)

    def test_neighbor_none_when_no_mutations_exist(self, single_table_query):
        from repro.cost.model import MultiObjectiveCostModel
        from repro.plans.operators import OperatorLibrary

        model = MultiObjectiveCostModel(
            single_table_query, metrics=("time",), library=OperatorLibrary.minimal()
        )
        scan = model.default_scan(0)
        assert random_neighbor(scan, TransformationRules(), model, random.Random(0)) is None

    def test_neighbors_differ_from_original(self, bushy_plan, chain_model, rules):
        rng = random.Random(1)
        changed = 0
        for _ in range(10):
            neighbor = random_neighbor(bushy_plan, rules, chain_model, rng)
            if neighbor is not None and not neighbor.structurally_equal(bushy_plan):
                changed += 1
        assert changed >= 8


class TestAllNeighbors:
    def test_all_neighbors_cover_query_tables(self, bushy_plan, chain_model, rules):
        neighbors = all_neighbors(bushy_plan, rules, chain_model)
        assert neighbors
        assert all(neighbor.rel == bushy_plan.rel for neighbor in neighbors)

    def test_all_neighbors_includes_scan_operator_changes(self, chain_model, rules):
        plan = chain_model.default_join(
            chain_model.default_scan(0), chain_model.default_scan(1)
        )
        neighbors = all_neighbors(plan, rules, chain_model)
        scan_operator_names = set()
        for neighbor in neighbors:
            for node in neighbor.iter_nodes():
                if not node.is_join:
                    scan_operator_names.add(node.operator.name)
        assert len(scan_operator_names) >= 2

    def test_neighbor_count_scales_with_plan_size(self, chain_model, cycle_model, rng):
        small = RandomPlanGenerator(chain_model, rng).random_bushy_plan()
        large = RandomPlanGenerator(cycle_model, rng).random_bushy_plan()
        rules = TransformationRules()
        assert len(all_neighbors(large, rules, cycle_model)) > len(
            all_neighbors(small, rules, chain_model)
        )


class TestArenaNeighborsMatchOracle:
    """The library's arena neighbor functions against the object oracle."""

    @pytest.mark.parametrize("flags", [{}, {"enable_operator_change": False}])
    def test_all_neighbors_same_order_costs_and_shapes(self, cycle_model, flags):
        from repro.baselines.local_search import arena_all_neighbors
        from repro.cost.batch import BatchCostModel
        from repro.plans.transformations import ArenaTransformationRules

        plan = RandomPlanGenerator(cycle_model, random.Random(8)).random_bushy_plan()
        expected = all_neighbors(plan, TransformationRules(**flags), cycle_model)
        batch_model = BatchCostModel(cycle_model)
        rules = ArenaTransformationRules(
            batch_model, TransformationRules(**flags)
        )
        refs = arena_all_neighbors(batch_model, batch_model.intern_plan(plan), rules)
        arena = batch_model.arena
        neighbors = [arena.to_plan(batch_model.realize(ref)) for ref in refs]
        assert [n.cost for n in neighbors] == [n.cost for n in expected]
        assert all(
            got.structurally_equal(want) for got, want in zip(neighbors, expected)
        )

    def test_random_neighbor_same_draws(self, cycle_model):
        from repro.baselines.local_search import arena_random_neighbor
        from repro.cost.batch import BatchCostModel
        from repro.plans.transformations import ArenaTransformationRules

        plan = RandomPlanGenerator(cycle_model, random.Random(9)).random_bushy_plan()
        batch_model = BatchCostModel(cycle_model)
        rules = ArenaTransformationRules(batch_model)
        handle = batch_model.intern_plan(plan)
        object_rng, arena_rng = random.Random(3), random.Random(3)
        for _ in range(10):
            want = random_neighbor(plan, TransformationRules(), cycle_model, object_rng)
            got = arena_random_neighbor(batch_model, handle, rules, arena_rng)
            assert batch_model.arena.to_plan(got).structurally_equal(want)
            assert batch_model.arena.cost(got) == want.cost
        assert arena_rng.getstate() == object_rng.getstate()
