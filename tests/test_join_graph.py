"""Unit tests for repro.query.join_graph."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.join_graph import (
    GraphShape,
    JoinGraph,
    snowflake_arm_lengths,
    snowflake_edges,
)


class TestEdgeManagement:
    def test_add_and_query_edge(self):
        graph = JoinGraph(3)
        graph.add_edge(0, 1, 0.5)
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)
        assert graph.edge_selectivity(0, 1) == 0.5
        assert graph.edge_selectivity(1, 0) == 0.5

    def test_missing_edge_has_selectivity_one(self):
        graph = JoinGraph(3)
        assert not graph.has_edge(0, 2)
        assert graph.edge_selectivity(0, 2) == 1.0

    def test_self_edge_rejected(self):
        graph = JoinGraph(3)
        with pytest.raises(ValueError):
            graph.add_edge(1, 1, 0.5)

    def test_out_of_range_endpoint_rejected(self):
        graph = JoinGraph(3)
        with pytest.raises(ValueError):
            graph.add_edge(0, 3, 0.5)

    def test_invalid_selectivity_rejected(self):
        graph = JoinGraph(3)
        with pytest.raises(ValueError):
            graph.add_edge(0, 1, 0.0)
        with pytest.raises(ValueError):
            graph.add_edge(0, 1, 1.5)

    def test_zero_tables_rejected(self):
        with pytest.raises(ValueError):
            JoinGraph(0)

    def test_edges_iteration_sorted(self):
        graph = JoinGraph(4)
        graph.add_edge(2, 3, 0.3)
        graph.add_edge(0, 1, 0.1)
        assert list(graph.edges()) == [(0, 1, 0.1), (2, 3, 0.3)]

    def test_num_edges(self):
        graph = JoinGraph(4, edges={(0, 1): 0.1, (1, 2): 0.2})
        assert graph.num_edges == 2
        assert graph.num_tables == 4


class TestSelectivityBetween:
    def test_single_crossing_edge(self):
        graph = JoinGraph(4, edges={(0, 1): 0.1, (1, 2): 0.2, (2, 3): 0.3})
        assert graph.selectivity_between({0}, {1}) == pytest.approx(0.1)

    def test_multiple_crossing_edges_multiply(self):
        graph = JoinGraph(4, edges={(0, 2): 0.1, (1, 3): 0.5})
        assert graph.selectivity_between({0, 1}, {2, 3}) == pytest.approx(0.05)

    def test_no_crossing_edge_is_cartesian(self):
        graph = JoinGraph(4, edges={(0, 1): 0.1})
        assert graph.selectivity_between({0, 1}, {2, 3}) == 1.0

    def test_internal_edges_ignored(self):
        graph = JoinGraph(4, edges={(0, 1): 0.001, (1, 2): 0.5})
        # the (0, 1) edge is internal to the left side and must not count
        assert graph.selectivity_between({0, 1}, {2}) == pytest.approx(0.5)

    def test_overlapping_sets_rejected(self):
        graph = JoinGraph(3)
        with pytest.raises(ValueError):
            graph.selectivity_between({0, 1}, {1, 2})


def _edge_scan_selectivity(edges, left, right):
    """The oracle: scan every edge, multiplying the crossing ones in the
    edge dict's insertion order (an overwrite keeps its first position)."""
    left_set = frozenset(left)
    right_set = frozenset(right)
    if left_set & right_set:
        raise ValueError("table sets must be disjoint to compute a join selectivity")
    selectivity = 1.0
    for (a, b), edge_selectivity in edges.items():
        if (a in left_set and b in right_set) or (a in right_set and b in left_set):
            selectivity *= edge_selectivity
    return selectivity


def _shape_edges(shape, num_tables):
    """Edge endpoints in the order the named builder adds them."""
    if shape == "snowflake":
        return snowflake_edges(num_tables)
    if shape == "star":
        return [(0, table) for table in range(1, num_tables)]
    if shape == "clique":
        return [(a, b) for a in range(num_tables) for b in range(a + 1, num_tables)]
    edges = [(table, table + 1) for table in range(num_tables - 1)]
    if shape == "cycle" and num_tables >= 3:
        edges.append((num_tables - 1, 0))
    return edges


def _bits(tables):
    return sum(1 << table for table in tables)


class TestSelectivityMatchesEdgeScan:
    """selectivity_between(_bits) == the all-edges scan, bit for bit."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        shape=st.sampled_from(["chain", "cycle", "star", "clique", "snowflake"]),
        num_tables=st.integers(min_value=1, max_value=40),
        overwrites=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_graphs_and_disjoint_sets(self, seed, shape, num_tables, overwrites):
        rng = random.Random(seed)
        graph = JoinGraph(num_tables)
        recorded = {}

        def add(a, b):
            # Selectivities over many decades, so products round and the
            # multiplication order shows in the bits.
            selectivity = 10.0 ** -rng.uniform(0.0, 9.0)
            graph.add_edge(a, b, selectivity)
            recorded[(min(a, b), max(a, b))] = selectivity

        edges = _shape_edges(shape, num_tables)
        for a, b in edges:
            add(a, b)
        for _ in range(overwrites if edges else 0):
            a, b = rng.choice(edges)
            if rng.random() < 0.5:
                a, b = b, a
            add(a, b)

        tables = list(range(num_tables))
        cases = [((), ()), ((), tables), (tables, ())]
        cases += [((table,), ()) for table in tables[:2]]
        cases += [((a,), (b,)) for a, b in zip(tables, tables[1:])]
        for _ in range(25):
            sides = [rng.randrange(3) for _ in tables]
            left = [table for table, side in zip(tables, sides) if side == 0]
            right = [table for table, side in zip(tables, sides) if side == 1]
            cases.append((left, right))
        for left, right in cases:
            expected = struct.pack("<d", _edge_scan_selectivity(recorded, left, right))
            for got in (
                graph.selectivity_between(left, right),
                graph.selectivity_between(set(right), set(left)),
                graph.selectivity_between_bits(_bits(left), _bits(right)),
            ):
                assert struct.pack("<d", got) == expected, (left, right)

    def test_overlapping_bitsets_rejected(self):
        graph = JoinGraph.chain(3, [0.5, 0.25])
        with pytest.raises(ValueError, match="disjoint"):
            graph.selectivity_between_bits(0b011, 0b110)

    def test_builder_graphs_match_edge_by_edge_graphs(self):
        for shape in GraphShape:
            count = JoinGraph.edge_count_for_shape(shape, 9)
            values = [0.5 ** (1 + index % 7) / 3.0 for index in range(count)]
            built = JoinGraph.from_shape(shape, 9, values)
            recorded = dict(zip(
                [tuple(sorted(edge)) for edge in _shape_edges(shape.value, 9)], values
            ))
            assert dict(((a, b), s) for a, b, s in built.edges()) == recorded
            rng = random.Random(shape.value)
            for _ in range(40):
                sides = [rng.randrange(3) for _ in range(9)]
                left = [t for t, side in enumerate(sides) if side == 0]
                right = [t for t, side in enumerate(sides) if side == 1]
                assert built.selectivity_between(left, right) == (
                    _edge_scan_selectivity(recorded, left, right)
                )


class TestConnectivity:
    def test_neighbors(self):
        graph = JoinGraph.star(4, [0.1, 0.2, 0.3])
        assert graph.neighbors(0) == frozenset({1, 2, 3})
        assert graph.neighbors(2) == frozenset({0})

    def test_connected_subset_chain(self):
        graph = JoinGraph.chain(5, [0.1] * 4)
        assert graph.is_connected_subset({1, 2, 3})
        assert not graph.is_connected_subset({0, 2})
        assert graph.is_connected_subset({4})

    def test_connected_subset_star(self):
        graph = JoinGraph.star(5, [0.1] * 4)
        assert graph.is_connected_subset({0, 3})
        assert not graph.is_connected_subset({1, 2})

    def test_empty_subset_not_connected(self):
        graph = JoinGraph.chain(3, [0.1, 0.1])
        assert not graph.is_connected_subset(set())


class TestBuilders:
    def test_chain_edges(self):
        graph = JoinGraph.chain(4, [0.1, 0.2, 0.3])
        assert graph.num_edges == 3
        assert graph.has_edge(0, 1) and graph.has_edge(1, 2) and graph.has_edge(2, 3)
        assert not graph.has_edge(0, 3)

    def test_cycle_edges(self):
        graph = JoinGraph.cycle(4, [0.1, 0.2, 0.3, 0.4])
        assert graph.num_edges == 4
        assert graph.has_edge(3, 0)

    def test_cycle_of_two_is_single_edge(self):
        graph = JoinGraph.cycle(2, [0.1])
        assert graph.num_edges == 1

    def test_star_edges(self):
        graph = JoinGraph.star(5, [0.1, 0.2, 0.3, 0.4])
        assert graph.num_edges == 4
        assert all(graph.has_edge(0, i) for i in range(1, 5))
        assert not graph.has_edge(1, 2)

    def test_clique_edges(self):
        graph = JoinGraph.clique(4, [0.1] * 6)
        assert graph.num_edges == 6
        assert all(graph.has_edge(a, b) for a in range(4) for b in range(a + 1, 4))

    def test_wrong_selectivity_count_rejected(self):
        with pytest.raises(ValueError):
            JoinGraph.chain(4, [0.1, 0.2])
        with pytest.raises(ValueError):
            JoinGraph.star(4, [0.1, 0.2, 0.3, 0.4])

    def test_from_shape_dispatch(self):
        for shape in GraphShape:
            expected = JoinGraph.edge_count_for_shape(shape, 5)
            graph = JoinGraph.from_shape(shape, 5, [0.1] * expected)
            assert graph.num_edges == expected

    def test_edge_count_for_shape(self):
        assert JoinGraph.edge_count_for_shape(GraphShape.CHAIN, 10) == 9
        assert JoinGraph.edge_count_for_shape(GraphShape.CYCLE, 10) == 10
        assert JoinGraph.edge_count_for_shape(GraphShape.STAR, 10) == 9
        assert JoinGraph.edge_count_for_shape(GraphShape.CLIQUE, 10) == 45


class TestSnowflake:
    def test_arm_lengths_partition_spokes(self):
        for num_tables in range(4, 40):
            lengths = snowflake_arm_lengths(num_tables)
            assert sum(lengths) == num_tables - 1
            assert max(lengths) - min(lengths) <= 1
            assert lengths == sorted(lengths, reverse=True)

    def test_arm_lengths_examples(self):
        assert snowflake_arm_lengths(4) == [2, 1]
        assert snowflake_arm_lengths(5) == [2, 2]
        assert snowflake_arm_lengths(10) == [3, 3, 3]

    def test_edges_cover_all_tables_once(self):
        for num_tables in (4, 7, 10, 13):
            edges = snowflake_edges(num_tables)
            assert len(edges) == num_tables - 1
            non_hub = [t for edge in edges for t in edge if t != 0]
            assert sorted(set(non_hub)) == list(range(1, num_tables))

    def test_hub_degree_is_arm_count(self):
        for num_tables in (4, 9, 12):
            edges = snowflake_edges(num_tables)
            hub_degree = sum(1 for a, b in edges if a == 0 or b == 0)
            assert hub_degree == len(snowflake_arm_lengths(num_tables))

    def test_builder_matches_edge_helper(self):
        num_tables = 8
        selectivities = [0.1 * (i + 1) / 10 for i in range(num_tables - 1)]
        graph = JoinGraph.snowflake(num_tables, selectivities)
        for (a, b), selectivity in zip(snowflake_edges(num_tables), selectivities):
            assert graph.edge_selectivity(a, b) == selectivity

    def test_snowflake_is_connected(self):
        graph = JoinGraph.snowflake(10, [0.5] * 9)
        assert graph.is_connected_subset(range(10))

    def test_wrong_selectivity_count_rejected(self):
        with pytest.raises(ValueError):
            JoinGraph.snowflake(6, [0.1, 0.2])

    def test_from_shape_and_edge_count(self):
        assert JoinGraph.edge_count_for_shape(GraphShape.SNOWFLAKE, 10) == 9
        graph = JoinGraph.from_shape(GraphShape.SNOWFLAKE, 6, [0.2] * 5)
        assert graph.num_edges == 5
