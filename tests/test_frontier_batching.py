"""The level-synchronous ``ApproximateFrontiers`` and its per-height kernel.

* **Heights** — ``PlanArena.nodes_by_height`` partitions a plan into
  levels of disjoint table sets, bottom up.
* **One call per height** — a single ``join_candidates`` call over many
  frontier pairs equals one call per pair, bit for bit, pair by pair:
  random 3–100-table queries, empty frontiers, mixed output formats and
  NaN/inf cardinalities.
* **Side check** — a side that mixes table sets is rejected in any pair,
  and the error names the side and the pair.
* **Oracle equivalence** — the height walk leaves every table set of the
  plan cache with the plans (same order, same costs) and the
  ``plans_built`` of the object oracle's post-order walk, for random bushy
  and left-deep plans of 10–100 tables and α ∈ {1, 1.01, 25}; when one
  raises, both raise the same error class.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle.frontier import FrontierApproximator
from oracle.plan_cache import PlanCache
from repro.core.frontier import AlphaSchedule, ArenaFrontierApproximator
from repro.core.plan_cache import ArenaPlanCache
from repro.cost.batch import BatchCostModel
from repro.cost.model import MultiObjectiveCostModel
from repro.plans.operators import OperatorLibrary
from repro.query.generator import SHAPE_MIN_TABLES, QueryGenerator
from repro.query.join_graph import GraphShape
from repro.query.query import Query
from repro.query.table import Table

SHAPES = (GraphShape.CHAIN, GraphShape.CYCLE, GraphShape.STAR, GraphShape.SNOWFLAKE)
LIBRARIES = {
    "default": OperatorLibrary.default,
    "cloud": OperatorLibrary.cloud,
    "sampling": OperatorLibrary.sampling,
}
METRICS = {
    "default": ("time", "buffer", "disk"),
    "cloud": ("time", "monetary"),
    "sampling": ("time", "precision_loss"),
}
BATCH_FIELDS = ("costs", "cardinalities", "op_codes", "tags", "outer_pos", "inner_pos")


def _model(seed, num_tables, shape, cards, library):
    """A generated query's cost model.

    ``cards`` rescales the tables: ``"plain"`` keeps them, ``"huge"``
    multiplies every cardinality by 1e150 (joins of a few tables overflow
    to inf), ``"nan"`` makes table 0's cardinality NaN.
    """
    query = QueryGenerator(rng=random.Random(seed)).generate(num_tables, shape)
    if cards != "plain":
        tables = [
            Table(
                index=table.index,
                name=table.name,
                cardinality=(
                    table.cardinality * 1e150 if cards == "huge"
                    else float("nan") if table.index == 0 else table.cardinality
                ),
                row_width=table.row_width,
            )
            for table in query.tables
        ]
        query = Query(tables, query.join_graph, name=query.name)
    return MultiObjectiveCostModel(
        query, metrics=METRICS[library], library=LIBRARIES[library]()
    )


def _join(model, rng, outer, inner):
    """A join on a random operator; one the scalar kernel cannot cost (a
    sort-merge over an infinite page count) gives way to another."""
    codes = list(model.join_codes_for(inner))
    rng.shuffle(codes)
    for code in codes:
        try:
            return model.make_join(outer, inner, code)
        except OverflowError:
            continue
    raise AssertionError("no join operator could cost this join")


def _random_plan(model, rng, left_deep):
    """A random bushy or left-deep plan over all of the query's tables."""
    leaves = [
        model.make_scan(table, rng.choice(model.scan_codes(table)))
        for table in sorted(model.query.relations)
    ]
    rng.shuffle(leaves)
    if left_deep:
        plan = leaves[0]
        for leaf in leaves[1:]:
            plan = _join(model, rng, plan, leaf)
        return plan
    while len(leaves) > 1:
        outer = leaves.pop(rng.randrange(len(leaves)))
        inner = leaves.pop(rng.randrange(len(leaves)))
        leaves.append(_join(model, rng, outer, inner))
    return leaves[0]


def _tree(arena, handle):
    nodes = [handle]
    for node in nodes:
        if arena.is_join(node):
            nodes += [arena.outer(node), arena.inner(node)]
    return nodes


def _variants(model, node):
    """Handles joining the same table set as ``node``, of mixed formats."""
    arena = model.arena
    if not arena.is_join(node):
        table = arena.table_index(node)
        return [model.make_scan(table, code) for code in model.scan_codes(table)]
    variants = [node]
    outer, inner = arena.outer(node), arena.inner(node)
    for left, right in ((outer, inner), (inner, outer)):
        for code in model.join_codes_for(right):
            try:
                variants.append(model.make_join(left, right, code))
            except OverflowError:
                pass
    return variants


def _frontier(rng, variants):
    """A random frontier drawn from ``variants``: empty, or a shuffled
    sample with repeats."""
    if rng.random() < 0.15:
        return []
    return [rng.choice(variants) for _ in range(rng.randint(1, 2 * len(variants)))]


@st.composite
def _height_case(draw):
    shape = draw(st.sampled_from(SHAPES))
    num_tables = draw(st.integers(max(3, SHAPE_MIN_TABLES[shape]), 100))
    cards = draw(st.sampled_from(("plain", "huge", "nan")))
    library = draw(st.sampled_from(sorted(LIBRARIES)))
    seed = draw(st.integers(0, 2**16))
    num_pairs = draw(st.integers(1, 60))
    rng = random.Random(seed)
    model = BatchCostModel(_model(seed, num_tables, shape, cards, library))
    arena = model.arena
    joins = [
        node for node in _tree(arena, _random_plan(model, rng, rng.random() < 0.5))
        if arena.is_join(node)
    ]
    pairs = []
    for _ in range(num_pairs):
        node = rng.choice(joins)
        pairs.append(
            tuple(
                _frontier(rng, _variants(model, child))
                for child in (arena.outer(node), arena.inner(node))
            )
        )
    return model, pairs


def _outcome(call):
    """The call's result, or the class of the ``OverflowError`` it raised."""
    try:
        return call()
    except OverflowError as error:
        return type(error)


def _assert_same_bits(actual, expected):
    assert actual.size == expected.size
    for field in BATCH_FIELDS:
        left = getattr(actual, field)
        right = getattr(expected, field)
        assert left.dtype == right.dtype, field
        assert left.shape == right.shape, field
        assert left.tobytes() == right.tobytes(), field


class TestNodesByHeight:
    @pytest.mark.parametrize("left_deep", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_heights_partition_the_tree_into_disjoint_levels(self, seed, left_deep):
        model = BatchCostModel(_model(seed, 30, GraphShape.STAR, "plain", "default"))
        arena = model.arena
        root = _random_plan(model, random.Random(seed), left_deep)
        levels = arena.nodes_by_height(root)
        height = {node: level for level, nodes in enumerate(levels) for node in nodes}
        assert sorted(height) == sorted(_tree(arena, root))
        for node, level in height.items():
            if arena.is_join(node):
                assert level == 1 + max(height[arena.outer(node)], height[arena.inner(node)])
            else:
                assert level == 0
        for nodes in levels:
            assert sum(len(arena.rel(node)) for node in nodes) == len(
                frozenset().union(*(arena.rel(node) for node in nodes))
            )
        # Skipped nodes drop out with their sub-trees.
        skipped = arena.outer(root)
        kept = [node for nodes in arena.nodes_by_height(root, skip={skipped}) for node in nodes]
        assert sorted(kept) == sorted(
            node for node in _tree(arena, root)
            if node not in _tree(arena, skipped)
        )


class TestOneCallPerHeight:
    @given(case=_height_case())
    @settings(max_examples=40, deadline=None)
    def test_one_call_equals_per_pair_calls(self, case):
        model, pairs = case
        arena = model.arena
        splits = [
            (
                outer, inner,
                arena.rel_bits(outer[0]) if outer else 0,
                arena.rel_bits(inner[0]) if inner else 0,
            )
            for outer, inner in pairs
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            batch = _outcome(lambda: model.join_candidates(pairs))
            multi = _outcome(lambda: model.join_candidates_multi(splits))
            singles = [_outcome(lambda: model.join_candidates([pair])) for pair in pairs]
        # A sort-merge candidate over an infinite page count raises; then
        # the whole call raises exactly when some pair alone does.
        outcomes = [batch is OverflowError, multi is OverflowError]
        if any(outcomes) or OverflowError in singles:
            assert all(outcomes) and OverflowError in singles
            return
        assert batch.num_pairs == len(pairs)
        assert batch.bounds[0] == 0 and batch.bounds[-1] == batch.size
        assert list(batch.bounds) == sorted(batch.bounds)
        for index, single in enumerate(singles):
            assert single.num_pairs == 1
            _assert_same_bits(batch.pair(index), single)
            _assert_same_bits(multi[index], single)

    def test_no_pairs(self, chain_model):
        batch = BatchCostModel(chain_model).join_candidates([])
        assert batch.size == 0 and batch.num_pairs == 0

    def test_mixed_side_rejected_naming_side_and_pair(self, chain_model):
        model = BatchCostModel(chain_model)
        scans = [model.make_scan(table, 0) for table in range(4)]
        good = ([scans[0]], [scans[1]])
        with pytest.raises(ValueError, match="outer handles of pair 1 "):
            model.join_candidates([good, ([scans[2], scans[3]], [scans[1]])])
        with pytest.raises(ValueError, match="inner handles of pair 2 "):
            model.join_candidates([good, good, ([scans[2]], [scans[0], scans[3]])])
        with pytest.raises(ValueError, match="inner handles of pair 0 "):
            model.join_candidates([([], [scans[0], scans[1]])])


#: Largest plan per α.  Exact and near-exact frontiers grow exponentially
#: with the plan's height (a 20-table left-deep plan at α = 1 already
#: holds frontiers of over a thousand plans, and 40 tables exhaust memory),
#: so only α = 25 draws plans of up to 100 tables.
MAX_TABLES = {1.0: 12, 1.01: 16, 25.0: 100}


@st.composite
def _oracle_case(draw):
    alpha = draw(st.sampled_from(sorted(MAX_TABLES)))
    return (
        alpha,
        draw(st.integers(10, MAX_TABLES[alpha])),
        draw(st.sampled_from(SHAPES)),
        draw(st.booleans()),
        draw(st.sampled_from(("plain", "huge"))),
        draw(st.sampled_from(("default", "sampling"))),
        draw(st.integers(0, 2**16)),
    )


class TestHeightWalkMatchesOracle:
    @given(case=_oracle_case())
    @settings(max_examples=30, deadline=None)
    def test_cache_matches_post_order_oracle(self, case):
        alpha, num_tables, shape, left_deep, cards, library, seed = case
        cost_model = _model(seed, num_tables, shape, cards, library)
        model = BatchCostModel(cost_model)
        rng = random.Random(seed)
        schedule = AlphaSchedule.constant(alpha)
        runtime = ArenaFrontierApproximator(model, schedule)
        reference = FrontierApproximator(cost_model, schedule)
        runtime_cache = ArenaPlanCache(model)
        reference_cache = PlanCache()
        # Later iterations start from the cache the earlier ones filled.
        for iteration in (1, 2):
            handle = _random_plan(model, rng, left_deep)
            plan = model.arena.to_plan(handle)
            errors = []
            with np.errstate(over="ignore", invalid="ignore"):
                for run in (
                    lambda: runtime.approximate(handle, runtime_cache, iteration),
                    lambda: reference.approximate(plan, reference_cache, iteration),
                ):
                    try:
                        run()
                        errors.append(None)
                    except Exception as error:  # noqa: BLE001 - compared below
                        errors.append(type(error))
            assert errors[0] == errors[1]
            if errors[0] is not None:
                return
            assert runtime.plans_built == reference.plans_built
            table_sets = reference_cache.table_sets()
            assert sorted(map(sorted, runtime_cache.table_sets())) == sorted(
                map(sorted, table_sets)
            )
            for rel in table_sets:
                expected = reference_cache.plans(rel)
                actual = runtime_cache.plans(rel)
                assert [repr(p.cost) for p in actual] == [repr(p.cost) for p in expected]
                assert all(a.structurally_equal(e) for a, e in zip(actual, expected))
