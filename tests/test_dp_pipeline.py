"""Tests of the DP's one reduction pipeline and its shared pieces.

* **One cross-product kernel** — a single ``join_candidates_multi`` call
  over many splits equals the per-split ``join_candidates`` calls, bit for
  bit, empty frontiers included.
* **Frontier counters** — the ``frontier.*`` counter deltas of a DP run
  equal the object oracle's on every backend: the replay counts exactly
  what one-by-one insertion counts.
* **Per-subset reduction** — the sequential backend reduces a subset when
  a step first enters it, never a whole level per step.
* **Argument checks** — coordinator-only arguments are rejected under the
  sequential backend instead of being ignored.
* **Import cost** — ``import repro`` does not load :mod:`repro.dist`.
"""

import itertools
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines.dp as dp_module
from oracle.dp import DPOptimizer
from repro.baselines.dp import ArenaDPOptimizer, left_bits_of
from repro.cost.batch import BatchCostModel
from repro.cost.model import MultiObjectiveCostModel
from repro.dist.cache import TaskCache
from repro.dist.shm import ShmTaskFabric
from repro.obs import global_metrics
from repro.plans.operators import OperatorLibrary
from repro.query.generator import QueryGenerator
from repro.query.join_graph import GraphShape, JoinGraph
from repro.query.query import Query
from repro.query.table import Table

LIBRARIES = {
    "minimal": OperatorLibrary.minimal,
    "default": OperatorLibrary.default,
    "cloud": OperatorLibrary.cloud,
}

FRONTIER_COUNTERS = (
    "frontier.candidates",
    "frontier.accepted",
    "frontier.rejected",
    "frontier.evicted",
)


def _model(cardinalities, edges, metrics=("time", "buffer", "disk"), library="default"):
    tables = [
        Table(index=i, name=f"t{i}", cardinality=float(card))
        for i, card in enumerate(cardinalities)
    ]
    graph = JoinGraph(len(tables))
    for a, b, selectivity in edges:
        graph.add_edge(a, b, selectivity)
    query = Query(tables, graph, name="dp_pipeline_test")
    return MultiObjectiveCostModel(query, metrics=metrics, library=LIBRARIES[library]())


def _bits(tables):
    bits = 0
    for table in tables:
        bits |= 1 << table
    return bits


# ---------------------------------------------------------------------------
# One cross-product kernel for many splits
# ---------------------------------------------------------------------------
_FRONTIER_STATES = {}


def _frontier_state(seed, num_tables, library, nan_table):
    """A DP table whose subsets of up to three tables hold frontiers."""
    key = (seed, num_tables, library, nan_table)
    state = _FRONTIER_STATES.get(key)
    if state is None:
        rng = random.Random(seed)
        cardinalities = [10.0 ** rng.uniform(0.0, 6.0) for _ in range(num_tables)]
        if nan_table:
            cardinalities[0] = float("nan")
        edges = [
            (table, table + 1, rng.uniform(1e-4, 1.0))
            for table in range(num_tables - 1)
        ]
        # One step runs exactly the splits of the two- and three-table subsets.
        splits = sum(
            math.comb(num_tables, size) * (2**size - 2) for size in (2, 3)
        )
        state = ArenaDPOptimizer(
            _model(cardinalities, edges, library=library),
            alpha=rng.choice((1.0, 1.01, 2.0)),
            tasks_per_step=splits,
        )
        state.step()
        _FRONTIER_STATES[key] = state
    return state


@st.composite
def _multi_case(draw):
    num_tables = draw(st.integers(min_value=3, max_value=8))
    optimizer = _frontier_state(
        draw(st.integers(min_value=0, max_value=5)),
        num_tables,
        draw(st.sampled_from(sorted(LIBRARIES))),
        draw(st.booleans()),
    )
    cache = optimizer.plan_cache
    table_sets = sorted(cache.table_sets(), key=sorted)
    # Only a proper subset of the query leaves tables for a right side.
    lefts = [rel for rel in table_sets if len(rel) < num_tables]
    splits = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        left = draw(st.sampled_from(lefts))
        disjoint = [rel for rel in table_sets if not rel & left]
        right = draw(st.sampled_from(disjoint))
        sides = []
        for rel in (left, right):
            handles = cache.handles(rel)
            # A sub-frontier in frontier order; sometimes empty.
            keep = draw(
                st.lists(st.booleans(), min_size=len(handles), max_size=len(handles))
            )
            sides.append([h for h, kept in zip(handles, keep) if kept])
        splits.append((sides[0], sides[1], _bits(left), _bits(right)))
    return optimizer.batch_model, splits


def _assert_batches_equal(actual, expected):
    assert actual.size == expected.size
    for field in ("costs", "cardinalities", "op_codes", "tags", "outer_pos", "inner_pos"):
        left = getattr(actual, field)
        right = getattr(expected, field)
        assert left.dtype == right.dtype, field
        assert left.shape == right.shape, field
        np.testing.assert_array_equal(left, right, err_msg=field)


class TestJoinCandidatesMulti:
    @given(case=_multi_case())
    @settings(max_examples=60, deadline=None)
    def test_one_call_equals_per_split_calls(self, case):
        batch_model, splits = case
        batches = batch_model.join_candidates_multi(splits)
        assert len(batches) == len(splits)
        for batch, (outer, inner, _, _) in zip(batches, splits):
            _assert_batches_equal(batch, batch_model.join_candidates([(outer, inner)]))

    def test_join_candidates_rejects_mixed_table_sets(self, chain_model):
        batch_model = BatchCostModel(chain_model)
        scans = [batch_model.make_scan(table, 0) for table in range(3)]
        with pytest.raises(ValueError, match="outer handles"):
            batch_model.join_candidates([([scans[0], scans[1]], [scans[2]])])
        with pytest.raises(ValueError, match="inner handles"):
            batch_model.join_candidates([([scans[2]], [scans[0], scans[1]])])


# ---------------------------------------------------------------------------
# Frontier counters: the replay counts what one-by-one insertion counts
# ---------------------------------------------------------------------------
def _counter_deltas(build):
    metrics = global_metrics()
    before = {name: metrics.counter(name) for name in FRONTIER_COUNTERS}
    optimizer = build()
    while not optimizer.finished:
        optimizer.step()
    return {name: metrics.counter(name) - before[name] for name in FRONTIER_COUNTERS}


def _counter_model(case):
    if case == "nan":
        # NaN costs are never dominated, so frontiers keep every candidate:
        # a small query on one metric keeps the object oracle quick.
        return _model(
            [float("nan"), 100.0, 10.0, 1000.0],
            [(0, 1, 0.5), (1, 2, 0.25), (2, 3, 0.1)],
            metrics=("time",),
            library="minimal",
        )
    return MultiObjectiveCostModel(
        QueryGenerator(rng=random.Random(11)).generate(5, GraphShape.CHAIN),
        metrics=("time", "buffer", "disk"),
    )


class TestFrontierCounters:
    @pytest.mark.parametrize(
        "case, alpha",
        [("chain", 1.01), ("chain", 2.0), ("chain", float("inf")), ("nan", 1.01)],
    )
    def test_counter_deltas_match_the_object_engine(self, case, alpha, monkeypatch):
        model = _counter_model(case)
        expected = _counter_deltas(lambda: DPOptimizer(model, alpha=alpha))
        assert expected["frontier.candidates"] > expected["frontier.accepted"] > 0

        def arena(**kwargs):
            return lambda: ArenaDPOptimizer(model, alpha=alpha, **kwargs)

        assert _counter_deltas(arena()) == expected
        assert _counter_deltas(arena(backend="coordinator", workers=2)) == expected
        monkeypatch.setattr(
            ShmTaskFabric, "create", classmethod(lambda cls, *args, **kwargs: None)
        )
        assert _counter_deltas(arena(backend="coordinator", workers=2)) == expected


# ---------------------------------------------------------------------------
# The sequential backend reduces per subset, not per level
# ---------------------------------------------------------------------------
class TestSequentialReduction:
    def test_each_step_reduces_only_the_subsets_it_enters(self, monkeypatch):
        model = MultiObjectiveCostModel(
            QueryGenerator(rng=random.Random(5)).generate(25, GraphShape.CHAIN),
            metrics=("time", "buffer"),
        )
        optimizer = ArenaDPOptimizer(model, alpha=2.0)
        reduced = []
        original = dp_module.reduce_subset

        def spy(batch_model, handles_of, bits, lefts, level_alpha):
            reduced.append(bits)
            return original(batch_model, handles_of, bits, lefts, level_alpha)

        monkeypatch.setattr(dp_module, "reduce_subset", spy)
        cache = optimizer.plan_cache
        while True:
            present = len(cache.table_sets())
            start = len(reduced)
            optimizer.step()
            step_reduced = reduced[start:]
            # DP entries are only ever added, in the order steps enter them:
            # the step reduced every subset its chunk entered, and no other.
            entered = [_bits(rel) for rel in cache.table_sets()[present:]]
            assert step_reduced == entered
            assert 0 < len(step_reduced) <= optimizer._tasks_per_step
            if any(bin(bits).count("1") == 4 for bits in step_reduced):
                break
        sizes = [bin(bits).count("1") for bits in reduced]
        assert len(set(reduced)) == len(reduced)
        assert sizes.count(2) == math.comb(25, 2)
        assert sizes.count(3) == math.comb(25, 3)
        assert sizes.count(4) < math.comb(25, 4)


class TestSplitEnumeration:
    @pytest.mark.parametrize(
        "subset", [(0, 1), (0, 2, 5, 9), (3, 4, 7, 8, 10), (1, 40, 61), (2, 61, 62, 70)]
    )
    def test_left_bits_follow_the_object_engine_order(self, subset):
        # The scalar order is ``for size: combinations(subset, size)``;
        # subsets reaching past table 61 take the Python-int path.
        expected = [
            _bits(left)
            for size in range(1, len(subset))
            for left in itertools.combinations(subset, size)
        ]
        assert left_bits_of(subset) == expected


# ---------------------------------------------------------------------------
# Coordinator-only arguments under the sequential backend
# ---------------------------------------------------------------------------
def _assert_rejected(model, name, **kwargs):
    with pytest.raises(ValueError, match=name):
        ArenaDPOptimizer(model, **kwargs)


class TestSequentialArguments:
    def test_workers_rejected(self, chain_model):
        _assert_rejected(chain_model, "workers", workers=4)

    def test_task_cache_rejected(self, chain_model, tmp_path):
        _assert_rejected(
            chain_model, "task_cache", task_cache=TaskCache(str(tmp_path / "cache"))
        )

    def test_on_lease_rejected(self, chain_model):
        _assert_rejected(chain_model, "on_lease", on_lease=lambda lease: None)


# ---------------------------------------------------------------------------
# Import cost
# ---------------------------------------------------------------------------
def test_import_repro_does_not_load_dist():
    source = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, repro\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.dist'))\n"
        "assert not loaded, loaded\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        cwd=str(source),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
