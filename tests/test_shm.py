"""Tests of the zero-copy shared-memory task fabric and its kernels.

Three layers, mirroring :mod:`repro.dist.shm`'s contract:

* **Codec fidelity** — the packed-binary :class:`SubsetEffects` codec
  round-trips float64 values *exactly* — NaN and ±inf included — in memory
  and through the task cache's binary tier, one shared property test for
  both, and the decoder rejects foreign/truncated payloads as cache misses.
* **Kernel equivalence** — the one insertion kernel's batch sweep
  (:func:`repro.pareto.engine.insert_batch`) and the driver's batched
  replay (:meth:`ArenaPlanCache.replay_accept_batch`) are
  decision-identical to a scalar oracle, one row at a time through
  :func:`~repro.pareto.engine.entry_covered` and
  :func:`~repro.pareto.engine.entry_append`, property-tested over random
  batches, α values (α = 1 included), and non-finite costs; a 20,000-row
  α = 1 batch matches it under a bounded ``tracemalloc`` peak.
* **Fabric lifecycle** — publish → attach → refresh → unlink: segments
  grow under generation-bumped names, close() is idempotent, runs leak no
  ``/dev/shm`` segments (worker death included), and the thread fallback
  (``ShmTaskFabric.create`` declining) is bit-identical to the fabric path.
"""

import json
import math
import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dp import (
    EFFECTS_BYTES_FORMAT,
    ArenaDPOptimizer,
    SubsetEffects,
    accepted_dtype,
    pack_batches,
)
from repro.core.plan_cache import ArenaPlanCache
from repro.cost.batch import BatchCostModel, CandidateBatch
from repro.cost.model import MultiObjectiveCostModel
from repro.dist.cache import TaskCache
from repro.dist.shm import ShmTaskFabric
from repro.pareto.engine import (
    FrontierEntry,
    entry_append,
    entry_covered,
    insert_batch,
)
from repro.query.generator import QueryGenerator
from repro.query.join_graph import GraphShape

#: Per-level pruning factors exercised by the equivalence properties —
#: exact dominance, the α > 1 domain, and the engine's inf cap.
ALPHAS = (1.0, 1.01, 1.5, 2.0, 1e12)

#: Cost components, biased toward collisions (which drive evictions) and
#: including every non-finite value the engines must agree on.
_COST_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0, 10.0]),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)


def _key(values):
    """NaN-safe exact snapshot of a float vector (NaN == NaN)."""
    return tuple("nan" if math.isnan(v) else v for v in values)


def _rows_strategy(count, num_metrics):
    return st.lists(
        st.lists(_COST_VALUES, min_size=num_metrics, max_size=num_metrics),
        min_size=count,
        max_size=count,
    )


def _batch_from(costs, tags):
    size = costs.shape[0]
    return CandidateBatch(
        costs=costs,
        cardinalities=np.ones(size, dtype=np.float64),
        op_codes=np.zeros(size, dtype=np.int64),
        tags=tags,
        outer_pos=np.zeros(size, dtype=np.int64),
        inner_pos=np.zeros(size, dtype=np.int64),
    )


@st.composite
def _insert_case(draw):
    """A seed batch (builds frontier state) plus a batch under test."""
    num_metrics = draw(st.integers(min_value=1, max_value=3))
    seed_size = draw(st.integers(min_value=0, max_value=10))
    batch_size = draw(st.integers(min_value=0, max_value=25))
    tag_pool = draw(st.integers(min_value=1, max_value=3))

    def build(count):
        costs = np.asarray(
            draw(_rows_strategy(count, num_metrics)), dtype=np.float64
        ).reshape(count, num_metrics)
        tags = np.asarray(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=tag_pool - 1),
                    min_size=count,
                    max_size=count,
                )
            ),
            dtype=np.int64,
        )
        return _batch_from(costs, tags)

    alpha = draw(st.sampled_from(ALPHAS))
    return num_metrics, build(seed_size), build(batch_size), alpha


def _entry_state(entry):
    return (
        list(entry.handles),
        list(entry.tags),
        [_key(row) for row in entry.rows],
    )


def _insert_scalar(entry, batch, alpha, realize):
    """Scalar oracle of the insertion kernel: one row at a time, in order."""
    accepted = []
    for position in range(batch.size):
        row = batch.costs[position]
        tag = int(batch.tags[position])
        if entry_covered(entry, tag, row, alpha):
            continue
        entry_append(entry, realize(position), tag, row)
        accepted.append(position)
    return len(accepted), accepted


def _seeded_entries(num_metrics, seed_batch, alpha):
    """Reference and candidate entries holding the same seeded frontier."""
    entries = (FrontierEntry(num_metrics), FrontierEntry(num_metrics))
    for entry in entries:
        _insert_scalar(entry, seed_batch, alpha, lambda position: -100 - position)
    return entries


# ---------------------------------------------------------------------------
# Kernel equivalence: the insertion kernel == the scalar oracle
# ---------------------------------------------------------------------------
class TestInsertBatchApprox:
    """The vectorized per-accepted-row sweep vs the scalar oracle."""

    @given(case=_insert_case())
    @settings(max_examples=200, deadline=None)
    def test_decisions_and_frontier_bit_identical(self, case):
        num_metrics, seed_batch, batch, alpha = case
        reference, candidate = _seeded_entries(num_metrics, seed_batch, alpha)
        if batch.size == 0:
            return
        expected = _insert_scalar(
            reference, batch, alpha, lambda position: 1000 + position
        )
        actual = insert_batch(
            candidate, batch.costs, batch.tags, alpha, lambda position: 1000 + position
        )
        assert actual == expected
        assert _entry_state(candidate) == _entry_state(reference)

    def test_empty_frontier_all_dominated_batch(self):
        # Lone-survivor and zero-survivor fast paths.
        entry = FrontierEntry(2)
        batch = _batch_from(
            np.asarray([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
            np.zeros(3, dtype=np.int64),
        )
        count, positions = insert_batch(
            entry, batch.costs, batch.tags, 2.0, lambda position: position
        )
        reference = FrontierEntry(2)
        expected_count, expected_positions = _insert_scalar(
            reference, batch, 2.0, lambda position: position
        )
        assert (count, positions) == (expected_count, expected_positions)
        assert _entry_state(entry) == _entry_state(reference)


class TestInsertBatchDispatch:
    """``insert_batch`` at small and mid-sized batches, two tags."""

    @pytest.mark.parametrize("size", [1, 7, 8, 24])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_oracle(self, size, data):
        num_metrics = data.draw(st.integers(min_value=1, max_value=3))
        alpha = data.draw(st.sampled_from(ALPHAS))
        batches = []
        for count in (data.draw(st.integers(min_value=0, max_value=10)), size):
            costs = np.asarray(
                data.draw(_rows_strategy(count, num_metrics)), dtype=np.float64
            ).reshape(count, num_metrics)
            tags = np.asarray(
                data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=1),
                        min_size=count,
                        max_size=count,
                    )
                ),
                dtype=np.int64,
            )
            batches.append(_batch_from(costs, tags))
        seed_batch, batch = batches
        reference, candidate = _seeded_entries(num_metrics, seed_batch, alpha)
        expected = _insert_scalar(
            reference, batch, alpha, lambda position: 1000 + position
        )
        actual = insert_batch(
            candidate, batch.costs, batch.tags, alpha, lambda position: 1000 + position
        )
        assert actual == expected
        assert _entry_state(candidate) == _entry_state(reference)


class TestLargeExactBatch:
    """One 20,000-row α = 1 batch: scalar decisions in bounded memory.

    Cross products of two exact (α = 1) frontiers reach tens of thousands
    of rows in RMQ's converged regime; pairwise (batch × batch) dominance
    matrices would need hundreds of MiB here, the sweep a few.
    """

    BATCH_ROWS = 20_000
    #: Bound on the kernel's traced peak (the batch's own arrays excluded).
    PEAK_LIMIT = 32 * 1024 * 1024

    def _batch(self):
        rng = np.random.default_rng(20160626)
        # Uniform rows on a coarse grid: duplicates and ties, and a frontier
        # of tens of rows per tag, as RMQ's large batches leave.
        costs = np.floor(rng.random((self.BATCH_ROWS, 3)) * 1000.0)
        tags = rng.integers(0, 2, self.BATCH_ROWS).astype(np.int64)
        return _batch_from(costs, tags)

    @pytest.mark.parametrize("seed_rows", [0, 6])
    def test_matches_scalar_oracle_under_memory_bound(self, seed_rows):
        import tracemalloc

        batch = self._batch()
        seed = _batch_from(
            np.asarray([[100.0 * k, 500.0 - 100.0 * k, 50.0] for k in range(seed_rows)])
            .reshape(seed_rows, 3),
            (np.arange(seed_rows) % 2).astype(np.int64),
        )
        reference, candidate = _seeded_entries(3, seed, 1.0)
        expected = _insert_scalar(
            reference, batch, 1.0, lambda position: 1000 + position
        )
        tracemalloc.start()
        try:
            actual = insert_batch(
                candidate, batch.costs, batch.tags, 1.0, lambda position: 1000 + position
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert actual == expected
        assert _entry_state(candidate) == _entry_state(reference)
        assert peak < self.PEAK_LIMIT, f"traced peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# Batched replay: replay_accept_batch == repeated replay_accept
# ---------------------------------------------------------------------------
class _FakeArena:
    """Just enough arena for ArenaPlanCache's replay path (rel lookup)."""

    def __init__(self, rel):
        self._rel = rel

    def rel(self, handle):
        return self._rel


class _FakeModel:
    def __init__(self, num_metrics, rel):
        self.arena = _FakeArena(rel)
        self.num_metrics = num_metrics


class TestReplayAcceptBatch:
    @given(
        num_metrics=st.integers(min_value=1, max_value=3),
        pre_count=st.integers(min_value=0, max_value=6),
        count=st.integers(min_value=0, max_value=12),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_sequential_replay(self, num_metrics, pre_count, count, data):
        rel = frozenset({0, 1})
        rows = np.asarray(
            data.draw(_rows_strategy(pre_count + count, num_metrics)),
            dtype=np.float64,
        ).reshape(pre_count + count, num_metrics)
        tags = np.asarray(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=2),
                    min_size=pre_count + count,
                    max_size=pre_count + count,
                )
            ),
            dtype=np.int64,
        )
        reference = ArenaPlanCache(_FakeModel(num_metrics, rel))
        candidate = ArenaPlanCache(_FakeModel(num_metrics, rel))
        for index in range(pre_count):
            for cache in (reference, candidate):
                cache.replay_accept(
                    index, tag=int(tags[index]), row=rows[index]
                )
        handles = list(range(100, 100 + count))
        for offset in range(count):
            index = pre_count + offset
            reference.replay_accept(
                handles[offset], tag=int(tags[index]), row=rows[index]
            )
        candidate.replay_accept_batch(
            rel, handles, tags[pre_count:], rows[pre_count:]
        )
        if pre_count + count == 0:
            assert rel not in candidate and rel not in reference
            return
        assert _entry_state(candidate._entries[rel]) == _entry_state(
            reference._entries[rel]
        )

    def test_empty_batch_is_a_no_op(self):
        rel = frozenset({0})
        cache = ArenaPlanCache(_FakeModel(2, rel))
        cache.replay_accept_batch(
            rel, [], np.empty(0, dtype=np.int64), np.empty((0, 2))
        )
        assert rel not in cache


# ---------------------------------------------------------------------------
# Codec fidelity: in memory and through the task cache, one shared property
# ---------------------------------------------------------------------------
def _pack(per_split, num_metrics):
    """SubsetEffects from ``(count, [(outer, inner, op, card, cost)])`` splits."""
    dtype = accepted_dtype(num_metrics)
    records = [
        (index, outer, inner, op, card, cost)
        for index, (_, accepted) in enumerate(per_split)
        for outer, inner, op, card, cost in accepted
    ]
    return SubsetEffects(
        np.asarray([count for count, _ in per_split], dtype="<i8"),
        np.array(records, dtype=dtype),
    )


def _unpack(effects):
    """The inverse of :func:`_pack`."""
    per_split = []
    for index in range(effects.num_splits):
        count, records = effects.split(index)
        accepted = [
            (
                int(record["outer"]),
                int(record["inner"]),
                int(record["op"]),
                float(record["card"]),
                tuple(float(value) for value in record["cost"]),
            )
            for record in records
        ]
        per_split.append((count, accepted))
    return per_split


def _roundtrip_binary(per_split, num_metrics):
    packed = _pack(per_split, num_metrics)
    return _unpack(SubsetEffects.from_bytes(packed.to_bytes(), num_metrics))


def _roundtrip_cache(per_split, num_metrics):
    # The disk hop of the coordinator backend's task cache (.bin tier).
    packed = _pack(per_split, num_metrics)
    with tempfile.TemporaryDirectory() as root:
        cache = TaskCache(root)
        key = "ab" + "0" * 62
        cache.put_raw_bytes(key, packed.to_bytes())
        payload = cache.get_raw_bytes(key)
    return _unpack(SubsetEffects.from_bytes(payload, num_metrics))


def _normalize(per_split):
    return [
        (
            count,
            [
                (outer, inner, op, _key((card,)), _key(cost))
                for outer, inner, op, card, cost in accepted
            ],
        )
        for count, accepted in per_split
    ]


@st.composite
def _split_effects(draw):
    num_metrics = draw(st.integers(min_value=1, max_value=3))
    splits = draw(st.integers(min_value=0, max_value=5))
    per_split = []
    for _ in range(splits):
        accepted_count = draw(st.integers(min_value=0, max_value=4))
        accepted = [
            (
                draw(st.integers(min_value=0, max_value=50)),
                draw(st.integers(min_value=0, max_value=50)),
                draw(st.integers(min_value=0, max_value=10)),
                draw(_COST_VALUES),
                tuple(draw(_rows_strategy(1, num_metrics))[0]),
            )
            for _ in range(accepted_count)
        ]
        per_split.append((draw(st.integers(min_value=0, max_value=200)), accepted))
    return num_metrics, per_split


class TestEffectsCodecs:
    """The packed codec must round-trip float64 exactly, specials included."""

    @pytest.mark.parametrize(
        "roundtrip", [_roundtrip_binary, _roundtrip_cache], ids=["binary", "cache"]
    )
    @given(case=_split_effects())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_exact(self, roundtrip, case):
        num_metrics, per_split = case
        assert _normalize(roundtrip(per_split, num_metrics)) == _normalize(
            per_split
        )

    def test_specials_survive_both_codecs(self):
        per_split = [
            (
                7,
                [
                    (0, 1, 2, float("nan"), (float("inf"), float("-inf"))),
                    (3, 4, 5, 0.1 + 0.2, (1e-323, 1.7976931348623157e308)),
                ],
            ),
            (0, []),
        ]
        for roundtrip in (_roundtrip_binary, _roundtrip_cache):
            assert _normalize(roundtrip(per_split, 2)) == _normalize(per_split)

    def test_from_bytes_rejects_foreign_payloads(self):
        packed = _pack([(3, [(0, 0, 0, 1.0, (1.0, 2.0))])], 2)
        data = packed.to_bytes()
        with pytest.raises(ValueError):
            SubsetEffects.from_bytes(b"no header newline", 2)
        with pytest.raises(ValueError):
            SubsetEffects.from_bytes(b"not json\n" + data, 2)
        with pytest.raises(ValueError):  # num_metrics mismatch
            SubsetEffects.from_bytes(data, 3)
        with pytest.raises(ValueError):  # truncated body
            SubsetEffects.from_bytes(data[:-1], 2)
        header = json.loads(data[: data.find(b"\n")])
        header["format"] = "someone-elses-format"
        forged = json.dumps(header, sort_keys=True).encode("ascii")
        with pytest.raises(ValueError):
            SubsetEffects.from_bytes(
                forged + data[data.find(b"\n") :], 2
            )
        assert header.pop("format") == "someone-elses-format"
        assert EFFECTS_BYTES_FORMAT == "repro-dp-effects-v1"

    def test_binary_cache_tier_roundtrip(self, tmp_path):
        cache = TaskCache(str(tmp_path / "cache"))
        packed = _pack([(2, [(0, 1, 2, float("nan"), (float("inf"), 0.5))])], 2)
        key = "ab" + "0" * 62
        cache.put_raw_bytes(key, packed.to_bytes())
        payload = cache.get_raw_bytes(key)
        assert payload is not None
        decoded = SubsetEffects.from_bytes(payload, 2)
        assert _normalize(_unpack(decoded)) == _normalize(_unpack(packed))
        assert cache.get_raw_bytes("cd" + "1" * 62) is None
        assert cache.stats["hits"] == 1
        assert cache.stats["misses"] == 1


# ---------------------------------------------------------------------------
# SubsetEffects packing and the frontier simulator
# ---------------------------------------------------------------------------
def _scalar_accepts(batches, num_metrics, alpha):
    """Independent scalar reference of pack_batches' accept decisions."""
    entry = FrontierEntry(num_metrics)
    return [
        _insert_scalar(entry, batch, alpha, lambda position: object())[1]
        for batch in batches
    ]


class TestPackBatches:
    @given(
        num_metrics=st.integers(min_value=1, max_value=3),
        alpha=st.sampled_from(ALPHAS),
        data=st.data(),
    )
    @settings(max_examples=75, deadline=None)
    def test_matches_scalar_reference(self, num_metrics, alpha, data):
        batches = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            count = data.draw(st.integers(min_value=0, max_value=12))
            costs = np.asarray(
                data.draw(_rows_strategy(count, num_metrics)), dtype=np.float64
            ).reshape(count, num_metrics)
            tags = np.asarray(
                data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=1),
                        min_size=count,
                        max_size=count,
                    )
                ),
                dtype=np.int64,
            )
            batches.append(_batch_from(costs, tags))
        packed = pack_batches(batches, num_metrics, alpha)
        expected = _scalar_accepts(batches, num_metrics, alpha)
        assert packed.num_splits == len(batches)
        for index, batch in enumerate(batches):
            count, records = packed.split(index)
            assert count == batch.size
            assert records["split"].tolist() == [index] * len(records)
            positions = expected[index]
            assert len(records) == len(positions)
            for record, position in zip(records, positions):
                assert int(record["outer"]) == int(batch.outer_pos[position])
                assert int(record["inner"]) == int(batch.inner_pos[position])
                assert int(record["op"]) == int(batch.op_codes[position])
                assert _key((float(record["card"]),)) == _key(
                    (float(batch.cardinalities[position]),)
                )
                assert _key(record["cost"]) == _key(batch.costs[position])

    def test_accepted_dtype_is_stable_and_unpadded(self):
        dtype = accepted_dtype(3)
        assert dtype.itemsize == 4 * 4 + 8 + 8 * 3
        assert accepted_dtype(3) is dtype  # memoized
        names = dtype.names
        assert names == ("split", "outer", "inner", "op", "card", "cost")


# ---------------------------------------------------------------------------
# Fabric lifecycle: publish -> attach -> refresh -> unlink
# ---------------------------------------------------------------------------
def _shm_segments():
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-tmpfs platforms
        return set()
    return {name for name in os.listdir(root) if name.startswith("rdp")}


def _run_to_completion(optimizer, watch=None):
    names = set()
    while not optimizer.finished:
        optimizer.step()
        if watch is not None and watch._fabric is not None:
            names.update(watch._fabric.segment_names)
    return names


def _table_state(optimizer):
    return {
        tuple(sorted(rel)): [
            (_key(p.cost), p.output_format, _key((p.cardinality,)))
            for p in optimizer.plan_cache.plans(rel)
        ]
        for rel in optimizer.plan_cache.table_sets()
    }


def _decline_fabric(monkeypatch):
    """Force the coordinator backend onto its in-process thread fallback."""
    monkeypatch.setattr(
        ShmTaskFabric, "create", classmethod(lambda cls, *args, **kwargs: None)
    )


class TestFabricLifecycle:
    def test_declines_beyond_62_tables(self):
        query = QueryGenerator(rng=random.Random(7)).generate(63, GraphShape.CHAIN)
        batch_model = BatchCostModel(
            MultiObjectiveCostModel(query, metrics=("time",))
        )
        assert ShmTaskFabric.create(batch_model, 2) is None

    def test_segment_growth_bumps_generation(self, chain_model):
        fabric = ShmTaskFabric.create(BatchCostModel(chain_model), 1)
        if fabric is None:
            pytest.skip("platform cannot run the shm fabric")
        try:
            before = _shm_segments()
            fabric._write("op", 0, np.arange(10, dtype=np.int32), 10)
            first = fabric._segments["op"]
            first_name = first.name
            assert first.gen == 1
            assert first_name in _shm_segments()
            # Growing past capacity renames the segment (generation bump)
            # and unlinks the old one; the preserved prefix is copied.
            fabric._published_nodes = 10
            fabric._write(
                "op", 10, np.arange(5000, dtype=np.int32), 5010
            )
            second = fabric._segments["op"]
            assert second.gen == 2
            assert second.name != first_name
            live = _shm_segments()
            assert first_name not in live
            assert second.name in live
        finally:
            fabric.close()
        after = _shm_segments()
        assert not (after - before), "fabric leaked shared-memory segments"
        assert fabric.closed
        fabric.close()  # idempotent
        with pytest.raises(RuntimeError):
            fabric.flush()

    def test_reduce_requires_flush(self, chain_model):
        fabric = ShmTaskFabric.create(BatchCostModel(chain_model), 1)
        if fabric is None:
            pytest.skip("platform cannot run the shm fabric")
        try:
            with pytest.raises(RuntimeError, match="flush"):
                fabric.reduce_shard((3,), 1.01)
        finally:
            fabric.close()

    def test_full_run_unlinks_every_segment(self, chain_model):
        before = _shm_segments()
        optimizer = ArenaDPOptimizer(
            chain_model, alpha=2.0, backend="coordinator", workers=2
        )
        if optimizer._fabric is None:
            pytest.skip("platform cannot run the shm fabric")
        used = _run_to_completion(optimizer, watch=optimizer)
        assert used, "the run never published a segment"
        # Finishing the DP closes the fabric (pool down, segments unlinked).
        assert optimizer._fabric is None
        after = _shm_segments()
        assert not (used & after), f"leaked segments: {sorted(used & after)}"
        assert not (after - before)

    def test_worker_death_mid_level_leaks_nothing(self, chain_model):
        sequential = ArenaDPOptimizer(chain_model, alpha=1.01, tasks_per_step=50)
        _run_to_completion(sequential)

        deaths = []

        def killer(lease):
            if lease.worker_id == "dp-worker-0" and not deaths:
                deaths.append(lease.lease_id)
                raise RuntimeError("injected worker death")

        before = _shm_segments()
        coordinated = ArenaDPOptimizer(
            chain_model,
            alpha=1.01,
            tasks_per_step=50,
            backend="coordinator",
            workers=3,
            lease_timeout=0.2,
            on_lease=killer,
        )
        if coordinated._fabric is None:
            pytest.skip("platform cannot run the shm fabric")
        used = _run_to_completion(coordinated, watch=coordinated)
        assert deaths, "the fault-injection hook never fired"
        # The reassigned lease's replacement worker attached to the
        # already-published level and produced bit-identical state.
        assert _table_state(coordinated) == _table_state(sequential)
        after = _shm_segments()
        assert not (used & after), f"leaked segments: {sorted(used & after)}"
        assert not (after - before)

    def test_explicit_close_is_idempotent(self, chain_model):
        optimizer = ArenaDPOptimizer(
            chain_model, alpha=2.0, backend="coordinator", workers=1
        )
        fabric = optimizer._fabric
        if fabric is None:
            pytest.skip("platform cannot run the shm fabric")
        optimizer.step()
        optimizer.close()
        assert fabric.closed
        assert optimizer._fabric is None
        optimizer.close()  # idempotent
        assert not set(fabric.segment_names) & _shm_segments()

    def test_threads_fallback_bit_identical(self, chain_model, monkeypatch):
        _decline_fabric(monkeypatch)
        fallback = ArenaDPOptimizer(
            chain_model, alpha=1.01, backend="coordinator", workers=2
        )
        assert fallback._fabric is None
        sequential = ArenaDPOptimizer(chain_model, alpha=1.01)
        _run_to_completion(fallback)
        _run_to_completion(sequential)
        assert _table_state(fallback) == _table_state(sequential)
        assert (
            fallback.statistics.plans_built == sequential.statistics.plans_built
        )
