"""DP(α) — dynamic-programming approximation schemes.

The paper compares against the approximation schemes of its predecessor
(Trummer & Koch, SIGMOD 2014): bottom-up dynamic programming over table
subsets where, for every subset, an α-approximate Pareto set of partial plans
is kept instead of the full Pareto set.  Choosing a large α makes the scheme
fast but imprecise (``DP(Infinity)`` keeps a single plan per subset and
output format); α close to one approaches the exhaustive multi-objective DP.

To honour the *overall* approximation guarantee, the per-subset pruning
factor is ``α^(1/(n-1))`` (errors compound once per join level, and a plan
for ``n`` tables has ``n - 1`` joins), following the approach of the
original approximation scheme.

Subsets are int bitsets, the (left, right) splits of a subset are
enumerated as NumPy index arrays, and one reduction pipeline
(:func:`reduce_subset`) costs all of a subset's candidate joins (cross
products of the cached sub-frontiers × applicable operators) in one
:meth:`~repro.cost.batch.BatchCostModel.join_candidates_multi` call, decides
them through the plan cache's insertion kernel on a
:class:`~repro.core.plan_cache.FrontierSimulator`, and packs the accepted
rows as :class:`SubsetEffects`, which ``step()`` replays.  The
``backend="coordinator"`` path runs the same reducer for a whole subset
level across lease-based workers (see :mod:`repro.dist.dp`); frontiers,
statistics and step boundaries do not depend on the backend, the worker
count, worker death or the task-cache state (``tests/test_dp_arena.py``).

The optimizer is anytime in the weak sense of the paper's evaluation:
``step()`` processes a bounded batch of subset-combination tasks, but
:meth:`frontier` stays empty until the full table set has been processed —
exactly how the DP baselines behave in Figures 1–7, where they produce no
result for larger queries within the time budget.
"""

from __future__ import annotations

import json
import weakref
from itertools import combinations
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.interface import AnytimeOptimizer
from repro.core.plan_cache import ArenaPlanCache, FrontierSimulator, record_insertions
from repro.cost.batch import BatchCostModel, CandidateBatch
from repro.cost.model import MultiObjectiveCostModel
from repro.obs import get_tracer, global_metrics
from repro.plans.plan import Plan

if TYPE_CHECKING:  # pragma: no cover - imports for type checking only
    from repro.dist.cache import TaskCache
    from repro.dist.dp import DPLease

#: Cap used in place of an infinite approximation factor so that arithmetic
#: with zero-valued cost components stays well defined.
_ALPHA_CAP = 1e12

#: Execution backends of the DP.
DP_BACKENDS = ("sequential", "coordinator")

#: Subsets holding a table index at or above this enumerate their splits
#: with Python-int bitsets instead of NumPy int64 ones (bit 63 is the sign
#: bit).
_MAX_NUMPY_BITS = 62


def _format_alpha(alpha: float) -> str:
    if alpha == float("inf"):
        return "Infinity"
    if alpha == int(alpha):
        return str(int(alpha))
    return f"{alpha:g}"


def _level_alpha_for(alpha: float, num_tables: int) -> float:
    """Per-join pruning factor whose compounding meets the overall target."""
    if alpha >= _ALPHA_CAP:
        return _ALPHA_CAP
    num_joins = max(1, num_tables - 1)
    return alpha ** (1.0 / num_joins)


def _validate_parameters(alpha: float, tasks_per_step: int) -> None:
    if alpha < 1.0:
        raise ValueError(f"approximation factor must be at least 1, got {alpha}")
    if tasks_per_step < 1:
        raise ValueError("tasks_per_step must be positive")


# ---------------------------------------------------------------------------
# Subset reduction: one pipeline for every backend
# ---------------------------------------------------------------------------
# A subset's reduction costs all of its splits in one cross-product kernel
# call, decides them through the cache's insertion kernel on a private
# FrontierSimulator, and packs the accepted rows; the optimizer then replays
# them chunk by chunk.  The sequential backend reduces in process, the
# coordinator backend on worker threads or fabric processes
# (repro.dist.dp, repro.dist.shm) — only the source of the frontier handles
# differs.

_SPLIT_POSITIONS: Dict[Tuple[int, int], np.ndarray] = {}


def _subset_bits(subset: Sequence[int]) -> int:
    bits = 0
    for t in subset:
        bits |= 1 << t
    return bits


def _split_positions(size: int, left_size: int) -> np.ndarray:
    """Combination-position matrix of ``combinations(range(size), left_size)``."""
    key = (size, left_size)
    positions = _SPLIT_POSITIONS.get(key)
    if positions is None:
        positions = np.fromiter(
            (
                position
                for combination in combinations(range(size), left_size)
                for position in combination
            ),
            dtype=np.int64,
        ).reshape(-1, left_size)
        positions = _SPLIT_POSITIONS.setdefault(key, positions)
    return positions


def left_bits_of(subset: Sequence[int]) -> List[int]:
    """Left-side bitsets of all ordered splits of a subset, in scalar-loop order.

    The scalar order is ``for left_size: for left in combinations(subset,
    left_size)``; gathering the subset's member bits through the cached
    position matrix of ``(size, left_size)`` reproduces exactly that order (``subset`` is ascending, and each row's bits are
    distinct, so the row sum equals the bit OR).  Subsets reaching past
    table 61 use Python-int bitsets, where int64 would overflow.  The split
    index a replay reads is the position in this list, on every backend.
    """
    size = len(subset)
    if size < 2:
        return []
    if subset[-1] < _MAX_NUMPY_BITS:
        member_bits = np.array([1 << t for t in subset], dtype=np.int64)
        parts = [
            member_bits[_split_positions(size, left_size)].sum(axis=1)
            for left_size in range(1, size)
        ]
        return np.concatenate(parts).tolist()
    return [
        _subset_bits(left)
        for left_size in range(1, size)
        for left in combinations(subset, left_size)
    ]


#: Format tag of the packed-bytes encoding of :class:`SubsetEffects`.
EFFECTS_BYTES_FORMAT = "repro-dp-effects-v1"

_ACCEPTED_DTYPES: Dict[int, np.dtype] = {}


def accepted_dtype(num_metrics: int) -> np.dtype:
    """Record dtype of one accepted candidate row.

    Explicitly little-endian and unpadded, so the raw bytes are a stable
    on-disk / cross-process format: ``split`` (index of the split within
    its subset), ``outer`` / ``inner`` (frontier positions), ``op``
    (operator code), ``card`` (output cardinality), ``cost``
    (``num_metrics`` float64 values, NaN/±inf exact).
    """
    dtype = _ACCEPTED_DTYPES.get(num_metrics)
    if dtype is None:
        dtype = np.dtype(
            [
                ("split", "<i4"),
                ("outer", "<i4"),
                ("inner", "<i4"),
                ("op", "<i4"),
                ("card", "<f8"),
                ("cost", "<f8", (num_metrics,)),
            ]
        )
        _ACCEPTED_DTYPES[num_metrics] = dtype
    return dtype


class SubsetEffects:
    """One subset's recorded DP decisions as packed arrays.

    ``counts[s]`` is split ``s``'s candidate count; ``rows`` holds every
    accepted candidate (including ones evicted later within the same
    subset — replay needs them) in acceptance order, split-major, as
    :func:`accepted_dtype` records.  This is what every reducer returns,
    the wire format between fabric workers and the driver, and — via
    :meth:`to_bytes` / :meth:`from_bytes` — the binary ``TaskCache``
    payload.
    """

    __slots__ = ("counts", "rows", "_offsets")

    def __init__(self, counts: np.ndarray, rows: np.ndarray) -> None:
        self.counts = counts
        self.rows = rows
        self._offsets: Optional[np.ndarray] = None

    @property
    def num_splits(self) -> int:
        """Number of splits recorded for the subset."""
        return int(self.counts.shape[0])

    def split(self, index: int) -> Tuple[int, np.ndarray]:
        """``(candidate count, accepted records)`` of one split."""
        if self._offsets is None:
            per_split = np.bincount(
                self.rows["split"], minlength=self.counts.shape[0]
            )
            self._offsets = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(per_split, dtype=np.int64)]
            )
        start = int(self._offsets[index])
        stop = int(self._offsets[index + 1])
        return int(self.counts[index]), self.rows[start:stop]

    def to_bytes(self) -> bytes:
        """Pack into one byte string: JSON header line + raw array bytes.

        Float64 values round-trip exactly — NaN and ±inf included — because
        they are stored as raw IEEE-754 bytes, not decimal text.
        """
        num_metrics = int(self.rows.dtype["cost"].shape[0])
        header = json.dumps(
            {
                "format": EFFECTS_BYTES_FORMAT,
                "num_metrics": num_metrics,
                "splits": int(self.counts.shape[0]),
                "accepted": int(self.rows.shape[0]),
            },
            sort_keys=True,
        ).encode("ascii")
        return (
            header
            + b"\n"
            + np.ascontiguousarray(self.counts, dtype="<i8").tobytes()
            + np.ascontiguousarray(self.rows).tobytes()
        )

    @classmethod
    def from_bytes(cls, data: bytes, num_metrics: int) -> "SubsetEffects":
        """Decode :meth:`to_bytes` output; raises ``ValueError`` on foreign
        or truncated payloads (callers treat that as a cache miss)."""
        newline = data.find(b"\n")
        if newline < 0:
            raise ValueError("missing effects header")
        try:
            header = json.loads(data[:newline])
        except json.JSONDecodeError as exc:
            raise ValueError("corrupt effects header") from exc
        if (
            header.get("format") != EFFECTS_BYTES_FORMAT
            or header.get("num_metrics") != num_metrics
        ):
            raise ValueError("foreign effects payload")
        splits = int(header["splits"])
        accepted = int(header["accepted"])
        dtype = accepted_dtype(num_metrics)
        body = newline + 1
        expected = body + 8 * splits + dtype.itemsize * accepted
        if len(data) != expected:
            raise ValueError("truncated effects payload")
        counts = np.frombuffer(data, dtype="<i8", count=splits, offset=body)
        rows = np.frombuffer(
            data, dtype=dtype, count=accepted, offset=body + 8 * splits
        )
        return cls(counts, rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SubsetEffects(splits={self.num_splits}, "
            f"accepted={int(self.rows.shape[0])})"
        )


def pack_batches(
    batches: Sequence[CandidateBatch], num_metrics: int, level_alpha: float
) -> SubsetEffects:
    """Simulate one subset's frontier over its costed batches; pack results.

    Each batch runs through a private :class:`FrontierSimulator` — the
    cache's own insertion kernel — and the accepted positions are gathered
    into :func:`accepted_dtype` records.
    """
    simulator = FrontierSimulator(num_metrics)
    dtype = accepted_dtype(num_metrics)
    counts = np.empty(len(batches), dtype="<i8")
    chunks: List[np.ndarray] = []
    base = 0
    for index, batch in enumerate(batches):
        positions = simulator.insert_batch(batch, level_alpha, base=base)
        base += batch.size
        counts[index] = batch.size
        if positions:
            gather = np.asarray(positions, dtype=np.int64)
            records = np.empty(gather.shape[0], dtype=dtype)
            records["split"] = index
            records["outer"] = batch.outer_pos[gather]
            records["inner"] = batch.inner_pos[gather]
            records["op"] = batch.op_codes[gather]
            records["card"] = batch.cardinalities[gather]
            records["cost"] = batch.costs[gather]
            chunks.append(records)
    rows = np.concatenate(chunks) if chunks else np.empty(0, dtype=dtype)
    return SubsetEffects(counts, rows)


def reduce_subset(
    batch_model: BatchCostModel,
    handles_of: Callable[[int], np.ndarray],
    bits: int,
    lefts: Sequence[int],
    level_alpha: float,
) -> SubsetEffects:
    """Reduce one subset: cost all splits, simulate pruning, pack decisions.

    ``handles_of(table_bits)`` returns the final frontier handles of a
    strictly smaller subset; ``lefts`` are the subset's split left sides
    (:func:`left_bits_of`).  Nothing shared is written, so the reduction
    can run on any thread or process that can read the frontiers.
    """
    splits = []
    for left_bits in lefts:
        right_bits = bits ^ left_bits
        splits.append(
            (handles_of(left_bits), handles_of(right_bits), left_bits, right_bits)
        )
    batches = batch_model.join_candidates_multi(splits)
    return pack_batches(batches, batch_model.num_metrics, level_alpha)


def _check_backend_arguments(
    backend: str, workers: int, task_cache: object, on_lease: object
) -> None:
    """Reject coordinator-only arguments the sequential backend would ignore."""
    if backend != "sequential":
        return
    for name, given in (
        ("workers", workers != 1),
        ("task_cache", task_cache is not None),
        ("on_lease", on_lease is not None),
    ):
        if given:
            raise ValueError(
                f"{name} applies only to backend='coordinator'; "
                "the sequential backend reduces every subset in process"
            )


class _SubsetCursor:
    """Replay state of one partially processed subset."""

    __slots__ = ("bits", "rel", "lefts", "effects", "index")

    def __init__(
        self, bits: int, rel: FrozenSet[int], lefts: List[int], effects: SubsetEffects
    ) -> None:
        self.bits = bits
        self.rel = rel
        self.lefts = lefts
        self.effects = effects
        self.index = 0


#: One run of a chunk: a subset's cursor, its first split, the split count.
_ChunkRun = Tuple[_SubsetCursor, int, int]


class ArenaDPOptimizer(AnytimeOptimizer):
    """The vectorized subset-lattice DP over the columnar plan arena.

    Subsets are int bitsets (bit ``t`` ⇔ table ``t``); within a subset, the
    left sides of all ordered splits are computed as one NumPy gather over
    cached combination-position matrices (:func:`left_bits_of`).  Each
    subset is reduced once (:func:`reduce_subset`): all of its splits are
    costed in one :meth:`~repro.cost.batch.BatchCostModel.join_candidates_multi`
    call and decided through the cache's insertion kernel at
    ``level_alpha``.  ``step()`` then replays the recorded decisions split
    by split — decision-identical to inserting every candidate one by one,
    at a fraction of the per-candidate cost.

    Parameters
    ----------
    cost_model:
        Cost model / plan factory for the query.
    alpha:
        Overall approximation-factor target (≥ 1); ``float('inf')`` keeps a
        single plan per subset and output format.
    tasks_per_step:
        Number of split tasks processed per :meth:`step` call; bounds the
        work done between anytime checkpoints.
    backend:
        ``"sequential"`` (default) reduces each subset in process when a
        step first enters it; ``"coordinator"`` reduces a whole level's
        subsets as pure leaf tasks across lease-based workers
        (:mod:`repro.dist.dp`) when the level is entered.  Both replay the
        same decisions in canonical order, so results do not depend on the
        backend, the worker count or worker failures.
    workers:
        Worker threads of the coordinator backend.
    task_cache:
        Optional :class:`~repro.dist.cache.TaskCache` holding per-subset DP
        results keyed by provenance hash (coordinator backend only); a warm
        cache replays a level without computing anything.
    lease_timeout:
        Seconds before the coordinator reclaims an uncompleted lease.
    on_lease:
        Optional hook called with every granted lease before execution —
        the fault-injection seam used by the tests.

    ``workers``, ``task_cache`` and ``on_lease`` are rejected under the
    sequential backend, which has no use for them.
    """

    def __init__(
        self,
        cost_model: MultiObjectiveCostModel,
        alpha: float = 2.0,
        tasks_per_step: int = 50,
        backend: str = "sequential",
        workers: int = 1,
        task_cache: "Optional[TaskCache]" = None,
        lease_timeout: float = 300.0,
        on_lease: "Optional[Callable[[DPLease], None]]" = None,
    ) -> None:
        super().__init__(cost_model)
        _validate_parameters(alpha, tasks_per_step)
        if backend not in DP_BACKENDS:
            raise ValueError(
                f"unknown DP backend {backend!r}; expected one of {DP_BACKENDS}"
            )
        if workers < 1:
            raise ValueError("workers must be at least 1")
        _check_backend_arguments(backend, workers, task_cache, on_lease)
        self.name = f"DP({_format_alpha(alpha)})"
        self._alpha = min(alpha, _ALPHA_CAP)
        self._tasks_per_step = tasks_per_step
        self._level_alpha = _level_alpha_for(self._alpha, cost_model.query.num_tables)
        self._backend = backend
        self._workers = workers
        self._task_cache = task_cache
        self._lease_timeout = lease_timeout
        self._on_lease = on_lease
        self._batch_model = BatchCostModel(cost_model)
        self._cache = ArenaPlanCache(self._batch_model)
        self._finished = False
        self._tables: List[int] = sorted(self.query.relations)
        self._num_tables = len(self._tables)
        # bits -> frozenset memo; every subset registers itself when a step
        # enters it, so split lookups are dictionary reads.
        self._sets: Dict[int, FrozenSet[int]] = {}
        self._seed_scans()
        self._level = 1
        self._level_iter: Iterator[Tuple[int, ...]] = iter(())
        self._current: Optional[_SubsetCursor] = None
        # Coordinator backend: the current level's packed effects (bits ->
        # SubsetEffects), each popped when a step enters its subset.
        self._level_effects: Dict[int, SubsetEffects] = {}
        # The shared-memory task fabric (coordinator backend only): a
        # persistent worker-process pool plus published arena/frontier
        # segments.  ``create`` declines (None) where it cannot run —
        # > 62 tables, no fork, an unpicklable cost model — and the level
        # computation then runs on in-process threads instead,
        # bit-identically.  Created before any worker thread exists so the
        # pool never forks a threaded process.
        self._fabric = None
        self._fabric_finalizer = None
        if backend == "coordinator":
            from repro.dist.shm import ShmTaskFabric

            self._fabric = ShmTaskFabric.create(self._batch_model, workers)
            if self._fabric is not None:
                self._fabric_finalizer = weakref.finalize(
                    self, ShmTaskFabric.close, self._fabric
                )

    # ------------------------------------------------------------ accessors
    @property
    def alpha(self) -> float:
        """Overall approximation-factor target."""
        return self._alpha

    @property
    def level_alpha(self) -> float:
        """Per-join pruning factor derived from the overall target."""
        return self._level_alpha

    @property
    def backend(self) -> str:
        """Execution backend (``"sequential"`` or ``"coordinator"``)."""
        return self._backend

    @property
    def plan_cache(self) -> ArenaPlanCache:
        """The DP table: partial-plan handles per table subset."""
        return self._cache

    @property
    def batch_model(self) -> BatchCostModel:
        """The arena-backed cost model the DP builds plans with."""
        return self._batch_model

    @property
    def finished(self) -> bool:
        """Whether every subset has been processed."""
        return self._finished

    # ------------------------------------------------------------- protocol
    def step(self) -> None:
        """Process a bounded batch of subset-combination tasks."""
        if self._finished:
            return
        remaining = self._tasks_per_step
        while remaining > 0:
            chunk = self._next_chunk(remaining)
            if chunk is None:
                self._finished = True
                self.close()
                break
            self._replay_chunk(chunk)
            remaining -= sum(count for _, _, count in chunk)
        self.statistics.steps += 1

    def close(self) -> None:
        """Release the shared-memory fabric (pool + segments).  Idempotent.

        Runs automatically when the DP finishes and again from a finalizer
        when the optimizer is garbage collected, so segments never outlive
        their run even on error paths.
        """
        if self._fabric is not None:
            self._fabric.close()
            self._fabric = None
        if self._fabric_finalizer is not None:
            self._fabric_finalizer.detach()
            self._fabric_finalizer = None

    def frontier(self) -> List[Plan]:
        """Plans for the full query table set (empty until DP completes it)."""
        return self._cache.plans(self.query.relations)

    # ----------------------------------------------------------- enumeration
    def _seed_scans(self) -> None:
        """Seed single-table frontiers, tables ascending, operators in library
        order; their ``plans_built`` are charged at construction."""
        batch_model = self._batch_model
        cache = self._cache
        level_alpha = self._level_alpha
        for table_index in self._tables:
            self._sets[1 << table_index] = frozenset((table_index,))
            for op_code in batch_model.scan_codes(table_index):
                handle = batch_model.make_scan(table_index, op_code)
                self.statistics.plans_built += 1
                cache.insert(handle, level_alpha)

    def _next_chunk(self, budget: int) -> Optional[List[_ChunkRun]]:
        """Up to ``budget`` split tasks as ``(cursor, offset, count)`` runs.

        Returns ``None`` when the lattice is exhausted.  A chunk never
        crosses a level boundary: level L+1 candidates are costed against
        level-≤L frontiers, which must be final — every level-L split
        replayed — before the first level-L+1 subset is reduced.
        """
        chunk: List[_ChunkRun] = []
        while budget > 0:
            cursor = self._current
            if cursor is None:
                subset = next(self._level_iter, None)
                if subset is None:
                    if chunk:
                        return chunk
                    if self._level >= self._num_tables:
                        return None
                    self._level += 1
                    self._level_iter = combinations(self._tables, self._level)
                    if self._backend == "coordinator":
                        self._compute_level(self._level)
                    continue
                cursor = self._enter_subset(subset)
                self._current = cursor
            take = min(budget, len(cursor.lefts) - cursor.index)
            chunk.append((cursor, cursor.index, take))
            cursor.index += take
            if cursor.index >= len(cursor.lefts):
                self._current = None
            budget -= take
        return chunk

    def _enter_subset(self, subset: Tuple[int, ...]) -> _SubsetCursor:
        """Register a subset and take its effects: reduced now (sequential)
        or computed with its level (coordinator)."""
        bits = _subset_bits(subset)
        rel = frozenset(subset)
        self._sets[bits] = rel
        lefts = left_bits_of(subset)
        if self._backend == "coordinator":
            effects = self._level_effects.pop(bits)
        else:
            cache = self._cache
            sets = self._sets

            def handles_of(table_bits: int) -> np.ndarray:
                return cache.handles_array(sets[table_bits])

            effects = reduce_subset(
                self._batch_model, handles_of, bits, lefts, self._level_alpha
            )
        return _SubsetCursor(bits, rel, lefts, effects)

    # ------------------------------------------------------------ processing
    def _replay_chunk(self, chunk: List[_ChunkRun]) -> None:
        """Apply a chunk's recorded split decisions in canonical order.

        Replaying the accepted candidate subsequence reproduces one-by-one
        insertion exactly: rejected candidates have no side effects, and
        each accepted row's evictions recompute identically on identical
        frontier state.  The frontier counters record what
        :meth:`~repro.core.plan_cache.ArenaPlanCache.insert_candidates`
        would have counted for the same splits.
        """
        cache = self._cache
        sets = self._sets
        arena = self._batch_model.arena
        replayed = 0
        for cursor, offset, count in chunk:
            bits = cursor.bits
            candidates = 0
            runs: List[Tuple[np.ndarray, List[int], List[int]]] = []
            for index in range(offset, offset + count):
                split_candidates, records = cursor.effects.split(index)
                candidates += split_candidates
                if records.shape[0]:
                    left_bits = cursor.lefts[index]
                    runs.append((
                        records,
                        cache.handles(sets[left_bits]),
                        cache.handles(sets[bits ^ left_bits]),
                    ))
            replayed += candidates
            handles: List[int] = []
            for records, outer_handles, inner_handles in runs:
                outers = records["outer"].tolist()
                inners = records["inner"].tolist()
                op_codes = records["op"].tolist()
                cardinalities = records["card"].tolist()
                cost_rows = records["cost"]
                for index, op_code in enumerate(op_codes):
                    handles.append(arena.add_join(
                        op_code,
                        outer_handles[outers[index]],
                        inner_handles[inners[index]],
                        cardinalities[index],
                        cost_rows[index],
                    ))
            before = cache.size_of(cursor.rel)
            if runs:
                # The reducer already took the (always-true) accept decisions
                # on identical frontier state; replay only needs insert()'s
                # eviction side, batched over this chunk's run of the subset.
                if len(runs) == 1:
                    all_records = runs[0][0]
                else:
                    all_records = np.concatenate([run[0] for run in runs])
                cache.replay_accept_batch(
                    cursor.rel,
                    handles,
                    arena.format_codes_of_ops(all_records["op"]),
                    all_records["cost"],
                )
            record_insertions(
                candidates,
                len(handles),
                before + len(handles) - cache.size_of(cursor.rel),
            )
        self.statistics.plans_built += replayed
        global_metrics().add("dp.candidates", replayed)

    def _compute_level(self, level: int) -> None:
        """Compute a whole level's split decisions through the coordinator."""
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "dp.level", tables=level, backend=self._backend
            ):
                self._compute_level_inner(level)
        else:
            self._compute_level_inner(level)
        # Cached frontier size when the level's decisions came back (its
        # replay still pending): one gauge write per level.
        global_metrics().gauge("frontier.rows", self._cache.total_plans)

    def _compute_level_inner(self, level: int) -> None:
        from repro.dist.dp import compute_dp_level  # local: avoids an import cycle

        splits = {
            _subset_bits(subset): left_bits_of(subset)
            for subset in combinations(self._tables, level)
        }
        if self._fabric is not None:
            # The previous level's frontiers are final the moment its last
            # insertion replayed; queue them for publication (the flush —
            # arena delta plus these handle runs — happens inside
            # compute_dp_level, and only if the level has cache misses).
            for subset in combinations(self._tables, level - 1):
                self._fabric.queue_frontier(
                    _subset_bits(subset),
                    self._cache.handles_array(frozenset(subset)),
                )
        self._level_effects = compute_dp_level(
            batch_model=self._batch_model,
            cache=self._cache,
            sets=self._sets,
            splits=splits,
            level_alpha=self._level_alpha,
            workers=self._workers,
            task_cache=self._task_cache,
            lease_timeout=self._lease_timeout,
            on_lease=self._on_lease,
            fabric=self._fabric,
        )

