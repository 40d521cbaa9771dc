"""Zero-copy shared-memory task fabric for the distributed DP.

The coordinator backend used to re-pickle per-level frontier state into
every worker and ship effects back as JSON — costing more than the
parallelism bought (``BENCH_dp.json`` recorded a *negative* parallel
speedup).  The fabric replaces that transport wholesale:

* **Publish** — per DP level, the driver copies exactly the arena column
  rows appended since its last publish (via
  :meth:`~repro.plans.arena.PlanArena.column_snapshot`) and the newly final
  frontier handle runs into ``multiprocessing.shared_memory`` segments.
  Segments grow by capacity doubling under generation-bumped names; the
  preserved prefix is copied across and the old segment unlinked (on
  Linux, attached workers keep their mappings until they refresh).
* **Attach / refresh** — persistent worker processes (one fork-context
  ``ProcessPoolExecutor``, prewarmed before any driver thread exists)
  attach each segment by name once and only re-attach when a generation
  bump renames it.  Per shard they receive a small ``meta`` dict of
  counters and slice read-only NumPy views up to the published counts —
  refresh ships *deltas*, never state.
* **Reduce** — workers rebuild a read-only twin of the arena
  (:class:`BorrowedPlanArena`) over the attached buffers and run the DP's
  one subset reducer (:func:`~repro.baselines.dp.reduce_subset`) on it,
  reading frontier handles from the published runs.  Results return as
  one packed structured array per subset
  (:class:`~repro.baselines.dp.SubsetEffects`) instead of pickled nested
  tuples.
* **Unlink** — the driver owns every segment and unlinks all of them in
  :meth:`ShmTaskFabric.close` (also run by a finalizer on the optimizer).
  Workers only ever attach + close.  The driver starts the
  ``resource_tracker`` *before* forking the pool so every worker shares
  it: attach-time registrations (Python < 3.13 registers attaches like
  creates) are then set no-ops in the shared tracker, and the driver's
  unlink unregisters each name exactly once — no spurious leak warnings,
  no premature unlinks, from worker exits.

Determinism is untouched: workers report accept *decisions* in canonical
batch order, and the driver replays them — the fabric is a transport and
layout change only (pinned bit-identical by ``tests/test_dp_arena.py`` and
``tests/test_shm.py`` for 1/2/4 workers, worker death, and warm/cold
caches).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import secrets
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.dp import SubsetEffects, left_bits_of, reduce_subset
from repro.cost.batch import BatchCostModel
from repro.obs import get_tracer, global_metrics
from repro.plans.arena import PlanArena, bits_members

__all__ = ["ShmTaskFabric", "BorrowedPlanArena"]

#: Beyond this many tables the int64 bitset layout overflows; the fabric
#: declines and the coordinator falls back to in-process threads.
_MAX_NUMPY_BITS = 62

#: Minimum per-segment capacity in items (keeps tiny levels from thrashing
#: the doubling schedule).
_MIN_SEGMENT_ITEMS = 256

_EMPTY_HANDLES = np.empty(0, dtype=np.int64)


# ------------------------------------------------------------ borrowed arena
class BorrowedPlanArena(PlanArena):
    """A read-only arena twin over attached shared-memory columns.

    Worker processes never build plan nodes — they only gather the numeric
    columns (operator codes, cardinalities, costs) that the subset reducer
    reads.  :meth:`attach_columns` points the column storage at borrowed
    views; every mutation path raises.  The Python side-car lists stay
    empty, so scalar accessors must not be used on a borrowed arena (the
    reducer never does).
    """

    def attach_columns(
        self,
        op_codes: np.ndarray,
        cardinalities: np.ndarray,
        costs: np.ndarray,
        size: int,
    ) -> None:
        """Adopt borrowed column views; valid rows are ``[0, size)``."""
        if not 0 <= size <= op_codes.shape[0]:
            raise ValueError(f"size {size} exceeds column capacity")
        self._op = op_codes
        self._card = cardinalities
        self._cost = costs
        self._size = size

    def _append(self, key, rel, rel_bits, cardinality, cost):  # noqa: ANN001
        raise RuntimeError("BorrowedPlanArena is read-only")


# -------------------------------------------------------------- worker side
_WORKER_STATE: Optional["_WorkerFabricState"] = None
_PREWARM_BARRIER = None


def _fabric_initializer(model_blob: bytes, barrier) -> None:  # noqa: ANN001
    """Pool initializer: build the per-process reduce state once."""
    global _WORKER_STATE, _PREWARM_BARRIER
    _PREWARM_BARRIER = barrier
    cost_model = pickle.loads(model_blob)
    _WORKER_STATE = _WorkerFabricState(cost_model)


def _prewarm_wait(timeout: float = 30.0) -> bool:
    """Block until every pool process exists (or the barrier breaks).

    Submitted ``workers`` times right after pool construction: each task
    pins one process (none is idle while its task waits on the barrier),
    forcing the executor to spawn the full complement *before* the driver
    starts any worker threads — forking later, with threads live, risks
    inheriting held locks.
    """
    barrier = _PREWARM_BARRIER
    if barrier is None:
        return False
    try:
        barrier.wait(timeout)
        return True
    except Exception:
        return False


class _WorkerFabricState:
    """Per-process attach/refresh state and the shard reduce pipeline."""

    def __init__(self, cost_model) -> None:  # noqa: ANN001
        library = cost_model.library
        self._num_metrics = cost_model.num_metrics
        self._arena = BorrowedPlanArena(
            cost_model.query,
            library.scan_operators,
            library.join_operators,
            cost_model.num_metrics,
        )
        self._model = BatchCostModel(cost_model, arena=self._arena)
        self._segments: Dict[str, object] = {}
        self._names: Dict[str, str] = {}
        self._views: Dict[str, np.ndarray] = {}
        #: Retired mappings that still had exported buffers at swap time.
        self._graveyard: List[object] = []
        #: bits -> (start, count) into the frontier handle pool.
        self._frontiers: Dict[int, Tuple[int, int]] = {}
        self._applied_entries = 0
        self._pool_offset = 0

    def _view(self, role: str, shm, capacity: int) -> np.ndarray:  # noqa: ANN001
        if role == "cost":
            view = np.frombuffer(
                shm.buf, dtype=np.float64, count=capacity * self._num_metrics
            ).reshape(capacity, self._num_metrics)
        elif role == "op":
            view = np.frombuffer(shm.buf, dtype=np.int32, count=capacity)
        elif role == "card":
            view = np.frombuffer(shm.buf, dtype=np.float64, count=capacity)
        else:  # fbits / fcnt / fh
            view = np.frombuffer(shm.buf, dtype=np.int64, count=capacity)
        view.flags.writeable = False
        return view

    def refresh(self, meta: dict) -> None:
        """Attach-or-refresh to the published state described by ``meta``.

        Idempotent per ``meta``: segments are re-attached only on a
        generation rename, and only frontier entries past the applied
        counter are ingested, so duplicate or out-of-order shard
        submissions (lease reassignment) are harmless.
        """
        from multiprocessing import shared_memory

        if meta["num_metrics"] != self._num_metrics:
            raise ValueError("fabric meta disagrees on num_metrics")
        retired = []
        for role, name in meta["names"].items():
            if self._names.get(role) == name:
                continue
            # Attach-time registration (Python < 3.13) is a set no-op in
            # the resource tracker shared with the driver, which started
            # it before forking; the driver's unlink unregisters once.
            attached = shared_memory.SharedMemory(name=name)
            old = self._segments.get(role)
            self._segments[role] = attached
            self._names[role] = name
            self._views[role] = self._view(role, attached, meta["caps"][role])
            if old is not None:
                retired.append(old)
        self._arena.attach_columns(
            self._views["op"],
            self._views["card"],
            self._views["cost"],
            meta["nodes"],
        )
        fbits = self._views["fbits"]
        fcnt = self._views["fcnt"]
        for index in range(self._applied_entries, meta["fentries"]):
            count = int(fcnt[index])
            self._frontiers[int(fbits[index])] = (self._pool_offset, count)
            self._pool_offset += count
        self._applied_entries = meta["fentries"]
        for old in retired:
            try:
                old.close()
            except BufferError:  # pragma: no cover - lingering view export
                self._graveyard.append(old)

    def _handles(self, bits: int, pool: np.ndarray) -> np.ndarray:
        entry = self._frontiers.get(bits)
        if entry is None:
            return _EMPTY_HANDLES
        start, count = entry
        return pool[start : start + count]

    def reduce(self, bits: int, level_alpha: float) -> SubsetEffects:
        """Reduce one subset over the attached views; pure and zero-copy."""
        pool = self._views["fh"]

        def handles_of(table_bits: int) -> np.ndarray:
            return self._handles(table_bits, pool)

        return reduce_subset(
            self._model,
            handles_of,
            bits,
            left_bits_of(bits_members(bits)),
            level_alpha,
        )


def _reduce_shard(
    meta: dict, subsets: Tuple[int, ...], level_alpha: float
) -> Tuple[List[SubsetEffects], dict]:
    """Pool entry point: refresh, then reduce every subset of the shard.

    Returns ``(effects, metrics snapshot)`` — worker-process counters ride
    back piggybacked on the packed effects, and the driver folds them into
    its global registry (order-independent merges keep the totals
    deterministic across lease orderings).
    """
    from repro.obs import reset_global_metrics

    state = _WORKER_STATE
    if state is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("fabric worker used before initialization")
    metrics = reset_global_metrics()
    state.refresh(meta)
    effects = [state.reduce(bits, level_alpha) for bits in subsets]
    metrics.add("dp.worker_subsets", len(effects))
    metrics.add(
        "dp.worker_candidates",
        int(sum(int(packed.counts.sum()) for packed in effects)),
    )
    metrics.add(
        "dp.worker_accepted",
        int(sum(int(packed.rows.shape[0]) for packed in effects)),
    )
    return effects, metrics.snapshot()


# -------------------------------------------------------------- driver side
class _Segment:
    """Driver-side bookkeeping of one published shared-memory segment."""

    __slots__ = ("role", "item_bytes", "name", "shm", "capacity", "gen")

    def __init__(self, role: str, item_bytes: int) -> None:
        self.role = role
        self.item_bytes = item_bytes
        self.name: Optional[str] = None
        self.shm = None
        self.capacity = 0
        self.gen = 0


class ShmTaskFabric:
    """The driver half of the fabric: publish levels, dispatch reductions.

    Construct through :meth:`create`, which returns ``None`` whenever the
    platform or workload cannot support the fabric (no fork start method,
    more than 62 tables, unpicklable cost model) — callers then fall back
    to running the same reducer on in-process threads, which produces
    identical results.
    """

    def __init__(
        self, batch_model: BatchCostModel, workers: int, pool, base: str
    ) -> None:  # noqa: ANN001 - pool is a ProcessPoolExecutor
        self._model = batch_model
        self._arena = batch_model.arena
        self._num_metrics = batch_model.num_metrics
        self._workers = workers
        self._pool = pool
        self._base = base
        metrics = self._num_metrics
        self._segments: Dict[str, _Segment] = {
            "op": _Segment("op", 4),
            "card": _Segment("card", 8),
            "cost": _Segment("cost", 8 * metrics),
            "fbits": _Segment("fbits", 8),
            "fcnt": _Segment("fcnt", 8),
            "fh": _Segment("fh", 8),
        }
        self._published_nodes = 0
        self._fentries = 0
        self._fhlen = 0
        self._queued: List[Tuple[int, np.ndarray]] = []
        self._meta: Optional[dict] = None
        self._closed = False

    # ----------------------------------------------------------- lifecycle
    @classmethod
    def create(
        cls, batch_model: BatchCostModel, workers: int
    ) -> Optional["ShmTaskFabric"]:
        """Build the fabric, or ``None`` when it cannot run here."""
        if batch_model.query.num_tables > _MAX_NUMPY_BITS:
            return None
        pool = None
        try:
            from multiprocessing import shared_memory  # noqa: F401

            if "fork" not in multiprocessing.get_all_start_methods():
                return None
            # Start the resource tracker *before* forking so every worker
            # inherits (shares) it: their attach-time registrations become
            # set no-ops instead of spawning per-child trackers that would
            # unlink driver-owned segments on worker exit.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
            blob = pickle.dumps(batch_model.cost_model)
            context = multiprocessing.get_context("fork")
            barrier = context.Barrier(workers)
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=context,
                initializer=_fabric_initializer,
                initargs=(blob, barrier),
            )
            # Prewarm the full complement before any driver thread exists;
            # each blocked task pins one process, forcing the next spawn.
            futures = [pool.submit(_prewarm_wait) for _ in range(workers)]
            for future in futures:
                future.result(timeout=60.0)
            base = f"rdp{os.getpid():x}{secrets.token_hex(3)}"
            return cls(batch_model, workers, pool, base)
        except Exception:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            return None

    def close(self) -> None:
        """Shut the pool down and unlink every segment.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True, cancel_futures=True)
        for segment in self._segments.values():
            if segment.shm is None:
                continue
            try:
                segment.shm.close()
            except BufferError:  # pragma: no cover - no views survive flush
                pass
            try:
                segment.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            segment.shm = None

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    @property
    def segment_names(self) -> List[str]:
        """Names of the currently live segments (tests check for leaks)."""
        return [
            segment.name
            for segment in self._segments.values()
            if segment.shm is not None and segment.name is not None
        ]

    # ------------------------------------------------------------- publish
    def queue_frontier(self, bits: int, handles: np.ndarray) -> None:
        """Queue one final frontier (a lower-level subset's handle run).

        Nothing is written until :meth:`flush` — levels served entirely
        from a warm task cache never touch shared memory.
        """
        self._queued.append(
            (int(bits), np.ascontiguousarray(handles, dtype=np.int64))
        )

    def flush(self) -> dict:
        """Publish the arena delta and queued frontiers; returns the meta.

        Writes are strictly append-only at item granularity: workers only
        read rows below the published counters in ``meta``, so a flush
        racing an in-flight shard (impossible in the current driver, which
        flushes before submitting) would still never be observed.
        """
        if self._closed:
            raise RuntimeError("fabric is closed")
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "shm.flush",
                queued_frontiers=len(self._queued),
                published_nodes=self._published_nodes,
            ):
                return self._flush_inner()
        return self._flush_inner()

    def _flush_inner(self) -> dict:
        arena_size = len(self._arena)
        if arena_size > self._published_nodes:
            snapshot = self._arena.column_snapshot(
                self._published_nodes, arena_size
            )
            self._write("op", self._published_nodes, snapshot.op_codes, arena_size)
            self._write(
                "card", self._published_nodes, snapshot.cardinalities, arena_size
            )
            self._write("cost", self._published_nodes, snapshot.costs, arena_size)
            self._published_nodes = arena_size
        for bits, handles in self._queued:
            count = handles.shape[0]
            if count:
                self._write("fh", self._fhlen, handles, self._fhlen + count)
                self._fhlen += count
            stop = self._fentries + 1
            self._write(
                "fbits", self._fentries, np.asarray([bits], dtype=np.int64), stop
            )
            self._write(
                "fcnt", self._fentries, np.asarray([count], dtype=np.int64), stop
            )
            self._fentries = stop
        self._queued.clear()
        self._meta = {
            "names": {
                role: segment.name for role, segment in self._segments.items()
            },
            "caps": {
                role: segment.capacity for role, segment in self._segments.items()
            },
            "nodes": self._published_nodes,
            "fentries": self._fentries,
            "fhlen": self._fhlen,
            "num_metrics": self._num_metrics,
        }
        metrics = global_metrics()
        metrics.add("shm.flushes")
        metrics.gauge("shm.published_nodes", float(self._published_nodes))
        metrics.gauge("shm.frontier_entries", float(self._fentries))
        metrics.gauge(
            "shm.segment_bytes",
            float(
                sum(
                    segment.capacity * segment.item_bytes
                    for segment in self._segments.values()
                )
            ),
        )
        return self._meta

    def _ensure(self, role: str, need: int) -> _Segment:
        """Grow a segment to hold ``need`` items (generation-bumped name).

        The preserved prefix is copied into the new segment before the old
        one is unlinked; attached workers keep reading their old mapping
        until a refresh hands them the new name.
        """
        from multiprocessing import shared_memory

        segment = self._segments[role]
        if segment.shm is not None and need <= segment.capacity:
            return segment
        capacity = max(_MIN_SEGMENT_ITEMS, need, segment.capacity * 2)
        name = f"{self._base}{role}{segment.gen}"
        grown = shared_memory.SharedMemory(
            name=name, create=True, size=capacity * segment.item_bytes
        )
        if segment.shm is not None:
            preserved = self._preserved_items(role) * segment.item_bytes
            grown.buf[:preserved] = segment.shm.buf[:preserved]
            old = segment.shm
            old.close()
            old.unlink()
        segment.shm = grown
        segment.name = name
        segment.capacity = capacity
        segment.gen += 1
        global_metrics().add("shm.segment_growths")
        return segment

    def _preserved_items(self, role: str) -> int:
        if role in ("op", "card", "cost"):
            return self._published_nodes
        if role == "fh":
            return self._fhlen
        return self._fentries

    def _write(self, role: str, start: int, data: np.ndarray, stop: int) -> None:
        segment = self._ensure(role, stop)
        if role == "cost":
            view = np.frombuffer(
                segment.shm.buf,
                dtype=np.float64,
                count=segment.capacity * self._num_metrics,
            ).reshape(segment.capacity, self._num_metrics)
        else:
            dtype = {"op": np.int32, "card": np.float64}.get(role, np.int64)
            view = np.frombuffer(segment.shm.buf, dtype=dtype, count=segment.capacity)
        view[start:stop] = data
        del view  # release the buffer export before any close/unlink
        global_metrics().add(
            "shm.bytes_published", (stop - start) * segment.item_bytes
        )

    # -------------------------------------------------------------- reduce
    def reduce_shard(
        self, subsets: Sequence[int], level_alpha: float
    ) -> List[SubsetEffects]:
        """Reduce a shard of subsets on the worker pool (blocking).

        Called from coordinator worker threads; the pool runs shards of
        different leases truly in parallel.  Reductions are pure, so a
        reassigned lease re-running a shard is merely redundant work.
        """
        if self._meta is None:
            raise RuntimeError("flush() must run before reduce_shard()")
        future = self._pool.submit(
            _reduce_shard, self._meta, tuple(subsets), level_alpha
        )
        effects, snapshot = future.result()
        global_metrics().merge_snapshot(snapshot)
        return effects

    @property
    def num_metrics(self) -> int:
        """Cost-vector width of the published arena."""
        return self._num_metrics

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShmTaskFabric(workers={self._workers}, "
            f"nodes={self._published_nodes}, frontiers={self._fentries}, "
            f"closed={self._closed})"
        )
