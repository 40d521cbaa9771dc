"""Content-addressed cache of leaf-task results.

A :class:`TaskCache` stores one :class:`~repro.bench.tasks.TaskResult` per
**provenance hash** — the SHA-256 of everything that determines a leaf's
frontiers (:func:`repro.bench.tasks.task_provenance_hash`).  Because the
hash excludes spec fields that cannot affect the leaf (figure name, grid,
algorithm list, worker knobs), a DP(1.01) reference frontier computed for
one figure variant is a cache hit for every variant sharing its test cases,
and a re-run of the same figure executes zero reference leaves.

Only *deterministic* leaves may enter the cache
(:func:`repro.bench.tasks.task_is_deterministic`): a wall-clock-budgeted
leaf's frontier depends on machine load, so serving it from cache would
change results.  :meth:`TaskCache.put` enforces this.

Entries live under ``<root>/<hh>/<hash>.json`` (two-level fan-out keeps
directories small).  Writes are atomic (temp file + ``os.replace``), so
concurrent workers sharing a cache directory can only ever observe complete
entries; corrupted or foreign files are treated as misses — but no longer
*silent* ones: each corrupt entry increments ``cache.corrupt_entries``,
logs a structured warning, and emits a ``cache.corrupt_entry`` trace event
(see :mod:`repro.obs`).

The cache is **append-only by default**.  ``max_bytes`` turns on a
size-capped LRU policy: every hit refreshes its entry's mtime, and a write
that pushes the cache past the cap evicts least-recently-used entries until
it fits again.  Evictions are atomic single-file unlinks (a concurrently
evicted entry is just a miss), so sharing a capped cache between workers
stays safe.
"""

from __future__ import annotations

import json
import logging
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.scenario import ScenarioSpec
from repro.bench.tasks import (
    TaskResult,
    TaskSpec,
    task_is_deterministic,
    task_provenance_hash,
)
from repro.obs import get_tracer
from repro.obs.metrics import Metrics
from repro.utils.atomic import write_atomic

logger = logging.getLogger(__name__)

#: Legacy names of the cache counters, exposed verbatim by
#: :attr:`TaskCache.stats`; each is metric ``cache.<name>``.
_STAT_KEYS = ("hits", "misses", "stores", "evictions")

#: Version tag of the cache entry file format.
CACHE_ENTRY_FORMAT = "repro-task-cache-v1"

#: Leading magic of raw-key entries (``.bin`` files) — subsystems that hash
#: their own provenance, e.g. per-subset DP reductions in
#: :mod:`repro.dist.dp`.  The key is embedded after the magic so foreign or
#: renamed files are misses, exactly like the task entries'
#: ``format``/``key`` checks.
CACHE_RAW_BYTES_MAGIC = b"repro-task-cache-bin-v1\n"

#: File suffixes that count as cache entries (LRU accounting and ``len``).
_ENTRY_SUFFIXES = (".json", ".bin")


class TaskCache:
    """Filesystem-backed, content-addressed store of leaf-task results.

    Parameters
    ----------
    root:
        Cache directory (created on first write).  Safe to share between
        concurrent workers and successive runs; entries are immutable.
    max_bytes:
        Optional size cap.  ``None`` (the default) keeps the cache
        append-only; a positive value enables LRU eviction: hits refresh
        recency, and writes evict least-recently-used entries until the
        cache fits the cap.
    metrics:
        Optional shared :class:`~repro.obs.metrics.Metrics` registry the
        ``cache.*`` counters are mirrored into (for live dashboards).
        The cache always keeps a private registry; the legacy
        :attr:`stats` view reads that one.
    """

    def __init__(
        self,
        root: str,
        max_bytes: int | None = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self._root = os.fspath(root)
        self._max_bytes = max_bytes
        # Running size estimate so under-cap writes stay O(1): seeded by one
        # full scan, bumped per store, re-measured only when the estimate
        # crosses the cap (concurrent workers make any local count drift,
        # so eviction always re-scans before unlinking anything).
        self._approx_bytes: int | None = None
        self._metrics = Metrics()
        self._shared_metrics = metrics

    def _count(self, key: str, value: int = 1) -> None:
        """Bump counter ``cache.<key>`` (private + shared registries)."""
        self._metrics.add(f"cache.{key}", value)
        if self._shared_metrics is not None:
            self._shared_metrics.add(f"cache.{key}", value)

    def _count_written(self, path: str) -> None:
        """Account the on-disk size of a freshly written entry."""
        try:
            self._count("bytes_written", os.path.getsize(path))
        except OSError:  # evicted concurrently
            pass

    def _note_corrupt(self, key: str, path: str, error: Exception) -> None:
        """Record a corrupt entry: metric + structured warning + event.

        Corruption (an entry that exists but is unreadable, foreign, or
        stale) still degrades to a miss — throughput, never correctness —
        but is no longer silent: it increments ``cache.corrupt_entries``,
        logs a warning, and emits a ``cache.corrupt_entry`` trace event.
        """
        self._count("corrupt_entries")
        logger.warning(
            "task cache: corrupt entry %s (%s: %s); treating as a miss",
            path,
            type(error).__name__,
            error,
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "cache.corrupt_entry",
                key=key,
                path=path,
                error=f"{type(error).__name__}: {error}",
            )

    @property
    def root(self) -> str:
        """The cache directory."""
        return self._root

    @property
    def max_bytes(self) -> int | None:
        """The size cap in bytes (``None``: append-only)."""
        return self._max_bytes

    @property
    def stats(self) -> Dict[str, int]:
        """Hit/miss/store/eviction counters, legacy dict shape (thin view).

        Counters live in a :class:`~repro.obs.metrics.Metrics` registry
        (see :attr:`metrics`) since the observability consolidation; this
        property rebuilds the historical four-key dict from it.
        """
        return {key: self._metrics.counter(f"cache.{key}") for key in _STAT_KEYS}

    @property
    def metrics(self) -> Metrics:
        """This cache's private metrics registry (``cache.*`` names).

        Beyond the legacy four, it carries ``cache.corrupt_entries`` and
        the ``cache.bytes_read`` / ``cache.bytes_written`` volumes.
        """
        return self._metrics

    def _entry_path(self, key: str) -> str:
        return os.path.join(self._root, key[:2], f"{key}.json")

    def _entry_path_bin(self, key: str) -> str:
        return os.path.join(self._root, key[:2], f"{key}.bin")

    def get(self, spec: ScenarioSpec, task: TaskSpec) -> Optional[TaskResult]:
        """The cached result of a leaf, or ``None``.

        Non-deterministic leaves always miss (they must be recomputed), as
        do missing, unreadable, or foreign entries — a corrupt cache can
        degrade throughput, never correctness.
        """
        if not task_is_deterministic(spec, task):
            self._count("misses")
            return None
        key = task_provenance_hash(spec, task)
        path = self._entry_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            # Absent (or unreadable) entry: an ordinary miss.
            self._count("misses")
            return None
        try:
            payload = json.loads(text)
            if payload.get("format") != CACHE_ENTRY_FORMAT or payload.get("key") != key:
                raise ValueError("foreign or stale cache entry")
            result = TaskResult.from_json_dict(payload["result"])
            if result.task != task:
                raise ValueError("cache entry stores a different task")
        except (ValueError, KeyError, TypeError) as error:
            # The entry exists but cannot be trusted: a *corrupt* miss.
            self._note_corrupt(key, path, error)
            self._count("misses")
            return None
        self._count("hits")
        self._count("bytes_read", len(text))
        if self._max_bytes is not None:
            self._touch(path)
        return result

    @staticmethod
    def _touch(path: str) -> None:
        """Refresh an entry's mtime (LRU recency); races are harmless."""
        try:
            os.utime(path)
        except OSError:
            pass

    def partition(
        self, spec: ScenarioSpec, tasks: "Sequence[TaskSpec]"
    ) -> "Tuple[Dict[TaskSpec, TaskResult], List[TaskSpec]]":
        """Split a task list into cache hits and still-pending tasks.

        The single prefill step every coordinator runs before executing
        anything: hits never enter the lease queue.
        """
        hits: Dict[TaskSpec, TaskResult] = {}
        pending: List[TaskSpec] = []
        for task in tasks:
            cached = self.get(spec, task)
            if cached is not None:
                hits[task] = cached
            else:
                pending.append(task)
        return hits, pending

    def put(self, spec: ScenarioSpec, result: TaskResult) -> str:
        """Store one leaf result; returns the entry's provenance hash.

        Raises ``ValueError`` for non-deterministic leaves — caching a
        load-dependent result would poison every later run.
        """
        if not task_is_deterministic(spec, result.task):
            raise ValueError(
                f"refusing to cache non-deterministic task {result.task.task_id!r} "
                "(wall-clock-budgeted results depend on machine load)"
            )
        key = task_provenance_hash(spec, result.task)
        path = self._entry_path(key)
        try:
            # Entries are content-addressed and immutable: when a valid
            # entry already exists, skip the redundant write (runs and
            # service jobs sharing one cache can put the same leaf).  A
            # corrupt existing entry falls through and is rewritten.
            with open(path, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
            if existing.get("format") == CACHE_ENTRY_FORMAT and existing.get("key") == key:
                if self._max_bytes is not None:
                    # A re-put is a use: refresh LRU recency like a hit.
                    self._touch(path)
                return key
        except (OSError, ValueError):
            pass
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {
            "format": CACHE_ENTRY_FORMAT,
            "key": key,
            "task_id": result.task.task_id,
            "result": result.to_json_dict(),
        }
        # json.dumps raises on a result it cannot encode, before any write.
        write_atomic(path, (json.dumps(entry) + "\n").encode("utf-8"))
        self._count("stores")
        self._count_written(path)
        if self._max_bytes is not None:
            if self._approx_bytes is None:
                self._approx_bytes = self.total_bytes()
            else:
                try:
                    self._approx_bytes += os.path.getsize(path)
                except OSError:
                    pass
            if self._approx_bytes > self._max_bytes:
                self._enforce_cap(keep=path)
        return key

    # -------------------------------------------------------- raw-key entries
    def get_raw_bytes(self, key: str) -> Optional[bytes]:
        """The packed-bytes payload cached under a caller-computed key.

        The raw-key API serves subsystems whose provenance is not a
        :class:`~repro.bench.tasks.TaskSpec`: the caller hashes everything
        that determines its result (see ``repro.dist.dp.dp_subset_key``) and
        stores an opaque byte string (e.g. the packed DP effects of
        :class:`~repro.baselines.dp.SubsetEffects`), kept verbatim after a
        magic + key header — float64 values round-trip exactly, NaN and
        ±inf included.  Shares the directory tree, atomic writes, stats, and
        LRU policy with task entries; the distinct suffix and magic keep the
        two from misreading each other.
        """
        path = self._entry_path_bin(key)
        prefix = CACHE_RAW_BYTES_MAGIC + key.encode("ascii") + b"\n"
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self._count("misses")
            return None
        if not data.startswith(prefix):
            self._note_corrupt(
                key, path, ValueError("foreign or stale cache entry")
            )
            self._count("misses")
            return None
        self._count("hits")
        self._count("bytes_read", len(data))
        if self._max_bytes is not None:
            self._touch(path)
        return data[len(prefix):]

    def put_raw_bytes(self, key: str, payload: bytes) -> str:
        """Store a packed-bytes payload under a caller-computed key.

        The caller vouches that the key covers every input that can affect
        the payload.  Entries are immutable:
        an existing valid entry is not rewritten, only LRU-refreshed.
        """
        path = self._entry_path_bin(key)
        prefix = CACHE_RAW_BYTES_MAGIC + key.encode("ascii") + b"\n"
        try:
            with open(path, "rb") as handle:
                existing = handle.read(len(prefix))
            if existing == prefix:
                if self._max_bytes is not None:
                    self._touch(path)
                return key
        except OSError:
            pass
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_atomic(path, prefix + payload)
        self._count("stores")
        self._count("bytes_written", len(prefix) + len(payload))
        if self._max_bytes is not None:
            if self._approx_bytes is None:
                self._approx_bytes = self.total_bytes()
            else:
                try:
                    self._approx_bytes += os.path.getsize(path)
                except OSError:
                    pass
            if self._approx_bytes > self._max_bytes:
                self._enforce_cap(keep=path)
        return key

    # ----------------------------------------------------------- LRU policy
    def _entries_by_recency(self) -> "List[Tuple[float, str, int]]":
        """All entries as ``(mtime, path, size)``, least recent first."""
        entries: List[Tuple[float, str, int]] = []
        if not os.path.isdir(self._root):
            return entries
        for shard in sorted(os.listdir(self._root)):
            shard_dir = os.path.join(self._root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(_ENTRY_SUFFIXES) or name.startswith(".tmp-"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    status = os.stat(path)
                except OSError:  # evicted concurrently
                    continue
                entries.append((status.st_mtime, path, status.st_size))
        entries.sort()
        return entries

    def total_bytes(self) -> int:
        """Total size of all entries currently on disk."""
        return sum(size for _, _, size in self._entries_by_recency())

    def _enforce_cap(self, keep: str | None = None) -> None:
        """Evict least-recently-used entries until the cache fits the cap.

        ``keep`` protects the entry just written (it is the most recent
        anyway; the guard matters when a single entry exceeds the cap).
        Evictions are plain unlinks — concurrent readers of an evicted
        entry observe an ordinary miss.
        """
        assert self._max_bytes is not None
        entries = self._entries_by_recency()
        total = sum(size for _, _, size in entries)
        for _, path, size in entries:
            if total <= self._max_bytes:
                break
            if path == keep:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            self._count("evictions")
        self._approx_bytes = total

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        count = 0
        if not os.path.isdir(self._root):
            return 0
        for shard in os.listdir(self._root):
            shard_dir = os.path.join(self._root, shard)
            if os.path.isdir(shard_dir):
                count += sum(
                    1
                    for name in os.listdir(shard_dir)
                    if name.endswith(_ENTRY_SUFFIXES) and not name.startswith(".tmp-")
                )
        return count
