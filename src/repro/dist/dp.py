"""Level-sharded distributed DP — pure subset reductions under leases.

The coordinator backend of
:class:`~repro.baselines.dp.ArenaDPOptimizer` computes one subset level of
the DP lattice at a time through the generic lease
:class:`~repro.dist.coordinator.Coordinator`: the level's subsets are
sharded into :class:`DPLevelTask` leaf tasks, each worker reduces its
subsets against the (immutable during the level) lower-level frontiers
with the DP's one reducer (:func:`~repro.baselines.dp.reduce_subset`), and
the optimizer replays the recorded per-split decisions in canonical
enumeration order — the same replay the sequential backend runs.

Determinism rests on two facts:

* a level-``s`` subset's reduction is **pure**: its candidate costs read
  only strictly-smaller subsets' frontiers (final once the level starts)
  and its own entry starts empty, so the reduction is a function of the
  query/cost-model provenance and the subset alone — sharding layout,
  worker count, lease reassignment after a crash, and execution order
  cannot change it;
* workers report *decisions*, not state: for every split, the candidate
  count and the accepted candidate rows (including candidates accepted and
  later evicted within the same subset — later accept tests depend on
  them).  Replaying exactly that subsequence reproduces one-by-one
  insertion bit for bit.

Purity also makes the reductions content-addressable: with a
:class:`~repro.dist.cache.TaskCache`, each subset's decisions are stored
under a provenance hash (:func:`dp_subset_key`) covering tables, join
graph, metrics, cost-model configuration, operator library, and the
per-level pruning factor — a warm cache replays a level without computing
anything, bit-identically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.baselines.dp import SubsetEffects, reduce_subset
from repro.core.plan_cache import ArenaPlanCache
from repro.cost.batch import BatchCostModel
from repro.dist.cache import TaskCache
from repro.dist.coordinator import DEFAULT_LEASE_TIMEOUT, Coordinator, Lease
from repro.dist.shm import ShmTaskFabric
from repro.dist.worker import Worker
from repro.obs import get_tracer, global_metrics

#: Format tag hashed into every DP provenance key.  v2: effect payloads
#: moved from JSON nested tuples to the packed binary
#: :class:`~repro.baselines.dp.SubsetEffects` records (``.bin`` cache
#: tier), so keys never collide with v1 entries.
DP_PROVENANCE_FORMAT = "repro-dp-subset-v2"

#: Re-exported lease type granted to DP workers (the ``on_lease`` hook of
#: :func:`compute_dp_level` receives these).
DPLease = Lease


@dataclass(frozen=True)
class DPLevelTask:
    """One shard of a DP level: a run of subset bitsets to reduce."""

    task_id: str
    subsets: Tuple[int, ...]


@dataclass(frozen=True)
class DPLevelResult:
    """A shard's recorded decisions, keyed back to its task."""

    task: DPLevelTask
    #: ``(subset bits, packed effects)`` per subset of the shard.
    effects: Tuple[Tuple[int, SubsetEffects], ...]


# --------------------------------------------------------------- provenance
def dp_provenance_signature(
    batch_model: BatchCostModel, level_alpha: float
) -> str:
    """Canonical JSON string of everything that determines a DP reduction.

    Covers the query (table indices, cardinalities, row widths, join edges
    with selectivities), the metric names, every cost-model configuration
    field, the full operator library, and the per-level pruning factor.
    Floats are serialized by JSON's shortest-round-trip repr (NaN and
    Infinity included), so equal signatures imply bit-equal inputs.
    """
    model = batch_model.cost_model
    query = batch_model.query
    library = model.library
    signature = {
        "format": DP_PROVENANCE_FORMAT,
        "tables": [
            [table.index, table.cardinality, table.row_width]
            for table in query.tables
        ],
        "edges": sorted(
            [a, b, selectivity] for a, b, selectivity in query.join_graph.edges()
        ),
        "metrics": list(model.metric_names),
        "config": dataclasses.asdict(model.config),
        "scan_operators": [
            [op.name, op.algorithm.value, op.output_format.value,
             op.sampling_rate, op.parallelism]
            for op in library.scan_operators
        ],
        "join_operators": [
            [op.name, op.algorithm.value, op.output_format.value,
             op.memory_pages, op.parallelism]
            for op in library.join_operators
        ],
        "level_alpha": level_alpha,
    }
    return json.dumps(signature, sort_keys=True)


def dp_subset_key(signature: str, subset_bits: int) -> str:
    """Content-address of one subset's reduction under a provenance signature."""
    digest = hashlib.sha256()
    digest.update(signature.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(str(subset_bits).encode("ascii"))
    return digest.hexdigest()


class _DPWorker(Worker):
    """Lease-pulling worker executing DP shard reductions in place of leaves."""

    def __init__(
        self,
        worker_id: str,
        coordinator: Coordinator,
        reducer: Callable[[DPLevelTask], DPLevelResult],
        poll: float = 0.01,
        on_lease: Optional[Callable[[Lease], None]] = None,
    ) -> None:
        super().__init__(worker_id, coordinator, poll=poll, on_lease=on_lease)
        self._reducer = reducer

    def _execute(self, spec, tasks):  # noqa: ANN001 - duck-typed like the base
        return [self._reducer(task) for task in tasks]


def compute_dp_level(
    batch_model: BatchCostModel,
    cache: ArenaPlanCache,
    sets: Dict[int, FrozenSet[int]],
    splits: Dict[int, List[int]],
    level_alpha: float,
    workers: int = 1,
    task_cache: Optional[TaskCache] = None,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    on_lease: Optional[Callable[[Lease], None]] = None,
    fabric: Optional[ShmTaskFabric] = None,
) -> Dict[int, SubsetEffects]:
    """Compute one DP level's split decisions across lease-based workers.

    Parameters
    ----------
    batch_model / cache / sets:
        The optimizer's shared state; read-only for the duration of the
        level (all replay happens afterwards, on the optimizer's thread).
    splits:
        ``subset bits -> left-side bits of its ordered splits`` for every
        subset of the level, in canonical enumeration order.
    level_alpha:
        Per-join pruning factor.
    workers:
        Worker threads; results are bit-identical for any count.
    task_cache:
        Optional content-addressed cache of per-subset decisions (packed
        binary tier — exact float64 round-trip).
    lease_timeout:
        Seconds before the coordinator reclaims an uncompleted lease.
    on_lease:
        Fault-injection hook passed to every worker.
    fabric:
        Optional shared-memory task fabric.  When given (and flushed
        here), worker threads dispatch their shards to its process pool,
        which reduces over published zero-copy views; without one, the
        same reducer runs on the threads themselves against the live
        cache — results are identical.

    Returns ``subset bits -> packed effects`` for the whole level.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    num_metrics = batch_model.num_metrics
    effects: Dict[int, SubsetEffects] = {}
    keys: Dict[int, str] = {}
    pending: List[int] = []
    if task_cache is not None:
        signature = dp_provenance_signature(batch_model, level_alpha)
        for bits in sorted(splits):
            key = dp_subset_key(signature, bits)
            keys[bits] = key
            payload = task_cache.get_raw_bytes(key)
            if payload is not None:
                try:
                    effects[bits] = SubsetEffects.from_bytes(payload, num_metrics)
                    continue
                except ValueError:  # foreign/corrupt entry: recompute
                    pass
            pending.append(bits)
        metrics = global_metrics()
        if effects:
            metrics.add("dp.subset_cache_hits", len(effects))
        if pending:
            metrics.add("dp.subset_cache_misses", len(pending))
    else:
        pending = sorted(splits)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "dp.level.scheduled",
            subsets=len(splits),
            cached=len(effects),
            pending=len(pending),
            workers=workers,
            fabric=fabric is not None,
        )
    if not pending:
        return effects

    # Publish the level before any shard is submitted: the arena rows and
    # frontiers a level reads are final once it starts, so one flush per
    # level (deltas only) is all the data movement the fabric ever does.
    # Fully cache-warm levels return above without touching shared memory.
    if fabric is not None:
        fabric.flush()

    # One lease per worker: pool round-trips dominate small levels, so
    # shards are as coarse as fault tolerance allows — a dead worker's
    # whole share requeues on lease expiry and any survivor picks it up.
    shard_size = max(1, -(-len(pending) // workers))
    tasks = [
        DPLevelTask(
            task_id=f"dp-shard-{index}",
            subsets=tuple(pending[start : start + shard_size]),
        )
        for index, start in enumerate(range(0, len(pending), shard_size))
    ]

    def handles_of(table_bits: int) -> np.ndarray:
        return cache.handles_array(sets[table_bits])

    def reduce_shard(task: DPLevelTask) -> List[SubsetEffects]:
        if fabric is not None:
            return fabric.reduce_shard(task.subsets, level_alpha)
        return [
            reduce_subset(batch_model, handles_of, bits, splits[bits], level_alpha)
            for bits in task.subsets
        ]

    def reduce_task(task: DPLevelTask) -> DPLevelResult:
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "dp.shard",
                task=task.task_id,
                subsets=len(task.subsets),
                fabric=fabric is not None,
            ):
                per_subset = reduce_shard(task)
        else:
            per_subset = reduce_shard(task)
        return DPLevelResult(
            task=task, effects=tuple(zip(task.subsets, per_subset))
        )

    # The generic coordinator is reused duck-typed: explicit task list,
    # "case" granularity (one group per shard), no spec introspection and
    # no TaskSpec-keyed cache — DP caching is the raw-key flow above.
    coordinator = Coordinator(
        None,
        tasks=tasks,
        workers_hint=workers,
        granularity="case",
        cache=None,
        lease_timeout=lease_timeout,
        metrics=global_metrics(),
    )
    if workers == 1:
        _DPWorker("dp-worker-0", coordinator, reduce_task, on_lease=on_lease).drain()
    else:
        threads = [
            _DPWorker(
                f"dp-worker-{index}", coordinator, reduce_task, on_lease=on_lease
            )
            for index in range(workers)
        ]
        for worker in threads:
            worker.start()
        for worker in threads:
            worker.join()
        if not coordinator.done:
            errors = [worker.error for worker in threads if worker.error is not None]
            if errors:
                raise errors[0]
            raise RuntimeError("DP level ended with incomplete shards")

    for result in coordinator.results():
        for bits, packed in result.effects:
            effects[bits] = packed
            if task_cache is not None:
                task_cache.put_raw_bytes(keys[bits], packed.to_bytes())
    return effects
