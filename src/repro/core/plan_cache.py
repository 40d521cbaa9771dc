"""The partial-plan cache (``P`` in Algorithms 1 and 3).

The cache maps every intermediate result (a set of table indices) that the
optimizer has encountered so far to a set of non-dominated partial plans
generating it.  Insertion follows Algorithm 3's pruning function:

* a new plan is rejected if a cached plan with the same output data
  representation α-dominates it (``SigBetter`` with the current α),
* otherwise the new plan is inserted and every cached plan with the same
  representation that the new plan (exactly) dominates is evicted.

With α > 1 the cache therefore stores an α-approximate Pareto set per table
set, whose size is bounded polynomially in the number of tables (Lemma 6);
with α = 1 it stores the exact non-dominated set.

Each entry keeps its plans as arena handles, their output-format tags and
their cost rows as one contiguous matrix, so the ``SigBetter`` comparison
(same format and α-dominant cost) of a whole candidate batch runs as a few
array passes.  Every accept/evict decision, and therefore every downstream
iteration order, equals inserting the candidates one at a time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from repro.obs import global_metrics
from repro.pareto.engine import (
    FrontierEntry,
    dominates_matrix,
    entry_append,
    entry_covered,
    insert_batch,
)
from repro.plans.plan import Plan

if TYPE_CHECKING:  # pragma: no cover - imports for type checking only
    from repro.cost.batch import BatchCostModel, CandidateBatch


class ArenaPlanCache:
    """Cache of non-dominated partial plans per intermediate result.

    Each cached plan is a :class:`~repro.plans.arena.PlanArena` handle,
    and each table set's frontier a
    :class:`~repro.pareto.engine.FrontierEntry` whose rows are tagged with
    the plan's output format.  Whole candidate batches (the cross product
    of two sub-plan frontiers × join operators) are inserted through
    :func:`~repro.pareto.engine.insert_batch`, the one insertion kernel —
    the same kernel the DP's subset reducer runs through
    :class:`FrontierSimulator`, at every α.  Every accept/evict decision,
    and the resulting frontier order, equals inserting the rows one by
    one.  Only accepted candidates are realized into arena nodes.
    """

    def __init__(self, model: "BatchCostModel") -> None:
        self._model = model
        self._arena = model.arena
        self._num_metrics = model.num_metrics
        self._entries: Dict[FrozenSet[int], FrontierEntry] = {}

    # ------------------------------------------------------------ accessors
    def handles(self, relations: FrozenSet[int] | Iterable[int]) -> List[int]:
        """Cached plan handles joining exactly the given table set."""
        entry = self._entries.get(frozenset(relations))
        return list(entry.handles) if entry is not None else []

    def handles_array(self, relations: FrozenSet[int] | Iterable[int]) -> np.ndarray:
        """Cached plan handles for one table set as an int64 array.

        The form the shared-memory task fabric publishes frontiers in: one
        contiguous handle run per table set, sliceable without copies on the
        worker side.
        """
        entry = self._entries.get(frozenset(relations))
        if entry is None:
            return np.empty(0, dtype=np.int64)
        return np.asarray(entry.handles, dtype=np.int64)

    def plans(self, relations: FrozenSet[int] | Iterable[int]) -> List[Plan]:
        """Cached plans for one table set, materialized as ``Plan`` objects."""
        entry = self._entries.get(frozenset(relations))
        if entry is None:
            return []
        return self._arena.to_plans(entry.handles)

    def table_sets(self) -> List[FrozenSet[int]]:
        """All intermediate results that currently have cached plans."""
        return list(self._entries)

    def __contains__(self, relations: object) -> bool:
        if not isinstance(relations, (frozenset, set)):
            return False
        return frozenset(relations) in self._entries

    def __len__(self) -> int:
        """Number of cached intermediate results."""
        return len(self._entries)

    @property
    def total_plans(self) -> int:
        """Total number of cached partial plans over all intermediate results."""
        return sum(len(entry.handles) for entry in self._entries.values())

    def size_of(self, relations: FrozenSet[int] | Iterable[int]) -> int:
        """Number of cached plans for one intermediate result."""
        entry = self._entries.get(frozenset(relations))
        return len(entry.handles) if entry is not None else 0

    def frontier_costs(
        self, relations: FrozenSet[int] | Iterable[int]
    ) -> List[Tuple[float, ...]]:
        """Cost vectors of the cached plans for one intermediate result."""
        entry = self._entries.get(frozenset(relations))
        if entry is None:
            return []
        return [self._arena.cost(handle) for handle in entry.handles]

    # -------------------------------------------------------------- updates
    def _entry(self, key: FrozenSet[int]) -> FrontierEntry:
        entry = self._entries.get(key)
        if entry is None:
            entry = FrontierEntry(self._num_metrics)
            self._entries[key] = entry
        return entry

    def insert(self, handle: int, alpha: float = 1.0) -> bool:
        """Insert one plan handle under Algorithm 3's pruning rule."""
        if alpha < 1.0:
            raise ValueError(f"approximation factor must be at least 1, got {alpha}")
        entry = self._entry(self._arena.rel(handle))
        tag = self._arena.format_code(handle)
        row = np.asarray(self._arena.cost(handle), dtype=np.float64)
        metrics = global_metrics()
        metrics.add("frontier.candidates")
        if entry_covered(entry, tag, row, alpha):
            metrics.add("frontier.rejected")
            return False
        before = len(entry.handles)
        entry_append(entry, handle, tag, row)
        metrics.add("frontier.accepted")
        evicted = before + 1 - len(entry.handles)
        if evicted:
            metrics.add("frontier.evicted", evicted)
        return True

    def insert_all(self, plan_handles: Iterable[int], alpha: float = 1.0) -> int:
        """Insert several handles; returns how many were kept."""
        return sum(1 for handle in plan_handles if self.insert(handle, alpha))

    def insert_candidates(
        self,
        relations: FrozenSet[int],
        batch: "CandidateBatch",
        outer_handles: Sequence[int],
        inner_handles: Sequence[int],
        alpha: float,
    ) -> int:
        """Insert a costed cross-product batch; returns the accepted count.

        Decisions are identical to inserting the batch rows one by one in
        order (the scalar path); accepted rows are realized into arena nodes
        on the spot.
        """
        if alpha < 1.0:
            raise ValueError(f"approximation factor must be at least 1, got {alpha}")
        if batch.size == 0:
            return 0
        entry = self._entry(relations)
        model = self._model

        def realize(position: int) -> int:
            return model.realize_candidate(batch, position, outer_handles, inner_handles)

        before = len(entry.handles)
        accepted_count, _ = insert_batch(entry, batch.costs, batch.tags, alpha, realize)
        record_insertions(
            batch.size, accepted_count, before + accepted_count - len(entry.handles)
        )
        return accepted_count

    def replay_accept(
        self, handle: int, tag: int | None = None, row: np.ndarray | None = None
    ) -> None:
        """Append a handle whose accept decision was already taken elsewhere.

        The replay half of the DP: the subset reducer records exactly the
        candidate subsequence one-by-one insertion would accept, so replaying
        it only needs the *eviction* side of :meth:`insert` — the redundant
        covered-check (always false for a recorded accept on identical
        frontier state) is skipped.  ``tag``/``row`` may be passed when the
        caller already has them (e.g. from a packed effects record) to avoid
        re-deriving them from the arena.
        """
        entry = self._entry(self._arena.rel(handle))
        if tag is None:
            tag = self._arena.format_code(handle)
        if row is None:
            row = np.asarray(self._arena.cost(handle), dtype=np.float64)
        entry_append(entry, handle, tag, row)

    def replay_accept_batch(
        self,
        relations: FrozenSet[int],
        handles: Sequence[int],
        tags: np.ndarray,
        rows: np.ndarray,
    ) -> None:
        """Replay a run of recorded accepts for one subset in one pass.

        Equivalent to calling :meth:`replay_accept` for each row in order,
        but the per-row eviction scans collapse into two dominance
        matrices.  The closed form relies on every shipped row having been
        *accepted*: each row's eviction pass always runs, so an old entry
        survives iff **no** new same-tag row dominates it, and new row
        ``i`` survives iff no **later** new same-tag row dominates it —
        with surviving old rows keeping their order ahead of surviving new
        rows, exactly the list order sequential appends produce.
        """
        if len(handles) == 0:
            return
        if len(handles) == 1:
            self.replay_accept(int(handles[0]), tag=int(tags[0]), row=rows[0])
            return
        entry = self._entry(relations)
        tags = np.asarray(tags, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.float64)
        count = len(handles)
        if entry.handles:
            old_tags = np.asarray(entry.tags, dtype=np.int64)
            # evicts_old[i, f]: new row i dominates old entry row f (same
            # elementwise <= as entry_append).
            evicts_old = (tags[:, None] == old_tags[None, :]) & dominates_matrix(
                rows, entry.rows
            )
            old_keep = np.flatnonzero(~evicts_old.any(axis=0))
            if old_keep.size != len(entry.handles):
                kept = old_keep.tolist()
                entry.rows = entry.rows[old_keep]
                entry.handles = [entry.handles[k] for k in kept]
                entry.tags = [entry.tags[k] for k in kept]
        # peer[j, i]: new row j dominates new row i; only later rows
        # (j > i) evict, so mask to the strict lower triangle along j.
        peer = (tags[:, None] == tags[None, :]) & dominates_matrix(rows, rows)
        order = np.arange(count)
        evicted = (peer & (order[:, None] > order[None, :])).any(axis=0)
        new_keep = np.flatnonzero(~evicted)
        entry.rows = np.concatenate([entry.rows, rows[new_keep]])
        kept = new_keep.tolist()
        entry.handles.extend(int(handles[k]) for k in kept)
        entry.tags.extend(int(tags[k]) for k in kept)

    def clear(self) -> None:
        """Drop every cached plan."""
        self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArenaPlanCache(table_sets={len(self)}, total_plans={self.total_plans})"
        )


# ---------------------------------------------------------------------------
# Decision counters and the DP's off-to-the-side simulator
# ---------------------------------------------------------------------------
def record_insertions(candidates: int, accepted: int, evicted: int) -> None:
    """Add one batch's decisions to the ``frontier.*`` counters.

    One registry update per batch: counter increments per candidate row
    would dominate the kernel work at large batch sizes.  The DP replay
    counts through here too, so the counters do not depend on where a
    batch was decided.
    """
    if not candidates:
        return
    metrics = global_metrics()
    metrics.add("frontier.candidates", candidates)
    if accepted:
        metrics.add("frontier.accepted", accepted)
    if accepted != candidates:
        metrics.add("frontier.rejected", candidates - accepted)
    if evicted:
        metrics.add("frontier.evicted", evicted)


class FrontierSimulator:
    """Takes :class:`ArenaPlanCache` insertion decisions off to the side.

    The DP's subset reducer owns the frontier of exactly one table subset —
    which starts empty and is touched by nobody else — so it can decide
    accept/evict for that subset on a private scratch entry without
    realizing any arena node.  The accepted batch positions it reports are
    later replayed (in order) into the real cache, reproducing one-by-one
    insertion bit for bit.  Batches run through
    :func:`~repro.pareto.engine.insert_batch`, the cache's own insertion
    kernel.
    """

    def __init__(self, num_metrics: int) -> None:
        self._entry = FrontierEntry(num_metrics)
        self._num_metrics = num_metrics

    def insert_batch(
        self, batch: "CandidateBatch", alpha: float, base: int = 0
    ) -> List[int]:
        """Positions sequential insertion would accept; updates the scratch
        entry in place.  Scratch handles are the placeholders
        ``-1 - (base + position)`` — never dereferenced; ``base`` lets a
        caller keep them distinct across the batches of one subset."""
        if batch.size == 0:
            return []

        def realize(position: int) -> int:
            return -1 - (base + position)

        _, positions = insert_batch(self._entry, batch.costs, batch.tags, alpha, realize)
        return positions

    @property
    def num_metrics(self) -> int:
        """Width of the scratch frontier's cost rows."""
        return self._num_metrics

    @property
    def size(self) -> int:
        """Number of rows currently on the scratch frontier."""
        return len(self._entry.handles)

