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
    approx_dominates_matrix,
    batch_insert_masks,
    dominates_matrix,
)
from repro.plans.plan import Plan

if TYPE_CHECKING:  # pragma: no cover - imports for type checking only
    from repro.cost.batch import BatchCostModel, CandidateBatch


#: Minimum size of an α = 1 batch that runs the per-tag whole-batch kernel
#: (:func:`_insert_batch_exact`); smaller batches, and every α > 1 batch, run
#: the per-accepted-row sweep (:func:`_insert_batch_approx`).  The decisions
#: are identical either way.
_PREFILTER_MIN_BATCH = 8


class _ArenaEntry:
    """One intermediate result's frontier: handles, tags, and cost rows."""

    __slots__ = ("handles", "tags", "rows")

    def __init__(self, num_metrics: int) -> None:
        self.handles: List[int] = []
        self.tags: List[int] = []
        self.rows = np.empty((0, num_metrics), dtype=np.float64)


class ArenaPlanCache:
    """Cache of non-dominated partial plans per intermediate result.

    Each cached plan is a :class:`~repro.plans.arena.PlanArena` handle.
    Whole candidate batches (the cross product of two sub-plan frontiers ×
    join operators) are inserted through one insertion kernel,
    :func:`_insert_batch` — the same kernel the DP's subset reducer runs
    through :class:`FrontierSimulator`:

    * with **α = 1** rows of different output formats never interact, so a
      batch of at least :data:`_PREFILTER_MIN_BATCH` rows decomposes per
      format tag into independent
      :func:`~repro.pareto.engine.batch_insert_masks` calls — one kernel
      pass per tag for the whole batch;
    * every other batch is α-cover pre-filtered against the *pre-batch*
      frontier in one fused pass, and the survivors are swept once per
      *accepted* row (:func:`_insert_batch_approx`).

    Every accept/evict decision, and the resulting frontier order, equals
    inserting the rows one by one.  Only accepted candidates are realized
    into arena nodes.
    """

    def __init__(self, model: "BatchCostModel") -> None:
        self._model = model
        self._arena = model.arena
        self._num_metrics = model.num_metrics
        self._entries: Dict[FrozenSet[int], _ArenaEntry] = {}

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
    def _entry(self, key: FrozenSet[int]) -> _ArenaEntry:
        entry = self._entries.get(key)
        if entry is None:
            entry = _ArenaEntry(self._num_metrics)
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
        if _entry_covered(entry, tag, row, alpha):
            metrics.add("frontier.rejected")
            return False
        before = len(entry.handles)
        _entry_append(entry, handle, tag, row)
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
        accepted_count, _ = _insert_batch(entry, batch, alpha, realize)
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
        _entry_append(entry, handle, tag, row)

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
            # elementwise <= as _entry_append).
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
# Entry-level insertion kernels
# ---------------------------------------------------------------------------
# The decision logic of ArenaPlanCache, factored over a bare _ArenaEntry so
# that out-of-cache consumers — the DP's subset reducer simulating a
# subset's insertions before the optimizer replays them — share the exact
# accept/evict decisions with the cache.


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


def _entry_covered(
    entry: _ArenaEntry, tag: int, row: np.ndarray, alpha: float
) -> bool:
    """Whether a same-tag entry row α-dominates ``row`` (``SigBetter``)."""
    if not entry.handles:
        return False
    tag_match = np.asarray(entry.tags, dtype=np.int64) == tag
    covered = tag_match & np.all(entry.rows <= alpha * row, axis=1)
    return bool(covered.any())


def _entry_append(entry: _ArenaEntry, handle: int, tag: int, row: np.ndarray) -> None:
    """Append an accepted row, evicting same-tag rows it dominates."""
    if entry.handles:
        tag_match = np.asarray(entry.tags, dtype=np.int64) == tag
        evicted = tag_match & np.all(row <= entry.rows, axis=1)
        if evicted.any():
            keep = ~evicted
            entry.rows = entry.rows[keep]
            kept_positions = np.flatnonzero(keep).tolist()
            entry.handles = [entry.handles[k] for k in kept_positions]
            entry.tags = [entry.tags[k] for k in kept_positions]
    entry.rows = np.concatenate([entry.rows, row[None, :]])
    entry.handles.append(handle)
    entry.tags.append(tag)


def _insert_batch_exact(
    entry: _ArenaEntry,
    batch: "CandidateBatch",
    realize,
) -> Tuple[int, List[int]]:
    """Whole-batch insertion at α = 1, decomposed per format tag.

    Rows only ever reject or evict rows of their own tag, so sequential
    insertion splits into independent per-tag processes; each runs as
    one :func:`batch_insert_masks` kernel call.  The final entry order —
    surviving existing rows first (original order), then kept batch rows
    (batch order) — matches sequential insertion, which always appends
    at the end.  ``realize(position)`` is called only for rows still kept
    at the end of the batch; the returned accepted positions additionally
    include rows accepted but evicted by a later batch row (sequential
    replay needs them to reproduce mid-batch decisions).
    """
    size = batch.size
    existing_size = entry.rows.shape[0]
    existing_tags = np.asarray(entry.tags, dtype=np.int64)
    surviving = np.ones(existing_size, dtype=bool)
    kept = np.zeros(size, dtype=bool)
    accepted = np.zeros(size, dtype=bool)
    for tag in np.unique(batch.tags).tolist():
        batch_mask = batch.tags == tag
        existing_mask = existing_tags == tag
        accepted_sub, kept_sub, surviving_sub = batch_insert_masks(
            entry.rows[existing_mask], batch.costs[batch_mask]
        )
        batch_positions = np.flatnonzero(batch_mask)
        accepted[batch_positions[accepted_sub]] = True
        kept[batch_positions[kept_sub]] = True
        surviving[np.flatnonzero(existing_mask)[~surviving_sub]] = False
    kept_positions = np.flatnonzero(kept).tolist()
    new_handles = [realize(position) for position in kept_positions]
    surviving_positions = np.flatnonzero(surviving).tolist()
    entry.handles = [entry.handles[k] for k in surviving_positions] + new_handles
    entry.tags = [entry.tags[k] for k in surviving_positions] + [
        int(batch.tags[position]) for position in kept_positions
    ]
    entry.rows = np.concatenate([entry.rows[surviving], batch.costs[kept]])
    accepted_positions = np.flatnonzero(accepted).tolist()
    return len(accepted_positions), accepted_positions


def _insert_batch(
    entry: _ArenaEntry,
    batch: "CandidateBatch",
    alpha: float,
    realize,
) -> Tuple[int, List[int]]:
    """Insert a costed batch into one entry; returns (count, positions).

    The one insertion kernel of the arena engine, behind both
    :meth:`ArenaPlanCache.insert_candidates` and
    :meth:`FrontierSimulator.insert_batch`: α = 1 batches of at least
    :data:`_PREFILTER_MIN_BATCH` rows run the per-tag whole-batch kernel,
    every other batch the per-accepted-row sweep.  Both are
    decision-identical to inserting the rows one by one; the accepted
    positions are in acceptance (= batch) order either way.
    """
    if alpha == 1.0 and batch.size >= _PREFILTER_MIN_BATCH:
        return _insert_batch_exact(entry, batch, realize)
    return _insert_batch_approx(entry, batch, alpha, realize)


def _insert_batch_approx(
    entry: _ArenaEntry,
    batch: "CandidateBatch",
    alpha: float,
    realize,
) -> Tuple[int, List[int]]:
    """Whole-batch insertion, vectorized per *accepted* row.

    Decision-identical to inserting the rows one by one through
    :func:`_entry_covered` and :func:`_entry_append` (property-tested
    against that scalar oracle in ``tests/test_shm.py``, α = 1 included):
    one fused (frontier × batch) α-cover prefilter kills rows the
    pre-batch frontier covers, then a sweep runs once per **accepted** row
    — each acceptance vector-rejects every later survivor it α-covers and
    vector-evicts dominated peers and frontier rows.  Accepted counts are
    tiny next to batch sizes, so this does O(accepted · batch) work where
    pairwise matrices would do O(batch²).

    Three facts make the decomposition sound:

    * the α-cover prefilter against the *pre-batch* frontier is exhaustive
      for frontier rows — mid-batch evictions only remove frontier rows,
      and any evictor covers (by transitivity of ``<=`` against the same
      computed ``α·cost`` values) everything its victim covered;
    * the same transitivity lets acceptance-time rejection stand in for
      the sequential check against *currently alive* accepted peers: a row
      covered only by a later-evicted peer is also covered by that peer's
      evictor;
    * eviction requires exact dominance, which is order-insensitive.
    """
    size = batch.size
    if entry.handles:
        frontier_tags = np.asarray(entry.tags, dtype=np.int64)
        # One fused (frontier x batch) pass: tag equality AND the exact
        # per-element comparison of _entry_covered.  Masked per-tag slicing
        # would compute the same booleans with far more interpreter work.
        covered = (
            (frontier_tags[:, None] == batch.tags[None, :])
            & approx_dominates_matrix(entry.rows, batch.costs, alpha)
        ).any(axis=0)
        survivors = np.flatnonzero(~covered)
    else:
        frontier_tags = np.empty(0, dtype=np.int64)
        survivors = np.arange(size)
    if survivors.size == 0:
        return 0, []
    if survivors.size == 1:
        # Lone survivor: always accepted (nothing can peer-cover it), so
        # the generic matrix path collapses to one reference append.
        position = int(survivors[0])
        _entry_append(
            entry, realize(position), int(batch.tags[position]),
            batch.costs[position],
        )
        return 1, [position]
    costs = np.ascontiguousarray(batch.costs[survivors], dtype=np.float64)
    tags = batch.tags[survivors]
    # alpha * cost_i computed once per survivor: every cover comparison
    # against row i (from frontier evictors or accepted peers alike) reads
    # the same float values _entry_covered would compute.
    alpha_costs = alpha * costs
    frontier_alive = np.ones(len(entry.handles), dtype=bool)
    frontier_rows = entry.rows
    alive = np.ones(survivors.size, dtype=bool)
    accepted_order: List[int] = []
    accepted_live: List[int] = []
    index = 0
    while index < alive.shape[0]:
        remaining = alive[index:]
        step = int(remaining.argmax())
        if not remaining[step]:
            break
        i = index + step
        index = i + 1
        tag = tags[i]
        row = costs[i]
        tag_match = tags == tag
        # Reject every survivor this row α-covers (covers[i, j]: same
        # elementwise float ops as _entry_covered, NaN-safe).  Earlier and
        # self positions may flip too, but the scan never revisits them.
        alive &= ~(tag_match & (row <= alpha_costs).all(axis=1))
        # Evict accepted peers and frontier rows it exactly dominates (as
        # in _entry_append: cost_i <= cost_j elementwise).
        if accepted_live:
            peers = np.asarray(accepted_live, dtype=np.int64)
            evicted = (tags[peers] == tag) & (row <= costs[peers]).all(axis=1)
            if evicted.any():
                accepted_live = [
                    j for j, gone in zip(accepted_live, evicted.tolist()) if not gone
                ]
        if frontier_rows.shape[0]:
            frontier_alive &= ~(
                (frontier_tags == tag) & (row <= frontier_rows).all(axis=1)
            )
        accepted_live.append(i)
        accepted_order.append(i)
    survivor_positions = survivors.tolist()
    handles = {i: realize(survivor_positions[i]) for i in accepted_order}
    if entry.handles and not frontier_alive.all():
        keep = np.flatnonzero(frontier_alive)
        entry.rows = entry.rows[keep]
        kept = keep.tolist()
        entry.handles = [entry.handles[k] for k in kept]
        entry.tags = [entry.tags[k] for k in kept]
    entry.rows = np.concatenate([entry.rows, costs[accepted_live]])
    entry.handles.extend(handles[i] for i in accepted_live)
    entry.tags.extend(int(tags[i]) for i in accepted_live)
    positions = [survivor_positions[i] for i in accepted_order]
    return len(positions), positions


class FrontierSimulator:
    """Takes :class:`ArenaPlanCache` insertion decisions off to the side.

    The DP's subset reducer owns the frontier of exactly one table subset —
    which starts empty and is touched by nobody else — so it can decide
    accept/evict for that subset on a private scratch entry without
    realizing any arena node.  The accepted batch positions it reports are
    later replayed (in order) into the real cache, reproducing one-by-one
    insertion bit for bit.  Batches run through :func:`_insert_batch`, the
    cache's own insertion kernel.
    """

    def __init__(self, num_metrics: int) -> None:
        self._entry = _ArenaEntry(num_metrics)
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

        _, positions = _insert_batch(self._entry, batch, alpha, realize)
        return positions

    @property
    def num_metrics(self) -> int:
        """Width of the scratch frontier's cost rows."""
        return self._num_metrics

    @property
    def size(self) -> int:
        """Number of rows currently on the scratch frontier."""
        return len(self._entry.handles)

