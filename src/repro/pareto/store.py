"""Indexed frontier stores: the tiered storage layer below :class:`ParetoSet`.

The engine's flat storage answers every dominance query with a full scan of
the frontier — ``O(n·d)`` per insert, which is the remaining hot path for
very large frontiers now that the benchmark pipeline can shard arbitrarily
large grids.  This module provides index-accelerated alternatives behind one
:class:`FrontierStore` protocol:

* :class:`FlatFrontier` — linear scan over a contiguous buffer.  The
  reference implementation of the protocol: small, obviously correct, and
  the store the property tests compare the indexed tiers against.
* :class:`SortedFrontier` — rows kept sorted by the first objective in
  blocks of ``~block_size`` rows.  Binary search over the block boundaries
  restricts every query to a *pruning window* (a dominator must have a
  first-objective value no larger than the query's; a dominated row no
  smaller), and per-block bounding costs (componentwise ``ideal`` / ``nadir``
  corners) let whole blocks be skipped or bulk-accepted without touching
  their rows.  The tier of choice for few metrics, where sorting one
  objective localizes most of the dominance structure.
* :class:`NDTreeFrontier` — an ND-tree in the spirit of Jaszkiewicz and
  Lust's ND-Tree update: a binary tree of boxes, each node carrying the
  ``ideal``/``nadir`` corners of its subtree, with leaves splitting on the
  widest objective at the median.  Queries descend only into boxes whose
  bounding costs can interact with the query point; subtree-level
  quick-accept and bulk-collect use the same corner tests.  Preferred for
  four or more metrics, where a single sort key no longer prunes well.

**Semantics are identical across stores.**  Every comparison is the same
IEEE-754 double comparison the flat scan performs (``a <= alpha * b`` and
friends), and the store answers *set* questions whose results do not depend
on scan order: "does any kept row α-dominate this one?" and "which kept rows
does this one dominate?".  :class:`~repro.pareto.engine.ParetoSet` keeps
ownership of the rows themselves (in insertion order) and treats the store
purely as a search index, so frontier contents — values, order, acceptance
and eviction decisions — are bit-identical whichever store is selected; the
property tests in ``tests/test_store.py`` pin this.

Rows containing NaN are *inert* under IEEE comparison semantics (they never
dominate and are never dominated), so the indexed stores keep them in a side
table and never scan them; ``±inf`` rows order and compare normally and stay
in the index.

**Store selection.**  :func:`resolve_store_policy` turns a requested policy
(``None`` → the ``REPRO_FRONTIER_STORE`` environment variable → ``"auto"``)
into one of ``"flat"``, ``"sorted"``, ``"ndtree"`` or ``"auto"``.  The
``auto`` policy keeps small frontiers on the flat path (index maintenance
only pays off beyond :data:`AUTO_ENGAGE_SIZE` rows) and then picks the tier
by metric count via :func:`auto_store_kind` — see the ``Frontier stores``
section of ``docs/API.md``.  Setting ``REPRO_FRONTIER_STORE=flat`` pins every
frontier in the process to the flat path, which is the recommended first step
when debugging a suspected store issue.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Protocol, Sequence, Tuple

import numpy as np

__all__ = [
    "AUTO_ENGAGE_SIZE",
    "SORTED_MAX_METRICS",
    "STORE_KINDS",
    "STORE_POLICIES",
    "FrontierStore",
    "FlatFrontier",
    "SortedFrontier",
    "NDTreeFrontier",
    "auto_store_kind",
    "make_store",
    "resolve_store_policy",
    "sorted_dominance_fold",
    "store_stats",
]

#: Environment variable pinning the store policy for the whole process.
STORE_ENV_VAR = "REPRO_FRONTIER_STORE"

#: Frontier size at which the ``auto`` policy switches from the flat path to
#: an indexed store.  Below this, a single vectorized scan (or the engine's
#: tuple fast path) beats index maintenance.
AUTO_ENGAGE_SIZE = 256

#: Largest metric count for which ``auto`` selects the sorted tier; above it
#: a single sort key prunes poorly and the ND-tree is used instead.
SORTED_MAX_METRICS = 3

#: Concrete store kinds (instantiable via :func:`make_store`).
STORE_KINDS = ("flat", "sorted", "ndtree")

#: Valid store policies (``auto`` resolves to a kind per frontier).
STORE_POLICIES = ("auto",) + STORE_KINDS


def resolve_store_policy(store: str | None) -> str:
    """Resolve a requested store policy to one of :data:`STORE_POLICIES`.

    ``None`` falls back to the ``REPRO_FRONTIER_STORE`` environment variable
    and then to ``"auto"``; explicit values win over the environment.
    """
    if store is None:
        store = os.environ.get(STORE_ENV_VAR) or "auto"
    if store not in STORE_POLICIES:
        raise ValueError(
            f"unknown frontier store {store!r}; expected one of {STORE_POLICIES}"
        )
    return store


def auto_store_kind(num_metrics: int) -> str:
    """Indexed store kind the ``auto`` policy picks for a metric count."""
    return "sorted" if num_metrics <= SORTED_MAX_METRICS else "ndtree"


def make_store(kind: str, num_metrics: int, block_size: int = 128) -> "FrontierStore":
    """Instantiate a concrete frontier store (``auto`` resolved by metrics)."""
    if kind == "auto":
        kind = auto_store_kind(num_metrics)
    if kind == "flat":
        return FlatFrontier(num_metrics)
    if kind == "sorted":
        return SortedFrontier(num_metrics, block_size=block_size)
    if kind == "ndtree":
        return NDTreeFrontier(num_metrics, leaf_size=block_size // 2)
    raise ValueError(f"unknown frontier store {kind!r}; expected one of {STORE_KINDS}")


class FrontierStore(Protocol):
    """Search index over the rows of a Pareto frontier.

    The owner (:class:`~repro.pareto.engine.ParetoSet`) assigns each row a
    stable integer id and keeps the row values; the store answers dominance
    queries over the *current* id set.  A query row containing NaN never
    matches anything (IEEE comparisons are false), and stored NaN rows are
    likewise never reported — implementations may keep them aside.

    ``tag`` arguments mirror the engine's tagged comparisons (the plan
    cache's ``SigBetter``): ``None`` compares against every row, an integer
    restricts matches to rows added with that tag.
    """

    name: str

    def __len__(self) -> int: ...

    def clear(self) -> None:
        """Drop every row."""
        ...

    def bulk_load(
        self, ids: Sequence[int], rows: np.ndarray, tags: Sequence[int]
    ) -> None:
        """Replace the contents with ``(ids, rows, tags)`` in one pass."""
        ...

    def add(self, row_id: int, row: np.ndarray, tag: int) -> None:
        """Index one new row (already accepted by the owner)."""
        ...

    def remove_ids(self, ids: Iterable[int]) -> None:
        """Drop the given row ids (each currently present)."""
        ...

    def any_covering(
        self, row: np.ndarray, alpha: float, tag: int | None
    ) -> bool:
        """Whether some kept row ``m`` (matching ``tag``) has ``m <= alpha*row``."""
        ...

    def dominated_ids(self, row: np.ndarray, tag: int | None) -> List[int]:
        """Ids of kept rows ``m`` (matching ``tag``) with ``row <= m``."""
        ...

    def any_strictly_dominating(self, row: np.ndarray) -> bool:
        """Whether some kept row ``m`` has ``m <= row`` and ``m != row``."""
        ...


def store_stats(store: "FrontierStore") -> Dict[str, int | str]:
    """Diagnostic counters of a frontier store, uniform across tiers.

    Every concrete store keeps a plain-int query counter (incremented on
    ``any_covering`` / ``dominated_ids`` / ``any_strictly_dominating``) and
    exposes it through a ``stats`` property; this helper reads it with a
    graceful fallback for protocol-compatible third-party stores.
    """
    stats = getattr(store, "stats", None)
    if stats is None:
        return {"kind": store.name, "size": len(store)}
    return dict(stats)


def _has_nan(row: np.ndarray) -> bool:
    return bool(np.isnan(row).any())


# ---------------------------------------------------------------------------
# Flat store: the reference implementation of the protocol
# ---------------------------------------------------------------------------
class FlatFrontier:
    """Linear-scan store over a contiguous buffer (the protocol's reference).

    Functionally identical to the scan the engine performs inline on its
    flat path; kept as a store so that the indexed tiers have an oracle to
    be property-tested against at the protocol level.
    """

    name = "flat"

    def __init__(self, num_metrics: int) -> None:
        self._dim = num_metrics
        self._rows = np.empty((8, num_metrics), dtype=np.float64)
        self._tags = np.empty(8, dtype=np.int64)
        self._ids = np.empty(8, dtype=np.int64)
        self._count = 0
        self._queries = 0

    @property
    def stats(self) -> Dict[str, int | str]:
        """Cheap diagnostic counters (see :func:`store_stats`)."""
        return {"kind": self.name, "size": len(self), "queries": self._queries}

    def __len__(self) -> int:
        return self._count

    def clear(self) -> None:
        self._count = 0

    def bulk_load(self, ids, rows, tags) -> None:
        self._count = 0
        n = len(ids)
        if n:
            self._grow(n)
            self._rows[:n] = rows
            self._tags[:n] = np.asarray(list(tags), dtype=np.int64)
            self._ids[:n] = np.asarray(list(ids), dtype=np.int64)
            self._count = n

    def _grow(self, needed: int) -> None:
        capacity = self._rows.shape[0]
        if needed <= capacity:
            return
        capacity = max(capacity * 2, needed)
        rows = np.empty((capacity, self._dim), dtype=np.float64)
        rows[: self._count] = self._rows[: self._count]
        tags = np.empty(capacity, dtype=np.int64)
        tags[: self._count] = self._tags[: self._count]
        ids = np.empty(capacity, dtype=np.int64)
        ids[: self._count] = self._ids[: self._count]
        self._rows, self._tags, self._ids = rows, tags, ids

    def add(self, row_id: int, row: np.ndarray, tag: int) -> None:
        self._grow(self._count + 1)
        self._rows[self._count] = row
        self._tags[self._count] = tag
        self._ids[self._count] = row_id
        self._count += 1

    def remove_ids(self, ids: Iterable[int]) -> None:
        drop = np.isin(self._ids[: self._count], np.asarray(list(ids), dtype=np.int64))
        keep = ~drop
        kept = int(keep.sum())
        self._rows[:kept] = self._rows[: self._count][keep]
        self._tags[:kept] = self._tags[: self._count][keep]
        self._ids[:kept] = self._ids[: self._count][keep]
        self._count = kept

    def any_covering(self, row, alpha, tag) -> bool:
        self._queries += 1
        if not self._count:
            return False
        mask = np.all(self._rows[: self._count] <= alpha * row, axis=1)
        if tag is not None:
            mask &= self._tags[: self._count] == tag
        return bool(mask.any())

    def dominated_ids(self, row, tag) -> List[int]:
        self._queries += 1
        if not self._count:
            return []
        mask = np.all(row <= self._rows[: self._count], axis=1)
        if tag is not None:
            mask &= self._tags[: self._count] == tag
        return self._ids[: self._count][mask].tolist()

    def any_strictly_dominating(self, row) -> bool:
        self._queries += 1
        if not self._count:
            return False
        active = self._rows[: self._count]
        mask = np.all(active <= row, axis=1) & np.any(active < row, axis=1)
        return bool(mask.any())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlatFrontier(size={self._count}, dim={self._dim})"


# ---------------------------------------------------------------------------
# Sorted store: blocked first-objective order + per-block bounding costs
# ---------------------------------------------------------------------------
class _SortedBlock:
    """One run of rows, sorted by first objective, with bounding corners."""

    __slots__ = ("rows", "tags", "ids", "count", "ideal", "nadir", "pos")

    def __init__(self, capacity: int, dim: int, pos: int) -> None:
        self.rows = np.empty((capacity, dim), dtype=np.float64)
        self.tags = np.empty(capacity, dtype=np.int64)
        self.ids = np.empty(capacity, dtype=np.int64)
        self.count = 0
        self.ideal = np.empty(dim, dtype=np.float64)
        self.nadir = np.empty(dim, dtype=np.float64)
        self.pos = pos  # index of this block in the store's block list

    def recompute_bounds(self) -> None:
        active = self.rows[: self.count]
        self.ideal = np.fmin.reduce(active, axis=0)
        self.nadir = np.fmax.reduce(active, axis=0)


class SortedFrontier:
    """Blocked sorted-array store (first-objective order, windowed pruning).

    Rows live in blocks of at most ``2 * block_size`` rows; blocks partition
    the frontier in first-objective order (block value ranges are sorted and
    non-overlapping).  Per-block summaries — the block's first-objective
    range and its componentwise ``ideal``/``nadir`` corners — are kept in
    contiguous arrays, so a query is: one binary search to bound the window
    of blocks that can interact, one vectorized pass over the window's
    summaries to select candidate blocks, then a scan of (typically very
    few) candidate blocks.

    The pruning rules follow from the corner definitions: a block can
    contain a row α-dominating ``q`` only if ``ideal <= alpha*q``
    componentwise, and if ``nadir <= alpha*q`` *every* row in the block does;
    dually a block can contain rows dominated by ``q`` only if ``q <= nadir``,
    and if ``q <= ideal`` all of them are.
    """

    name = "sorted"

    def __init__(self, num_metrics: int, block_size: int = 128) -> None:
        if block_size < 2:
            raise ValueError(f"block size must be at least 2, got {block_size}")
        self._queries = 0
        self._dim = num_metrics
        self._block = block_size
        self._capacity = 2 * block_size
        self._blocks: List[_SortedBlock] = []
        self._block_of: Dict[int, _SortedBlock] = {}
        self._inert: Dict[int, None] = {}  # rows containing NaN (never interact)
        # Contiguous per-block summaries (first _nb entries are live).
        cap = 8
        self._sum_lo = np.empty(cap, dtype=np.float64)
        self._sum_hi = np.empty(cap, dtype=np.float64)
        self._sum_ideal = np.empty((cap, num_metrics), dtype=np.float64)
        self._sum_nadir = np.empty((cap, num_metrics), dtype=np.float64)
        self._nb = 0
        self._len = 0

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        return self._len

    @property
    def num_blocks(self) -> int:
        """Number of live blocks (diagnostic)."""
        return self._nb

    @property
    def stats(self) -> Dict[str, int | str]:
        """Cheap diagnostic counters (see :func:`store_stats`)."""
        return {
            "kind": self.name,
            "size": len(self),
            "queries": self._queries,
            "blocks": self._nb,
        }

    def clear(self) -> None:
        self._blocks = []
        self._block_of = {}
        self._inert = {}
        self._nb = 0
        self._len = 0

    # ------------------------------------------------------------- summaries
    def _grow_summaries(self, needed: int) -> None:
        cap = self._sum_lo.shape[0]
        if needed <= cap:
            return
        cap = max(cap * 2, needed)
        for attr in ("_sum_lo", "_sum_hi"):
            fresh = np.empty(cap, dtype=np.float64)
            fresh[: self._nb] = getattr(self, attr)[: self._nb]
            setattr(self, attr, fresh)
        for attr in ("_sum_ideal", "_sum_nadir"):
            fresh = np.empty((cap, self._dim), dtype=np.float64)
            fresh[: self._nb] = getattr(self, attr)[: self._nb]
            setattr(self, attr, fresh)

    def _write_summary(self, blk: _SortedBlock) -> None:
        i = blk.pos
        self._sum_lo[i] = blk.rows[0, 0]
        self._sum_hi[i] = blk.rows[blk.count - 1, 0]
        self._sum_ideal[i] = blk.ideal
        self._sum_nadir[i] = blk.nadir

    def _insert_block(self, blk: _SortedBlock, at: int) -> None:
        self._grow_summaries(self._nb + 1)
        nb = self._nb
        for arr in (self._sum_lo, self._sum_hi, self._sum_ideal, self._sum_nadir):
            arr[at + 1 : nb + 1] = arr[at:nb]
        self._blocks.insert(at, blk)
        self._nb = nb + 1
        # Reassign positions from the insertion point (cheap python loop;
        # splits are amortized over ~block_size inserts).
        for index in range(at, self._nb):
            self._blocks[index].pos = index
        self._write_summary(blk)

    def _remove_block(self, blk: _SortedBlock) -> None:
        at = blk.pos
        nb = self._nb
        for arr in (self._sum_lo, self._sum_hi, self._sum_ideal, self._sum_nadir):
            arr[at : nb - 1] = arr[at + 1 : nb]
        del self._blocks[at]
        self._nb = nb - 1
        for index in range(at, self._nb):
            self._blocks[index].pos = index

    # -------------------------------------------------------------- updates
    def bulk_load(self, ids, rows, tags) -> None:
        self.clear()
        rows = np.asarray(rows, dtype=np.float64).reshape(len(ids), self._dim)
        ids_arr = np.asarray(list(ids), dtype=np.int64)
        tags_arr = np.asarray(list(tags), dtype=np.int64)
        self._len = int(ids_arr.shape[0])
        if not self._len:
            return
        if self._dim:
            nan_mask = np.isnan(rows).any(axis=1)
        else:
            nan_mask = np.zeros(self._len, dtype=bool)
        for row_id in ids_arr[nan_mask].tolist():
            self._inert[row_id] = None
        clean = ~nan_mask
        rows, ids_arr, tags_arr = rows[clean], ids_arr[clean], tags_arr[clean]
        order = (
            np.argsort(rows[:, 0], kind="stable")
            if self._dim
            else np.arange(rows.shape[0])
        )
        rows, ids_arr, tags_arr = rows[order], ids_arr[order], tags_arr[order]
        total = rows.shape[0]
        for start in range(0, total, self._block):
            stop = min(start + self._block, total)
            blk = _SortedBlock(self._capacity, self._dim, len(self._blocks))
            count = stop - start
            blk.rows[:count] = rows[start:stop]
            blk.tags[:count] = tags_arr[start:stop]
            blk.ids[:count] = ids_arr[start:stop]
            blk.count = count
            blk.recompute_bounds()
            self._blocks.append(blk)
            for row_id in ids_arr[start:stop].tolist():
                self._block_of[row_id] = blk
        self._nb = len(self._blocks)
        self._grow_summaries(self._nb)
        for blk in self._blocks:
            self._write_summary(blk)

    def add(self, row_id: int, row: np.ndarray, tag: int) -> None:
        if _has_nan(row):
            self._inert[row_id] = None
            self._len += 1
            return
        self._len += 1
        if not self._nb:
            blk = _SortedBlock(self._capacity, self._dim, 0)
            blk.rows[0] = row
            blk.tags[0] = tag
            blk.ids[0] = row_id
            blk.count = 1
            blk.ideal = row.copy()
            blk.nadir = row.copy()
            self._blocks.append(blk)
            self._nb = 1
            self._grow_summaries(1)
            self._write_summary(blk)
            self._block_of[row_id] = blk
            return
        first = row[0]
        at = int(np.searchsorted(self._sum_lo[: self._nb], first, side="right")) - 1
        if at < 0:
            at = 0
        blk = self._blocks[at]
        count = blk.count
        pos = int(np.searchsorted(blk.rows[:count, 0], first, side="right"))
        blk.rows[pos + 1 : count + 1] = blk.rows[pos:count]
        blk.tags[pos + 1 : count + 1] = blk.tags[pos:count]
        blk.ids[pos + 1 : count + 1] = blk.ids[pos:count]
        blk.rows[pos] = row
        blk.tags[pos] = tag
        blk.ids[pos] = row_id
        blk.count = count + 1
        np.fmin(blk.ideal, row, out=blk.ideal)
        np.fmax(blk.nadir, row, out=blk.nadir)
        self._block_of[row_id] = blk
        if blk.count == self._capacity:
            self._split(blk)
        else:
            self._write_summary(blk)

    def _split(self, blk: _SortedBlock) -> None:
        mid = blk.count // 2
        right = _SortedBlock(self._capacity, self._dim, blk.pos + 1)
        moved = blk.count - mid
        right.rows[:moved] = blk.rows[mid : blk.count]
        right.tags[:moved] = blk.tags[mid : blk.count]
        right.ids[:moved] = blk.ids[mid : blk.count]
        right.count = moved
        right.recompute_bounds()
        for row_id in right.ids[:moved].tolist():
            self._block_of[row_id] = right
        blk.count = mid
        blk.recompute_bounds()
        self._write_summary(blk)
        self._insert_block(right, blk.pos + 1)

    def remove_ids(self, ids: Iterable[int]) -> None:
        touched: Dict[int, Tuple[_SortedBlock, List[int]]] = {}
        for row_id in ids:
            if row_id in self._inert:
                del self._inert[row_id]
                self._len -= 1
                continue
            blk = self._block_of.pop(row_id)
            touched.setdefault(id(blk), (blk, []))[1].append(row_id)
        for blk, row_ids in touched.values():
            count = blk.count
            keep = ~np.isin(blk.ids[:count], np.asarray(row_ids, dtype=np.int64))
            kept = int(keep.sum())
            blk.rows[:kept] = blk.rows[:count][keep]
            blk.tags[:kept] = blk.tags[:count][keep]
            blk.ids[:kept] = blk.ids[:count][keep]
            blk.count = kept
            self._len -= count - kept
            if kept == 0:
                self._remove_block(blk)
            else:
                blk.recompute_bounds()
                self._write_summary(blk)

    # ------------------------------------------------------------- queries
    def any_covering(self, row, alpha, tag) -> bool:
        self._queries += 1
        if not self._nb or _has_nan(row):
            return False
        bound = alpha * row
        # A dominator m has m[0] <= bound[0]; blocks starting above that
        # first-objective value cannot contain one.
        window = int(
            np.searchsorted(self._sum_lo[: self._nb], bound[0], side="right")
        )
        if not window:
            return False
        gate = np.all(self._sum_ideal[:window] <= bound, axis=1)
        if not gate.any():
            return False
        if tag is None:
            sure = gate & np.all(self._sum_nadir[:window] <= bound, axis=1)
            if sure.any():
                return True
        for index in np.flatnonzero(gate).tolist():
            blk = self._blocks[index]
            mask = np.all(blk.rows[: blk.count] <= bound, axis=1)
            if tag is not None:
                mask &= blk.tags[: blk.count] == tag
            if mask.any():
                return True
        return False

    def dominated_ids(self, row, tag) -> List[int]:
        self._queries += 1
        if not self._nb or _has_nan(row):
            return []
        # A dominated row m has m[0] >= row[0]; blocks ending below that
        # cannot contain one.
        start = int(np.searchsorted(self._sum_hi[: self._nb], row[0], side="left"))
        if start >= self._nb:
            return []
        gate = np.all(row <= self._sum_nadir[start : self._nb], axis=1)
        if not gate.any():
            return []
        out: List[int] = []
        for offset in np.flatnonzero(gate).tolist():
            blk = self._blocks[start + offset]
            count = blk.count
            if tag is None and bool(np.all(row <= blk.ideal)):
                out.extend(blk.ids[:count].tolist())
                continue
            mask = np.all(row <= blk.rows[:count], axis=1)
            if tag is not None:
                mask &= blk.tags[:count] == tag
            if mask.any():
                out.extend(blk.ids[:count][mask].tolist())
        return out

    def any_strictly_dominating(self, row) -> bool:
        self._queries += 1
        if not self._nb or _has_nan(row):
            return False
        window = int(np.searchsorted(self._sum_lo[: self._nb], row[0], side="right"))
        if not window:
            return False
        gate = np.all(self._sum_ideal[:window] <= row, axis=1)
        if not gate.any():
            return False
        sure = (
            gate
            & np.all(self._sum_nadir[:window] <= row, axis=1)
            & np.any(self._sum_ideal[:window] < row, axis=1)
        )
        if sure.any():
            return True
        for index in np.flatnonzero(gate).tolist():
            blk = self._blocks[index]
            active = blk.rows[: blk.count]
            mask = np.all(active <= row, axis=1) & np.any(active < row, axis=1)
            if mask.any():
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SortedFrontier(size={self._len}, dim={self._dim}, blocks={self._nb})"
        )


# ---------------------------------------------------------------------------
# ND-tree store: bounding-cost tree with median splits
# ---------------------------------------------------------------------------
class _NDNode:
    """One ND-tree node: a leaf bucket of rows or an internal split."""

    __slots__ = (
        "parent",
        "children",
        "split_dim",
        "split_value",
        "rows",
        "tags",
        "ids",
        "count",
        "ideal",
        "nadir",
    )

    def __init__(self, parent: "_NDNode | None", capacity: int, dim: int) -> None:
        self.parent = parent
        self.children: List[_NDNode] | None = None
        self.split_dim = -1
        self.split_value = 0.0
        self.rows = np.empty((capacity, dim), dtype=np.float64)
        self.tags = np.empty(capacity, dtype=np.int64)
        self.ids = np.empty(capacity, dtype=np.int64)
        self.count = 0
        self.ideal = np.empty(dim, dtype=np.float64)
        self.nadir = np.empty(dim, dtype=np.float64)

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def recompute_leaf_bounds(self) -> None:
        active = self.rows[: self.count]
        self.ideal = np.fmin.reduce(active, axis=0)
        self.nadir = np.fmax.reduce(active, axis=0)

    def recompute_inner_bounds(self) -> None:
        assert self.children
        self.ideal = np.fmin.reduce([child.ideal for child in self.children], axis=0)
        self.nadir = np.fmax.reduce([child.nadir for child in self.children], axis=0)


class NDTreeFrontier:
    """ND-tree store: a binary tree of bounding boxes over the frontier.

    Every node carries the ``ideal``/``nadir`` corners of its subtree
    (maintained exactly under insertion and recomputed bottom-up after
    removals).  Queries prune with the same corner tests as the sorted
    store's blocks, but hierarchically: a subtree is skipped the moment its
    box cannot interact with the query row, bulk-accepted when its ``nadir``
    already answers the query, and bulk-collected when the query row
    dominates its ``ideal``.  Leaves split deterministically on the widest
    objective at the median, so tree shape — and therefore every result —
    is a pure function of the insertion sequence.
    """

    name = "ndtree"

    def __init__(self, num_metrics: int, leaf_size: int = 64) -> None:
        if leaf_size < 2:
            raise ValueError(f"leaf size must be at least 2, got {leaf_size}")
        self._dim = num_metrics
        self._leaf = leaf_size
        self._root: _NDNode | None = None
        self._leaf_of: Dict[int, _NDNode] = {}
        self._inert: Dict[int, None] = {}
        self._len = 0
        self._queries = 0

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        return self._len

    @property
    def stats(self) -> Dict[str, int | str]:
        """Cheap diagnostic counters (see :func:`store_stats`)."""
        return {"kind": self.name, "size": len(self), "queries": self._queries}

    def clear(self) -> None:
        self._root = None
        self._leaf_of = {}
        self._inert = {}
        self._len = 0

    # -------------------------------------------------------------- updates
    def bulk_load(self, ids, rows, tags) -> None:
        self.clear()
        rows = np.asarray(rows, dtype=np.float64).reshape(len(ids), self._dim)
        for row_id, row, tag in zip(ids, rows, tags):
            self.add(int(row_id), row, int(tag))

    def add(self, row_id: int, row: np.ndarray, tag: int) -> None:
        if _has_nan(row):
            self._inert[row_id] = None
            self._len += 1
            return
        self._len += 1
        if self._root is None:
            node = _NDNode(None, self._leaf, self._dim)
            self._root = node
            node.ideal = row.copy()
            node.nadir = row.copy()
        else:
            node = self._root
            while not node.is_leaf:
                np.fmin(node.ideal, row, out=node.ideal)
                np.fmax(node.nadir, row, out=node.nadir)
                assert node.children is not None
                node = (
                    node.children[0]
                    if row[node.split_dim] <= node.split_value
                    else node.children[1]
                )
            np.fmin(node.ideal, row, out=node.ideal)
            np.fmax(node.nadir, row, out=node.nadir)
        if node.count == node.rows.shape[0]:
            self._grow_or_split(node)
            # Re-descend from the (possibly now internal) node.
            while not node.is_leaf:
                assert node.children is not None
                node = (
                    node.children[0]
                    if row[node.split_dim] <= node.split_value
                    else node.children[1]
                )
        node.rows[node.count] = row
        node.tags[node.count] = tag
        node.ids[node.count] = row_id
        node.count += 1
        np.fmin(node.ideal, row, out=node.ideal)
        np.fmax(node.nadir, row, out=node.nadir)
        self._leaf_of[row_id] = node

    def _grow_or_split(self, leaf: _NDNode) -> None:
        """Split a full leaf at the median of its widest objective.

        When every objective is constant over the leaf (possible with
        equal-cost rows under different tags) the leaf cannot be split and
        its bucket is grown instead.
        """
        count = leaf.count
        with np.errstate(invalid="ignore"):
            # inf - inf (a constant-infinite objective) yields NaN: such a
            # dimension cannot discriminate, so rank it last.
            spread = leaf.nadir - leaf.ideal
        spread = np.where(np.isnan(spread), -np.inf, spread)
        for dim in np.argsort(-spread, kind="stable").tolist():
            column = leaf.rows[:count, dim]
            with np.errstate(invalid="ignore"):
                split_value = float(np.median(column))
            left_mask = column <= split_value
            left_count = int(left_mask.sum())
            if left_count == 0 or left_count == count:
                continue
            left = _NDNode(leaf, count, self._dim)
            right = _NDNode(leaf, count, self._dim)
            for child, mask in ((left, left_mask), (right, ~left_mask)):
                child_count = int(mask.sum())
                child.rows[:child_count] = leaf.rows[:count][mask]
                child.tags[:child_count] = leaf.tags[:count][mask]
                child.ids[:child_count] = leaf.ids[:count][mask]
                child.count = child_count
                child.recompute_leaf_bounds()
                for row_id in child.ids[:child_count].tolist():
                    self._leaf_of[row_id] = child
            leaf.children = [left, right]
            leaf.split_dim = int(dim)
            leaf.split_value = split_value
            leaf.rows = np.empty((0, self._dim), dtype=np.float64)
            leaf.tags = np.empty(0, dtype=np.int64)
            leaf.ids = np.empty(0, dtype=np.int64)
            leaf.count = 0
            return
        # Degenerate: grow the bucket in place.
        capacity = max(2 * count, 2)
        fresh_rows = np.empty((capacity, self._dim), dtype=np.float64)
        fresh_rows[:count] = leaf.rows[:count]
        leaf.rows = fresh_rows
        for attr in ("tags", "ids"):
            fresh_int = np.empty(capacity, dtype=np.int64)
            fresh_int[:count] = getattr(leaf, attr)[:count]
            setattr(leaf, attr, fresh_int)

    def remove_ids(self, ids: Iterable[int]) -> None:
        touched: Dict[int, Tuple[_NDNode, List[int]]] = {}
        for row_id in ids:
            if row_id in self._inert:
                del self._inert[row_id]
                self._len -= 1
                continue
            leaf = self._leaf_of.pop(row_id)
            touched.setdefault(id(leaf), (leaf, []))[1].append(row_id)
        for leaf, row_ids in touched.values():
            count = leaf.count
            keep = ~np.isin(leaf.ids[:count], np.asarray(row_ids, dtype=np.int64))
            kept = int(keep.sum())
            leaf.rows[:kept] = leaf.rows[:count][keep]
            leaf.tags[:kept] = leaf.tags[:count][keep]
            leaf.ids[:kept] = leaf.ids[:count][keep]
            leaf.count = kept
            self._len -= count - kept
            if kept == 0:
                self._detach(leaf)
            else:
                leaf.recompute_leaf_bounds()
                self._propagate_bounds(leaf.parent)

    def _detach(self, leaf: _NDNode) -> None:
        parent = leaf.parent
        if parent is None:
            self._root = None
            return
        assert parent.children is not None
        sibling = parent.children[0] if parent.children[1] is leaf else parent.children[1]
        grandparent = parent.parent
        sibling.parent = grandparent
        if grandparent is None:
            self._root = sibling
        else:
            assert grandparent.children is not None
            grandparent.children[
                grandparent.children.index(parent)
            ] = sibling
        # Re-point leaf bookkeeping below the hoisted sibling only if it is a
        # leaf (its descendants' parents are unchanged).
        if sibling.is_leaf:
            for row_id in sibling.ids[: sibling.count].tolist():
                self._leaf_of[row_id] = sibling
        self._propagate_bounds(grandparent)

    def _propagate_bounds(self, node: _NDNode | None) -> None:
        while node is not None:
            node.recompute_inner_bounds()
            node = node.parent

    # ------------------------------------------------------------- queries
    def any_covering(self, row, alpha, tag) -> bool:
        self._queries += 1
        root = self._root
        if root is None or _has_nan(row):
            return False
        bound = alpha * row
        stack = [root]
        while stack:
            node = stack.pop()
            if not bool(np.all(node.ideal <= bound)):
                continue
            if tag is None and bool(np.all(node.nadir <= bound)):
                return True
            if node.is_leaf:
                mask = np.all(node.rows[: node.count] <= bound, axis=1)
                if tag is not None:
                    mask &= node.tags[: node.count] == tag
                if mask.any():
                    return True
            else:
                assert node.children is not None
                stack.extend(node.children)
        return False

    def dominated_ids(self, row, tag) -> List[int]:
        self._queries += 1
        root = self._root
        if root is None or _has_nan(row):
            return []
        out: List[int] = []
        stack = [root]
        while stack:
            node = stack.pop()
            if not bool(np.all(row <= node.nadir)):
                continue
            if tag is None and bool(np.all(row <= node.ideal)):
                self._collect(node, out)
                continue
            if node.is_leaf:
                count = node.count
                mask = np.all(row <= node.rows[:count], axis=1)
                if tag is not None:
                    mask &= node.tags[:count] == tag
                if mask.any():
                    out.extend(node.ids[:count][mask].tolist())
            else:
                assert node.children is not None
                stack.extend(node.children)
        return out

    def _collect(self, node: _NDNode, out: List[int]) -> None:
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                out.extend(current.ids[: current.count].tolist())
            else:
                assert current.children is not None
                stack.extend(current.children)

    def any_strictly_dominating(self, row) -> bool:
        self._queries += 1
        root = self._root
        if root is None or _has_nan(row):
            return False
        stack = [root]
        while stack:
            node = stack.pop()
            if not bool(np.all(node.ideal <= row)):
                continue
            if bool(np.all(node.nadir <= row)) and bool(np.any(node.ideal < row)):
                return True
            if node.is_leaf:
                active = node.rows[: node.count]
                mask = np.all(active <= row, axis=1) & np.any(active < row, axis=1)
                if mask.any():
                    return True
            else:
                assert node.children is not None
                stack.extend(node.children)
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NDTreeFrontier(size={self._len}, dim={self._dim})"


# ---------------------------------------------------------------------------
# Sorted-window dominance fold (the climber's pruning under indexed policy)
# ---------------------------------------------------------------------------
def sorted_dominance_fold(matrix: np.ndarray) -> int:
    """Index selected by the sequential strict-dominance fold, via windows.

    Same result as :func:`repro.pareto.engine.dominance_fold` — the
    sequential "replace the incumbent with the first later row that strictly
    dominates it" scan — but each search is restricted to the sorted
    first-objective window ``row[0] <= incumbent[0]`` (a strict dominator
    can never be worse on any objective).  The window only shrinks as the
    incumbent improves, so adversarially this does no more comparisons than
    the plain vectorized fold and typically far fewer.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    if n == 0:
        raise ValueError("dominance fold needs at least one row")
    order = np.argsort(matrix[:, 0], kind="stable") if matrix.shape[1] else None
    if order is None:
        return 0
    sorted_first = matrix[order, 0]
    incumbent = 0
    position = 1
    while position < n:
        current = matrix[incumbent]
        window = int(np.searchsorted(sorted_first, current[0], side="right"))
        candidates = order[:window]
        candidates = candidates[candidates >= position]
        if candidates.size == 0:
            break
        rows = matrix[candidates]
        improving = np.all(rows <= current, axis=1) & np.any(rows < current, axis=1)
        hits = candidates[improving]
        if hits.size == 0:
            break
        incumbent = int(hits.min())
        position = incumbent + 1
    return incumbent
