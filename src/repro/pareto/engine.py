"""NumPy-backed Pareto kernel (the hot numeric layer).

The algorithm layer of this library (hill climbing, RMQ, DP, NSGA-II, the
benchmark harness) expresses everything in terms of a handful of numeric
primitives on cost vectors: dominance tests, (α-approximate) frontier
insertion with eviction, the multiplicative ε approximation error, and the
hypervolume indicator.  This module implements those primitives once, over
contiguous ``float64`` matrices, so that every algorithm gets faster at the
same time and later scaling work (sharding, larger grids, more metrics) has a
single kernel to optimize.

Design points:

* **Cost matrices** are C-contiguous ``float64`` arrays of shape
  ``(num_vectors, num_metrics)``; :func:`as_cost_matrix` builds them from any
  iterable of cost sequences.
* **Semantics match the scalar reference exactly.**  The pure-Python
  functions in :mod:`repro.pareto.dominance`, :mod:`repro.pareto.epsilon` and
  :mod:`repro.pareto.hypervolume` remain the executable specification; the
  property tests in ``tests/test_engine.py`` assert agreement on random
  inputs.  All comparisons here use the same IEEE-754 double operations as
  the scalar code (``a <= alpha * b`` and friends), so results are
  bit-identical, not merely close.
* **Adaptive dispatch.**  :class:`ParetoSet` keeps a plain tuple list next to
  its array buffer and answers queries with pure-Python loops while the set
  is tiny (NumPy call overhead dominates below ~16 rows) and with vectorized
  kernels beyond that.  Batch insertion is always vectorized.
* **Exact hypervolume.**  :func:`hypervolume_exact` accumulates the sweep in
  rational arithmetic (``fractions.Fraction``), which makes the indicator
  *numerically monotone under union*: the exact value is monotone and the
  final rounding to ``float`` is a monotone map.  :func:`hypervolume_sweep`
  is the fast ``float64`` variant for throughput-sensitive callers.
* **Tiered frontier stores.**  Dominance queries of :class:`ParetoSet` are
  answered by a pluggable store (:mod:`repro.pareto.store`): a flat scan, a
  first-objective-sorted block index, or an ND-tree — selected by an
  ``auto`` policy on frontier size and metric count.  Contents are
  bit-identical across stores; only query time differs.

Examples
--------
The paper's pruning rule, on the default store (reject if dominated, evict
what the new row dominates; evicted indices refer to pre-insert positions):

>>> from repro.pareto.engine import ParetoSet
>>> frontier = ParetoSet()
>>> frontier.insert((2.0, 1.0))
(True, [])
>>> frontier.insert((1.0, 2.0))
(True, [])
>>> frontier.insert((3.0, 3.0))        # dominated by both kept rows
(False, [])
>>> frontier.insert((1.0, 1.0))        # dominates both kept rows
(True, [0, 1])
>>> frontier.costs()
[(1.0, 1.0)]
>>> frontier.store_name                # small frontiers stay on the flat path
'flat'

Batch insertion is equivalent to inserting row by row (same acceptance
count, same kept rows, same order):

>>> frontier = ParetoSet()
>>> accepted, kept, surviving = frontier.insert_batch(
...     [(2.0, 1.0), (1.0, 2.0), (3.0, 3.0), (1.0, 2.0)])
>>> accepted, kept
(2, [0, 1])
>>> frontier.costs()
[(2.0, 1.0), (1.0, 2.0)]
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.pareto.store import (
    AUTO_ENGAGE_SIZE,
    FrontierStore,
    make_store,
    resolve_store_policy,
)

__all__ = [
    "as_cost_matrix",
    "dominates_matrix",
    "strictly_dominates_matrix",
    "approx_dominates_matrix",
    "pareto_kept_mask",
    "batch_insert_masks",
    "dominance_fold",
    "approximation_error_matrix",
    "alpha_coverage",
    "hypervolume_exact",
    "hypervolume_sweep",
    "ParetoSet",
]

#: Below this many rows, per-item queries run as pure-Python tuple loops
#: (NumPy dispatch overhead exceeds the arithmetic for tiny sets; typical
#: inserts short-circuit on the first covering row, which pushes the
#: crossover well past the worst-case full-scan break-even of ~16 rows).
SMALL_SET_SIZE = 32

#: Bound on the number of boolean cells materialized per broadcasting chunk
#: (~4M cells ≈ 4 MB of temporaries).
_CHUNK_CELLS = 1 << 22

_INITIAL_CAPACITY = 8


# ---------------------------------------------------------------------------
# Matrix construction
# ---------------------------------------------------------------------------
def as_cost_matrix(
    costs: Iterable[Sequence[float]], num_metrics: int | None = None
) -> np.ndarray:
    """Build a contiguous ``(n, d)`` ``float64`` cost matrix.

    Raises ``ValueError`` when the vectors are ragged or do not match the
    requested ``num_metrics``.
    """
    rows = [tuple(cost) for cost in costs]
    if not rows:
        width = 0 if num_metrics is None else num_metrics
        return np.empty((0, width), dtype=np.float64)
    width = len(rows[0])
    if num_metrics is not None and width != num_metrics:
        raise ValueError(
            f"cost vectors have different lengths: {width} vs {num_metrics}"
        )
    if any(len(row) != width for row in rows):
        raise ValueError("cost vectors must have the same length")
    matrix = np.asarray(rows, dtype=np.float64)
    if matrix.ndim == 1:  # list of empty tuples
        matrix = matrix.reshape(len(rows), 0)
    return np.ascontiguousarray(matrix)


def _chunk_rows(num_a: int, num_b: int, dim: int) -> int:
    """Row-chunk size keeping broadcast temporaries under ``_CHUNK_CELLS``."""
    return max(1, _CHUNK_CELLS // max(1, num_b * max(1, dim)))


# ---------------------------------------------------------------------------
# Batched dominance
# ---------------------------------------------------------------------------
def _all_leq_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``out[i, j] = all_k a[i, k] <= b[j, k]`` via per-metric column passes.

    The metric count is tiny (2–5), so ``d`` two-dimensional comparisons are
    much faster than one broadcast ``(n, m, d)`` temporary with a strided
    boolean reduction over the last axis.
    """
    n, d = a.shape
    m = b.shape[0]
    if d == 0:
        return np.ones((n, m), dtype=bool)
    out = a[:, 0, None] <= b[None, :, 0]
    for metric in range(1, d):
        out &= a[:, metric, None] <= b[None, :, metric]
    return out


def dominates_matrix(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Boolean matrix ``out[i, j] = first[i] ⪯ second[j]``."""
    a = np.asarray(first, dtype=np.float64)
    b = np.asarray(second, dtype=np.float64)
    return _all_leq_matrix(a, b)


def strictly_dominates_matrix(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Boolean matrix ``out[i, j] = first[i] ≺ second[j]``.

    Uses ``a ≺ b ⇔ a ⪯ b ∧ ¬(b ⪯ a)`` (on equal-length vectors the two
    definitions coincide: given ``a ⪯ b``, some component is strictly better
    exactly when the vectors differ).
    """
    a = np.asarray(first, dtype=np.float64)
    b = np.asarray(second, dtype=np.float64)
    return _all_leq_matrix(a, b) & ~_all_leq_matrix(b, a).T


def approx_dominates_matrix(
    first: np.ndarray, second: np.ndarray, alpha: float
) -> np.ndarray:
    """Boolean matrix ``out[i, j] = first[i] ⪯_α second[j]``.

    Uses the same per-component ``a <= alpha * b`` comparison as the scalar
    :func:`repro.pareto.dominance.approx_dominates`.
    """
    if alpha < 1.0:
        raise ValueError(f"approximation factor must be at least 1, got {alpha}")
    a = np.asarray(first, dtype=np.float64)
    b = alpha * np.asarray(second, dtype=np.float64)
    return _all_leq_matrix(a, b)


#: Cache of strict upper-triangle boolean masks keyed by matrix size (chunk
#: sizes repeat, and ``np.triu``/``np.tril`` rebuild a float ``tri`` mask on
#: every call, which shows up in the batch-insert profile).
_TRIANGLE_MASKS: dict = {}


def _upper_triangle_mask(size: int) -> np.ndarray:
    mask = _TRIANGLE_MASKS.get(size)
    if mask is None:
        mask = np.triu(np.ones((size, size), dtype=bool), 1)
        # Only chunk-scale masks recur (batch insertion chunks, small
        # frontiers); caching arbitrary sizes would grow without bound over a
        # long run, so larger masks stay transient.
        if size <= 256:
            _TRIANGLE_MASKS[size] = mask
    return mask


def _any_earlier(matrix: np.ndarray) -> np.ndarray:
    """Per-column ``j``: does ``matrix[i, j]`` hold for some ``i < j``?"""
    n = matrix.shape[0]
    return (matrix & _upper_triangle_mask(n)).any(axis=0)


def _any_later(matrix: np.ndarray) -> np.ndarray:
    """Per-column ``j``: does ``matrix[k, j]`` hold for some ``k > j``?"""
    n = matrix.shape[0]
    return (matrix & _upper_triangle_mask(n).T).any(axis=0)


def pareto_kept_mask(matrix: np.ndarray) -> np.ndarray:
    """Mask of rows kept by sequential exact-frontier insertion.

    Equivalent to inserting the rows in order into an exact (α = 1)
    :class:`~repro.pareto.frontier.ParetoFrontier`: row ``j`` survives iff no
    earlier row dominates it and no later row strictly dominates it (the
    first occurrence of duplicated non-dominated values is kept).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    dom = dominates_matrix(matrix, matrix)
    strict = dom & ~dom.T
    return ~_any_earlier(dom) & ~_any_later(strict)


def batch_insert_masks(
    existing: np.ndarray, batch: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decision masks of a sequential exact-frontier batch insertion.

    Given the current mutually non-dominated frontier rows ``existing`` and a
    ``batch`` of candidate rows, returns ``(accepted, kept_batch,
    surviving_existing)`` such that inserting the batch rows one by one with
    α = 1 accepts exactly ``accepted``, ends with batch rows ``kept_batch``
    kept (accepted and never evicted), and existing rows
    ``surviving_existing`` still present.  The equivalence relies on
    transitivity of dominance: a row is rejected iff *any* earlier row (kept
    or not) dominates it, and evicted iff *any* later batch row strictly
    dominates it.
    """
    batch = np.asarray(batch, dtype=np.float64)
    existing = np.asarray(existing, dtype=np.float64)
    m = batch.shape[0]
    if m == 0:
        return (
            np.zeros(0, dtype=bool),
            np.zeros(0, dtype=bool),
            np.ones(existing.shape[0], dtype=bool),
        )
    # Rows dominated by the existing frontier are rejected outright, and — by
    # the same transitive-chain argument — a surviving row can only be
    # rejected by an earlier *surviving* row or evicted by a later *surviving*
    # row (any chain of dominators through rejected rows ends at a surviving
    # one, or at an existing row that would have rejected the target too).
    # The quadratic intra-batch pass therefore runs on the usually-small
    # candidate subset only.
    if existing.shape[0]:
        dom_eb = dominates_matrix(existing, batch)
        rejected_by_existing = dom_eb.any(axis=0)
    else:
        dom_eb = None
        rejected_by_existing = np.zeros(m, dtype=bool)
    candidate_indices = np.flatnonzero(~rejected_by_existing)
    candidates = batch[candidate_indices]
    dom_cc = dominates_matrix(candidates, candidates)
    strict_cc = dom_cc & ~dom_cc.T
    accepted_candidates = ~_any_earlier(dom_cc)
    kept_candidates = accepted_candidates & ~_any_later(strict_cc)
    accepted = np.zeros(m, dtype=bool)
    accepted[candidate_indices] = accepted_candidates
    kept_batch = np.zeros(m, dtype=bool)
    kept_batch[candidate_indices] = kept_candidates
    if dom_eb is not None:
        accepted_rows = candidates[accepted_candidates]
        # batch[j] ≺ existing[i] ⇔ batch[j] ⪯ existing[i] ∧ ¬(existing[i] ⪯ batch[j]);
        # the second factor reuses the rejection matrix columns.
        dom_ea = dom_eb[:, candidate_indices[accepted_candidates]]
        evictors = dominates_matrix(accepted_rows, existing) & ~dom_ea.T
        surviving_existing = ~evictors.any(axis=0)
    else:
        surviving_existing = np.ones(0, dtype=bool)
    return accepted, kept_batch, surviving_existing


def dominance_fold(matrix: np.ndarray) -> int:
    """Index selected by the sequential strict-dominance fold.

    Equivalent to ``incumbent = 0; for j in 1..n-1: if row_j ≺ incumbent:
    incumbent = j`` (the per-format pruning of ``ParetoStep``), but each scan
    for the next improving row is a single vectorized comparison against the
    remaining rows.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    if n == 0:
        raise ValueError("dominance fold needs at least one row")
    incumbent = 0
    position = 1
    while position < n:
        tail = matrix[position:]
        current = matrix[incumbent]
        improving = np.all(tail <= current, axis=1) & np.any(tail < current, axis=1)
        hits = np.flatnonzero(improving)
        if hits.size == 0:
            break
        incumbent = position + int(hits[0])
        position = incumbent + 1
    return incumbent


# ---------------------------------------------------------------------------
# Approximation error (multiplicative ε indicator)
# ---------------------------------------------------------------------------
def approximation_error_matrix(
    produced: np.ndarray, reference: np.ndarray, ratio_floor: float = 1e-9
) -> float:
    """Vectorized multiplicative ε indicator (Section 6.1).

    Identical to the scalar :func:`repro.pareto.epsilon.approximation_error`
    on the same inputs: for every reference row the best produced cover
    ``min_a max_i a_i / r_i`` is found (components floored at
    ``ratio_floor``), and the worst cover over the reference, floored at one,
    is returned.
    """
    produced = np.asarray(produced, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if reference.shape[0] == 0:
        raise ValueError("the reference frontier must not be empty")
    if produced.shape[0] == 0:
        return float("inf")
    if produced.shape[1] != reference.shape[1]:
        raise ValueError("cost vectors must have the same length")
    if produced.shape[1] == 0:
        # Zero-metric vectors: every pairwise max-ratio is an empty maximum,
        # which the scalar reference treats as 0, flooring the result at 1.
        return 1.0
    produced_floored = np.maximum(produced, ratio_floor)
    reference_floored = np.maximum(reference, ratio_floor)
    worst = 1.0
    # The temporaries here are float64, not booleans: shrink the cell budget
    # by the element size so chunks stay within the intended memory bound.
    cell_budget = max(1, _CHUNK_CELLS // 8)
    step = max(1, cell_budget // max(1, produced.shape[0] * produced.shape[1]))
    for start in range(0, reference.shape[0], step):
        stop = start + step
        with np.errstate(invalid="ignore"):
            componentwise = (
                produced_floored[:, None, :] / reference_floored[None, start:stop, :]
            )
        # inf/inf yields NaN; the scalar max_ratio skips such components
        # (``nan > worst`` is false with ``worst`` starting at 0), so map
        # them to 0 while keeping genuine infinities.
        np.nan_to_num(componentwise, copy=False, nan=0.0, posinf=np.inf)
        ratios = componentwise.max(axis=2)
        best_cover = ratios.min(axis=0)
        chunk_worst = float(best_cover.max())
        if chunk_worst > worst:
            worst = chunk_worst
    return worst


def alpha_coverage(
    produced: np.ndarray, reference: np.ndarray, alpha: float
) -> bool:
    """Whether every reference row is α-dominated by some produced row."""
    produced = np.asarray(produced, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if reference.shape[0] == 0:
        raise ValueError("the reference frontier must not be empty")
    if produced.shape[0] == 0:
        return False
    return bool(approx_dominates_matrix(produced, reference, alpha).any(axis=0).all())


# ---------------------------------------------------------------------------
# Hypervolume
# ---------------------------------------------------------------------------
def hypervolume_exact(points: np.ndarray, reference: Sequence[float]) -> float:
    """Exact hypervolume of a point set, monotone under union.

    The slicing sweep is accumulated in rational arithmetic, so the result is
    the mathematically exact hypervolume of the (binary64) input points; the
    only rounding is the final conversion to ``float``, which is a monotone
    map.  Adding a point therefore never decreases the returned value.
    Points are expected to lie strictly inside the reference box (callers
    clean first); dominated points are harmless but slow the sweep down.
    """
    matrix = np.asarray(points, dtype=np.float64)
    if matrix.shape[0] == 0:
        return 0.0
    bounds = tuple(float(bound) for bound in reference)
    # Non-finite bounds never reach the rational sweep (Fraction rejects
    # them): a NaN or -inf bound admits no strictly-dominating point, and a
    # +inf bound gives every interior point infinite extent — the same
    # values the scalar float recursion produces.
    if any(bound != bound or bound == float("-inf") for bound in bounds):
        return 0.0
    if any(bound == float("inf") for bound in bounds):
        return float("inf")
    if not np.isfinite(matrix).all():
        # Mirror the scalar cleaning rule for out-of-contract inputs: NaN and
        # +inf coordinates cannot lie strictly inside a finite box, while a
        # -inf coordinate gives its point infinite dominated extent.
        inside = ~(np.isnan(matrix) | np.isposinf(matrix)).any(axis=1)
        matrix = matrix[inside]
        if matrix.shape[0] == 0:
            return 0.0
        if np.isneginf(matrix).any():
            return float("inf")
    reference_exact = tuple(Fraction(bound) for bound in bounds)
    rows = [tuple(Fraction(value) for value in row) for row in matrix.tolist()]
    return float(_exact_sweep(rows, reference_exact))


def _exact_sweep(
    points: List[Tuple[Fraction, ...]], reference: Tuple[Fraction, ...]
) -> Fraction:
    """Recursive slicing sweep in exact rational arithmetic."""
    dimension = len(reference)
    if dimension == 1:
        best = min(point[0] for point in points)
        return reference[0] - best if best < reference[0] else Fraction(0)
    ordered = sorted(points, key=lambda point: point[-1])
    total = Fraction(0)
    previous_bound = reference[-1]
    for index in range(len(ordered) - 1, -1, -1):
        height = previous_bound - ordered[index][-1]
        if height > 0:
            slab_points = _exact_pareto_filter(
                [point[:-1] for point in ordered[: index + 1]]
            )
            total += _exact_sweep(slab_points, reference[:-1]) * height
            previous_bound = ordered[index][-1]
    return total


def _exact_pareto_filter(
    points: List[Tuple[Fraction, ...]]
) -> List[Tuple[Fraction, ...]]:
    """Non-dominated subset under exact comparisons (first occurrence kept)."""
    kept: List[Tuple[Fraction, ...]] = []
    for point in points:
        if any(all(a <= b for a, b in zip(other, point)) for other in kept):
            continue
        kept = [
            other
            for other in kept
            if not all(a <= b for a, b in zip(point, other))
        ]
        kept.append(point)
    return kept


def hypervolume_sweep(points: np.ndarray, reference: Sequence[float]) -> float:
    """Fast ``float64`` hypervolume sweep (1-D, 2-D and 3-D).

    Within floating-point rounding of :func:`hypervolume_exact`; use the
    exact variant when monotonicity under union matters.  Dimensions above
    three fall back to the exact sweep.  Points must lie strictly inside the
    reference box.
    """
    matrix = np.asarray(points, dtype=np.float64)
    if matrix.shape[0] == 0:
        return 0.0
    bounds = np.asarray(tuple(float(v) for v in reference), dtype=np.float64)
    dimension = bounds.shape[0]
    if matrix.shape[1] != dimension:
        raise ValueError(
            f"cost vector of length {matrix.shape[1]} does not match reference of "
            f"length {dimension}"
        )
    if dimension == 1:
        return float(max(0.0, bounds[0] - matrix[:, 0].min()))
    if dimension == 2:
        return _sweep_2d(matrix, bounds)
    if dimension == 3:
        order = np.argsort(matrix[:, 2], kind="stable")
        z = matrix[order, 2]
        xy = matrix[order, :2]
        total = 0.0
        previous_bound = float(bounds[2])
        for index in range(z.shape[0] - 1, -1, -1):
            height = previous_bound - float(z[index])
            if height > 0:
                area = _sweep_2d(xy[: index + 1], bounds[:2])
                total += area * height
                previous_bound = float(z[index])
        return total
    return hypervolume_exact(matrix, reference)


def _sweep_2d(points: np.ndarray, bounds: np.ndarray) -> float:
    """Union area of ``[x_i, bx] × [y_i, by]`` boxes via a running-min sweep."""
    order = np.lexsort((points[:, 1], points[:, 0]))
    x = points[order, 0]
    y_running_min = np.minimum.accumulate(points[order, 1])
    widths = np.append(x[1:], bounds[0]) - x
    heights = np.maximum(bounds[1] - y_running_min, 0.0)
    return float(np.dot(widths, heights))


# ---------------------------------------------------------------------------
# ParetoSet: growable frontier buffer with sequential semantics
# ---------------------------------------------------------------------------
class ParetoSet:
    """Mutable set of cost rows kept mutually non-(α-)dominated.

    This is the storage kernel behind :class:`repro.pareto.frontier
    .ParetoFrontier`: a contiguous ``float64`` buffer grown by doubling,
    with a parallel tuple list used for the small-set fast path.  Each row
    can carry an integer ``tag``; insertion only compares rows with equal
    tags (a plan cache tags rows with the plan's output data format,
    implementing the paper's ``SigBetter``).  All mutating operations report which rows were evicted
    so that callers can keep side-car data (items, plans) aligned.

    ``store`` selects the frontier store answering dominance queries (see
    :mod:`repro.pareto.store`): ``"flat"`` scans the whole buffer,
    ``"sorted"`` and ``"ndtree"`` maintain an index, and ``"auto"`` (the
    default, overridable with the ``REPRO_FRONTIER_STORE`` environment
    variable) stays flat below ``AUTO_ENGAGE_SIZE`` rows and then picks an
    indexed tier by metric count.  The store is a pure search accelerator:
    kept rows, their order, and every accept/evict decision are identical
    across stores (``tests/test_store.py`` pins this bit-for-bit).
    """

    __slots__ = (
        "_dim",
        "_size",
        "_buffer",
        "_tags_buffer",
        "_tuples",
        "_tags",
        "_synced",
        "_policy",
        "_index",
        "_ids",
        "_next_id",
        "_has_tags",
    )

    def __init__(self, store: str | None = None) -> None:
        self._dim: int | None = None
        self._size = 0
        self._buffer: np.ndarray | None = None
        self._tags_buffer: np.ndarray | None = None
        self._tuples: List[Tuple[float, ...]] = []
        self._tags: List[int] = []
        # Number of leading rows of the array buffer that mirror the tuple
        # list.  Appends leave the buffer stale (small-set inserts are pure
        # list operations); the vectorized paths re-sync lazily.
        self._synced = 0
        # Frontier-store policy and (once engaged) the search index with its
        # id bookkeeping: stable per-row ids parallel to the tuple list and
        # the id -> position map used to translate eviction answers.
        self._policy = resolve_store_policy(store)
        self._index: FrontierStore | None = None
        # Stable per-row ids parallel to the tuple list, maintained only
        # while an index is engaged.  Appends take fresh increasing ids and
        # compaction preserves order, so the list is always strictly
        # ascending — the position of an id is a binary search away.
        self._ids: List[int] = []
        self._next_id = 0
        self._has_tags = False

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        return self._size

    @property
    def dim(self) -> int | None:
        """Number of metrics per row (``None`` while empty)."""
        return self._dim if self._size else None

    def costs(self) -> List[Tuple[float, ...]]:
        """The kept rows as float tuples, in insertion order."""
        return list(self._tuples)

    def array(self) -> np.ndarray:
        """Read-only ``(n, d)`` view of the kept rows (do not mutate)."""
        self._sync()
        if self._buffer is None:
            return np.empty((0, self._dim or 0), dtype=np.float64)
        return self._buffer[: self._size]

    @property
    def store_name(self) -> str:
        """Name of the store currently answering queries.

        ``"flat"`` until an indexed store engages; under the ``auto`` policy
        that happens once the frontier outgrows ``AUTO_ENGAGE_SIZE`` rows.
        """
        return self._index.name if self._index is not None else "flat"

    @property
    def store_policy(self) -> str:
        """The store policy this set was created with (after env resolution)."""
        return self._policy

    def clear(self) -> None:
        """Remove every row (the next insertion may use a new dimension)."""
        self._size = 0
        self._dim = None
        self._buffer = None
        self._tags_buffer = None
        self._tuples = []
        self._tags = []
        self._synced = 0
        self._index = None
        self._ids = []
        self._next_id = 0
        self._has_tags = False

    # ------------------------------------------------------------- internal
    def _prepare(self, cost: Sequence[float]) -> Tuple[float, ...]:
        row = tuple(float(value) for value in cost)
        if self._size and len(row) != self._dim:
            raise ValueError(
                f"cost vectors have different lengths: {self._dim} vs {len(row)}"
            )
        return row

    def _ensure_capacity(self, extra: int) -> None:
        assert self._dim is not None
        needed = self._size + extra
        if self._buffer is None:
            capacity = max(_INITIAL_CAPACITY, needed)
            self._buffer = np.empty((capacity, self._dim), dtype=np.float64)
            self._tags_buffer = np.empty(capacity, dtype=np.int64)
            self._synced = 0
        elif needed > self._buffer.shape[0]:
            capacity = max(self._buffer.shape[0] * 2, needed)
            buffer = np.empty((capacity, self._dim), dtype=np.float64)
            buffer[: self._synced] = self._buffer[: self._synced]
            tags = np.empty(capacity, dtype=np.int64)
            tags[: self._synced] = self._tags_buffer[: self._synced]
            self._buffer = buffer
            self._tags_buffer = tags
        assert self._tags_buffer is not None

    def _sync(self) -> None:
        """Bring the array buffer up to date with the tuple list."""
        if self._synced == self._size:
            return
        self._ensure_capacity(0)
        assert self._buffer is not None and self._tags_buffer is not None
        stale = slice(self._synced, self._size)
        self._buffer[stale] = np.asarray(
            self._tuples[stale], dtype=np.float64
        ).reshape(self._size - self._synced, self._dim or 0)
        self._tags_buffer[stale] = self._tags[stale]
        self._synced = self._size

    def _append(self, row: Tuple[float, ...], tag: int) -> None:
        if self._size == 0:
            self._dim = len(row)
            self._buffer = None
            self._tags_buffer = None
            self._synced = 0
        self._tuples.append(row)
        self._tags.append(tag)
        self._size += 1

    def _compact(self, evicted: List[int]) -> None:
        """Drop the rows at the given (ascending) positions.

        Small evictions delete in place (a C-level ``memmove`` per list);
        mass evictions rebuild the lists in one pass.  The buffer prefix
        before the first eviction still mirrors the rows, so only the
        suffix needs re-syncing.
        """
        track_ids = self._index is not None
        if len(evicted) <= 32:
            for position in reversed(evicted):
                del self._tuples[position]
                del self._tags[position]
                if track_ids:
                    del self._ids[position]
        else:
            keep = [True] * self._size
            for position in evicted:
                keep[position] = False
            self._tuples = [row for row, kept in zip(self._tuples, keep) if kept]
            self._tags = [tag for tag, kept in zip(self._tags, keep) if kept]
            if track_ids:
                self._ids = [
                    row_id for row_id, kept in zip(self._ids, keep) if kept
                ]
        self._size = len(self._tuples)
        self._synced = min(self._synced, evicted[0]) if evicted else self._synced

    # ------------------------------------------------------- indexed storage
    def _wants_index(self) -> bool:
        """Whether the policy asks for an indexed store at the current size."""
        if not self._dim:  # zero metrics: nothing for an index to prune on
            return False
        if self._policy in ("sorted", "ndtree"):
            return True
        return self._policy == "auto" and self._size > AUTO_ENGAGE_SIZE

    def _ensure_index(self, dim_hint: int | None = None) -> None:
        """Engage the indexed store, bulk-loading the current rows.

        Row ids are assigned equal to the current positions; later appends
        take fresh ids from ``_next_id``.
        """
        if self._index is not None:
            return
        dim = self._dim if self._size else dim_hint
        assert dim is not None
        self._index = make_store(self._policy, dim)
        self._ids = list(range(self._size))
        self._next_id = self._size
        if self._size:
            self._index.bulk_load(self._ids, self.array(), self._tags)

    def _insert_indexed(
        self, row: Tuple[float, ...], alpha: float, tag: int
    ) -> Tuple[bool, List[int]]:
        """Insert one prepared row through the engaged store index."""
        index = self._index
        assert index is not None
        row_array = np.asarray(row, dtype=np.float64)
        # With homogeneous (all-zero) tags the tag filter is a no-op; telling
        # the store so unlocks its bulk accept/collect corner tests.
        query_tag: int | None = tag if (self._has_tags or tag) else None
        if self._size:
            if index.any_covering(row_array, alpha, query_tag):
                return False, []
            evicted_ids = index.dominated_ids(row_array, query_tag)
        else:
            evicted_ids = []
        evicted: List[int] = []
        if evicted_ids:
            ids = self._ids
            evicted = [bisect_left(ids, row_id) for row_id in sorted(evicted_ids)]
            index.remove_ids(evicted_ids)
            self._compact(evicted)
        self._append(row, tag)
        row_id = self._next_id
        self._next_id += 1
        self._ids.append(row_id)
        index.add(row_id, row_array, tag)
        return True, evicted

    # -------------------------------------------------------------- updates
    def insert(
        self, cost: Sequence[float], alpha: float = 1.0, tag: int = 0
    ) -> Tuple[bool, List[int]]:
        """Insert one row under the paper's pruning rule.

        The row is rejected when an existing same-tag row α-dominates it;
        otherwise it is appended and existing same-tag rows it (exactly)
        dominates are evicted.  Returns ``(accepted, evicted_indices)`` with
        the evicted indices referring to pre-insertion positions, so callers
        can drop the matching side-car entries.
        """
        if alpha < 1.0:
            raise ValueError(f"approximation factor must be at least 1, got {alpha}")
        row = self._prepare(cost)
        if tag:
            self._has_tags = True
        if self._index is not None:
            return self._insert_indexed(row, alpha, tag)
        n = self._size
        if n == 0:
            self._append(row, tag)
            return True, []
        if self._wants_index():
            self._ensure_index()
            return self._insert_indexed(row, alpha, tag)
        if n <= SMALL_SET_SIZE:
            tuples, tags = self._tuples, self._tags
            for index in range(n):
                if tags[index] == tag and all(
                    a <= alpha * b for a, b in zip(tuples[index], row)
                ):
                    return False, []
            evicted = [
                index
                for index in range(n)
                if tags[index] == tag
                and all(a <= b for a, b in zip(row, tuples[index]))
            ]
        else:
            self._sync()
            assert self._buffer is not None and self._tags_buffer is not None
            active = self._buffer[:n]
            tag_match = self._tags_buffer[:n] == tag
            row_array = np.asarray(row, dtype=np.float64)
            covered = tag_match & np.all(active <= alpha * row_array, axis=1)
            if covered.any():
                return False, []
            evicted_mask = tag_match & np.all(row_array <= active, axis=1)
            evicted = np.flatnonzero(evicted_mask).tolist()
        if evicted:
            self._compact(evicted)
        self._append(row, tag)
        return True, evicted

    def insert_batch(
        self, costs: Sequence[Sequence[float]], chunk_size: int = 128
    ) -> Tuple[int, List[int], np.ndarray]:
        """Vectorized batch insertion with exact sequential semantics (α = 1).

        Equivalent to calling :meth:`insert` for every row in order with
        ``alpha=1`` and ``tag=0`` (tags are not supported on the batch path).
        Returns ``(accepted_count, kept_batch_indices,
        surviving_existing_mask)``: how many rows the sequential insertion
        would have accepted, which batch rows remain in the final set (in
        order), and which pre-existing rows survived.

        The batch is processed in chunks of ``chunk_size`` rows against the
        evolving frontier: each chunk needs one ``frontier × chunk`` and one
        triangular ``chunk × chunk`` dominance pass, so the total work is
        ``O(m·n + m·chunk_size)`` instead of the ``O(m²)`` of a single
        all-pairs pass — on typical workloads (large batches collapsing onto
        small frontiers) this is what makes the batch path beat sequential
        insertion by a wide margin.
        """
        if any(self._tags):
            raise ValueError("batch insertion does not support tagged rows")
        original_size = self._size
        num_rows = len(costs)
        if num_rows == 0:
            return 0, [], np.ones(original_size, dtype=bool)
        try:
            batch = np.asarray(costs, dtype=np.float64)
        except (ValueError, TypeError) as exc:
            raise ValueError("cost vectors must have the same length") from exc
        if batch.ndim == 1:  # list of empty tuples
            batch = batch.reshape(num_rows, 0)
        if batch.ndim != 2:
            raise ValueError("cost vectors must have the same length")
        width = batch.shape[1]
        if original_size and width != self._dim:
            raise ValueError(
                f"cost vectors have different lengths: {self._dim} vs {width}"
            )
        if width and (
            self._index is not None or self._policy in ("sorted", "ndtree")
        ):
            # Indexed stores replace the O(m·n)-per-chunk dominance pass with
            # per-row windowed queries against the index — the batch path is
            # *defined* as sequential insertion, so this is trivially
            # equivalent (and what the store tier is for on large frontiers).
            return self._insert_batch_indexed(batch)
        if original_size:
            frontier = self.array().copy()
        else:
            frontier = np.empty((0, width), dtype=np.float64)
        # Row provenance: negative = pre-existing row -(k+1), else batch index.
        origins: List[int] = [-(k + 1) for k in range(original_size)]
        accepted_total = 0
        for start in range(0, batch.shape[0], chunk_size):
            chunk = batch[start : start + chunk_size]
            accepted, kept_local, surviving = batch_insert_masks(frontier, chunk)
            accepted_total += int(accepted.sum())
            kept_rows = np.flatnonzero(kept_local)
            frontier = np.concatenate([frontier[surviving], chunk[kept_rows]])
            origins = [
                origin for origin, keep in zip(origins, surviving) if keep
            ] + [start + int(j) for j in kept_rows]
        surviving_existing = np.zeros(original_size, dtype=bool)
        kept_indices: List[int] = []
        for origin in origins:
            if origin < 0:
                surviving_existing[-origin - 1] = True
            else:
                kept_indices.append(origin)
        self._tuples = [
            self._tuples[k] for k in range(original_size) if surviving_existing[k]
        ] + [tuple(batch[j].tolist()) for j in kept_indices]
        self._tags = [0] * len(self._tuples)
        self._size = 0
        self._dim = width
        self._buffer = None
        self._tags_buffer = None
        self._ensure_capacity(frontier.shape[0])
        assert self._buffer is not None and self._tags_buffer is not None
        self._buffer[: frontier.shape[0]] = frontier
        self._tags_buffer[: frontier.shape[0]] = 0
        self._size = frontier.shape[0]
        self._synced = self._size
        return accepted_total, kept_indices, surviving_existing

    def _insert_batch_indexed(
        self, batch: np.ndarray
    ) -> Tuple[int, List[int], np.ndarray]:
        """Batch insertion through the store index (sequential semantics).

        Each row goes through :meth:`_insert_indexed`; stable row ids track
        which pre-existing rows survive and which batch rows are kept, so the
        return value matches the chunked flat kernel exactly.
        """
        original_size = self._size
        self._ensure_index(dim_hint=int(batch.shape[1]))
        ids_before = list(self._ids)
        new_id_to_batch: Dict[int, int] = {}
        accepted_total = 0
        for position in range(batch.shape[0]):
            row = tuple(batch[position].tolist())
            accepted, _ = self.insert(row, alpha=1.0, tag=0)
            if accepted:
                accepted_total += 1
                new_id_to_batch[self._ids[-1]] = position
        live = set(self._ids)
        surviving_existing = np.zeros(original_size, dtype=bool)
        for position, row_id in enumerate(ids_before):
            if row_id in live:
                surviving_existing[position] = True
        kept_indices = [
            new_id_to_batch[row_id]
            for row_id in self._ids
            if row_id in new_id_to_batch
        ]
        return accepted_total, kept_indices, surviving_existing

    # ------------------------------------------------------------- queries
    def covers(
        self, cost: Sequence[float], alpha: float, tag: int | None = None
    ) -> bool:
        """Whether some kept row (with matching tag, if given) α-dominates."""
        if alpha < 1.0:
            raise ValueError(f"approximation factor must be at least 1, got {alpha}")
        if self._size == 0:
            return False
        row = self._prepare(cost)
        n = self._size
        if self._index is not None:
            query_tag = tag if (self._has_tags or tag) else None
            return self._index.any_covering(
                np.asarray(row, dtype=np.float64), alpha, query_tag
            )
        if n <= SMALL_SET_SIZE:
            return any(
                (tag is None or self._tags[index] == tag)
                and all(a <= alpha * b for a, b in zip(self._tuples[index], row))
                for index in range(n)
            )
        self._sync()
        assert self._buffer is not None and self._tags_buffer is not None
        mask = np.all(
            self._buffer[:n] <= alpha * np.asarray(row, dtype=np.float64), axis=1
        )
        if tag is not None:
            mask &= self._tags_buffer[:n] == tag
        return bool(mask.any())

    def strictly_dominates_any(self, cost: Sequence[float]) -> bool:
        """Whether some kept row strictly dominates the given cost vector."""
        if self._size == 0:
            return False
        row = self._prepare(cost)
        n = self._size
        if self._index is not None:
            return self._index.any_strictly_dominating(
                np.asarray(row, dtype=np.float64)
            )
        if n <= SMALL_SET_SIZE:
            return any(
                all(a <= b for a, b in zip(kept, row))
                and any(a < b for a, b in zip(kept, row))
                for kept in self._tuples
            )
        self._sync()
        assert self._buffer is not None
        active = self._buffer[:n]
        row_array = np.asarray(row, dtype=np.float64)
        mask = np.all(active <= row_array, axis=1) & np.any(active < row_array, axis=1)
        return bool(mask.any())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParetoSet(size={self._size}, dim={self.dim})"
