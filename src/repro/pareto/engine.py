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
  relations in :mod:`repro.pareto.dominance` and the scalar ε indicator in
  :mod:`repro.pareto.epsilon` remain the executable specification; the
  property tests in ``tests/test_engine.py`` assert agreement on random
  inputs.  All comparisons here use the same IEEE-754 double operations as
  the scalar code (``a <= alpha * b`` and friends), so results are
  bit-identical, not merely close.
* **One insertion kernel.**  Every Pareto set of the library — the plan
  cache's per-table-set frontiers, the DP's subset simulator and every
  :class:`~repro.pareto.frontier.ParetoFrontier` archive — is a
  :class:`FrontierEntry` updated by :func:`entry_covered` /
  :func:`entry_append` (one row) and :func:`insert_batch` (a batch).  They
  apply Algorithm 3's pruning rule and are the only code that decides
  accept and evict.
* **Exact hypervolume.**  :func:`hypervolume_exact` accumulates the sweep in
  rational arithmetic (``fractions.Fraction``), which makes the indicator
  *numerically monotone under union*: the exact value is monotone and the
  final rounding to ``float`` is a monotone map.  :func:`hypervolume_sweep`
  is the fast ``float64`` variant for throughput-sensitive callers.

Examples
--------
The paper's pruning rule (reject if a same-tag row α-dominates, evict the
same-tag rows the new row dominates):

>>> import numpy as np
>>> from repro.pareto.engine import FrontierEntry, entry_append, entry_covered
>>> entry = FrontierEntry(num_metrics=2)
>>> for handle, cost in enumerate([(2.0, 1.0), (1.0, 2.0), (3.0, 3.0), (1.0, 1.0)]):
...     row = np.asarray(cost)
...     if not entry_covered(entry, 0, row, 1.0):
...         entry_append(entry, handle, 0, row)
>>> entry.handles                      # (3, 3) rejected; (1, 1) evicted both
[3]

A batch gives the decisions of inserting its rows one by one, in order
(the accepted positions, and the same kept rows in the same order):

>>> entry = FrontierEntry(num_metrics=2)
>>> costs = as_cost_matrix([(2.0, 1.0), (1.0, 2.0), (3.0, 3.0), (1.0, 2.0)])
>>> insert_batch(entry, costs, np.zeros(4, dtype=np.int64), 1.0, lambda position: position)
(2, [0, 1])
>>> entry.rows.tolist()
[[2.0, 1.0], [1.0, 2.0]]
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "as_cost_matrix",
    "dominates_matrix",
    "strictly_dominates_matrix",
    "approx_dominates_matrix",
    "dominance_fold",
    "FrontierEntry",
    "entry_covered",
    "entry_append",
    "insert_batch",
    "approximation_error_matrix",
    "alpha_coverage",
    "hypervolume_exact",
    "hypervolume_sweep",
]

#: Groups of at most this many rows are folded by plain Python loops (the
#: climber's per-format pruning): NumPy dispatch overhead exceeds the
#: arithmetic for tiny sets.
SMALL_SET_SIZE = 32

#: Bound on the number of boolean cells materialized per broadcasting chunk
#: (~4M cells ≈ 4 MB of temporaries).
_CHUNK_CELLS = 1 << 22


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
# Frontier entries: the one insertion kernel
# ---------------------------------------------------------------------------
class FrontierEntry:
    """One Pareto set: handles, integer tags and cost rows, kept aligned.

    The handles are opaque to the kernel: plan-arena handles in the plan
    cache, placeholders in the DP's subset simulator, the items themselves
    in a :class:`~repro.pareto.frontier.ParetoFrontier`.  Rows only ever
    reject or evict rows of their own tag; the plan cache tags each row
    with its plan's output format, which implements the paper's
    ``SigBetter``.
    """

    __slots__ = ("handles", "tags", "rows")

    def __init__(self, num_metrics: int) -> None:
        self.handles: list = []
        self.tags: List[int] = []
        self.rows = np.empty((0, num_metrics), dtype=np.float64)


def _leq_columns(row: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``out[j] = all_k row[k] <= columns[k, j]``, one pass per metric.

    A 2–5 metric row compared column by column is several times faster
    than ``(row <= matrix).all(axis=1)`` and gives the same booleans.
    """
    if columns.shape[0] == 0:
        return np.ones(columns.shape[1], dtype=bool)
    out = row[0] <= columns[0]
    for metric in range(1, columns.shape[0]):
        out &= row[metric] <= columns[metric]
    return out


def entry_covered(entry: FrontierEntry, tag: int, row: np.ndarray, alpha: float) -> bool:
    """Whether a same-tag row of ``entry`` α-dominates ``row`` (``SigBetter``)."""
    if not entry.handles:
        return False
    tag_match = np.asarray(entry.tags, dtype=np.int64) == tag
    covered = tag_match & np.all(entry.rows <= alpha * row, axis=1)
    return bool(covered.any())


def entry_append(entry: FrontierEntry, handle, tag: int, row: np.ndarray) -> None:
    """Append an accepted row, evicting the same-tag rows it dominates."""
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


def _covered_by_entry(
    entry: FrontierEntry, costs: np.ndarray, tags: np.ndarray, alpha: float
) -> np.ndarray:
    """Per batch row: does a same-tag entry row α-dominate it?

    One fused (frontier × batch) pass per column chunk — tag equality and
    the elementwise comparison of :func:`entry_covered` — with the chunk
    bounded so the boolean temporaries stay under ``_CHUNK_CELLS``.
    """
    entry_tags = np.asarray(entry.tags, dtype=np.int64)[:, None]
    size = costs.shape[0]
    step = max(1, _CHUNK_CELLS // len(entry.handles))
    covered = np.empty(size, dtype=bool)
    for start in range(0, size, step):
        stop = start + step
        covered[start:stop] = (
            (entry_tags == tags[None, start:stop])
            & approx_dominates_matrix(entry.rows, costs[start:stop], alpha)
        ).any(axis=0)
    return covered


def insert_batch(
    entry: FrontierEntry,
    costs: np.ndarray,
    tags: np.ndarray,
    alpha: float,
    realize: Callable[[int], object],
) -> Tuple[int, List[int]]:
    """Insert a batch of rows into ``entry``; returns (count, positions).

    Decision-identical to inserting the rows one by one, in order, through
    :func:`entry_covered` and :func:`entry_append` (property-tested against
    that scalar oracle in ``tests/test_shm.py``): the accepted positions
    come back in batch order, and the entry ends with its surviving rows
    followed by the kept batch rows in batch order.  ``realize(position)``
    is called once per accepted row, in order, and its result becomes the
    row's handle; rows accepted and then evicted by a later batch row are
    reported too (the DP's replay needs them to reproduce mid-batch
    decisions).

    This is the sequential block-nested-loop skyline (Börzsönyi, Kossmann
    and Stocker, "The Skyline Operator", ICDE 2001): one fused
    (frontier × batch) α-cover pre-filter drops the rows the pre-batch
    frontier covers, then a sweep runs once per **accepted** row — each
    acceptance rejects every later survivor it α-covers and evicts the
    kept batch rows and frontier rows it dominates.  Accepted rows are few
    next to the batch, so the work grows with batch × accepted rows and the
    memory with the batch, never with batch².

    Three facts make the decomposition sound:

    * the α-cover pre-filter against the *pre-batch* frontier is exhaustive
      for frontier rows — mid-batch evictions only remove frontier rows,
      and any evictor covers (by transitivity of ``<=`` against the same
      computed ``α·cost`` values) everything its victim covered;
    * the same transitivity lets acceptance-time rejection stand in for
      the sequential check against *currently kept* batch rows: a row
      covered only by a later-evicted row is also covered by its evictor;
    * eviction requires exact dominance, which is order-insensitive.
    """
    if entry.handles:
        survivors = np.flatnonzero(~_covered_by_entry(entry, costs, tags, alpha))
    else:
        survivors = np.arange(costs.shape[0])
    if survivors.size == 0:
        return 0, []
    if survivors.size == 1:
        # A lone survivor is always accepted (no batch row can cover it).
        position = int(survivors[0])
        entry_append(entry, realize(position), int(tags[position]), costs[position])
        return 1, [position]
    rows = costs[survivors]
    tags = tags[survivors]
    # Metric-major copies, so every comparison below is one contiguous pass
    # per metric.  alpha * cost is computed once per row: every cover test
    # against it reads the same float values entry_covered computes, and at
    # alpha = 1 it is the cost itself (1.0 * x == x for every float).
    columns = np.ascontiguousarray(rows.T)
    cover_columns = columns if alpha == 1.0 else alpha * columns
    frontier_columns = entry.rows.T
    frontier_tags = np.asarray(entry.tags, dtype=np.int64)
    frontier_alive = np.ones(len(entry.handles), dtype=bool)
    alive = np.ones(rows.shape[0], dtype=bool)
    kept = np.zeros(rows.shape[0], dtype=bool)
    accepted: List[int] = []
    index = 0
    while index < alive.shape[0]:
        remaining = alive[index:]
        step = int(remaining.argmax())
        if not remaining[step]:
            break
        i = index + step
        index = i + 1
        tag = tags[i]
        row = rows[i]
        # Reject every survivor this row α-covers.  Earlier positions and
        # i itself may flip too, but the scan never revisits them.
        covers = _leq_columns(row, cover_columns)
        covers &= tags == tag
        alive &= ~covers
        # Evict the kept batch rows it dominates (exact dominance).
        if alpha == 1.0:
            dominated = covers
        else:
            dominated = _leq_columns(row, columns)
            dominated &= tags == tag
        kept &= ~dominated
        kept[i] = True
        if frontier_alive.shape[0]:
            evicted = _leq_columns(row, frontier_columns)
            evicted &= frontier_tags == tag
            frontier_alive &= ~evicted
        accepted.append(i)
    survivor_positions = survivors.tolist()
    handles = {i: realize(survivor_positions[i]) for i in accepted}
    if not frontier_alive.all():
        keep = np.flatnonzero(frontier_alive)
        entry.rows = entry.rows[keep]
        kept_positions = keep.tolist()
        entry.handles = [entry.handles[k] for k in kept_positions]
        entry.tags = [entry.tags[k] for k in kept_positions]
    kept_rows = np.flatnonzero(kept)
    entry.rows = np.concatenate([entry.rows, rows[kept_rows]])
    entry.handles.extend(handles[i] for i in kept_rows.tolist())
    entry.tags.extend(tags[kept_rows].tolist())
    return len(accepted), [survivor_positions[i] for i in accepted]


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
