"""Per-metric cost formulas.

Each metric implements two per-node contribution functions (one for scans,
one for joins).  The total plan cost for a metric is the sum of the node
contributions over the plan tree, computed incrementally by
:class:`~repro.cost.model.PlanFactory`.  Using additive node contributions
keeps every metric consistent with the multi-objective principle of
optimality exploited by Algorithm 2.

The three metrics of the paper's evaluation:

``TimeMetric``
    Textbook I/O-dominated execution-time formulas (block-nested-loop, hash,
    sort-merge joins; sequential and index scans).  Parallel operator
    variants divide their time by the parallelism degree.
``BufferMetric``
    Working-memory footprint: hash joins hold their build side, sort-merge
    and block-nested-loop joins hold their configured memory budget.
``DiskMetric``
    Temporary disk footprint: materialized outputs, hash-join spill
    partitions and external-sort runs.

Extension metrics (used by the example applications, not by the paper's main
grid): ``MonetaryMetric``, ``EnergyMetric`` and ``PrecisionLossMetric``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple, Type

import numpy as np

from repro.plans.operators import (
    DataFormat,
    JoinAlgorithm,
    JoinOperator,
    ScanAlgorithm,
    ScanOperator,
)
from repro.plans.plan import Plan
from repro.query.table import PAGE_SIZE_BYTES, Table


@dataclass(frozen=True)
class CostModelConfig:
    """Shared parameters of all cost metrics.

    Parameters
    ----------
    bytes_per_row:
        Average width of intermediate-result rows; used to convert row counts
        into page counts.
    page_size_bytes:
        Page size for the row-to-page conversion.
    cpu_cost_per_row:
        CPU cost charged per produced output row (in the same unit as one
        page I/O), so that even fully cached plans have non-zero time cost.
    price_per_time_unit:
        Monetary price of one time unit on one worker (cloud scenario).
    parallelism_overhead:
        Fractional monetary overhead per additional worker (coordination,
        shuffling) in the cloud scenario.
    power_per_time_unit:
        Energy drawn per time unit of single-threaded work.
    """

    bytes_per_row: float = 100.0
    page_size_bytes: float = PAGE_SIZE_BYTES
    cpu_cost_per_row: float = 0.001
    price_per_time_unit: float = 1.0
    parallelism_overhead: float = 0.1
    power_per_time_unit: float = 1.0

    def pages(self, cardinality: float) -> float:
        """Number of pages occupied by ``cardinality`` intermediate rows."""
        return max(1.0, cardinality * self.bytes_per_row / self.page_size_bytes)


class CostMetric:
    """Interface of a single cost metric.

    Sub-classes implement the per-node contribution functions.  All
    contributions must be non-negative so that total plan cost is monotone in
    its sub-plan costs.

    A join node's contribution only depends on the *cardinalities* of its
    inputs, never on their structure, so every metric exposes three layers:

    * :meth:`join_cost` — object layer, reads ``outer.cardinality`` /
      ``inner.cardinality`` and delegates;
    * :meth:`join_cost_cards` — scalar kernel on plain floats (what the plan
      arena uses for one-off nodes);
    * :meth:`join_cost_batch` — vectorized kernel on NumPy arrays for one
      fixed operator, **bit-identical** to calling :meth:`join_cost_cards`
      element by element (pinned by ``tests/test_arena.py``).
    """

    #: Short machine-readable metric name (used in reports and metric selection).
    name: str = "abstract"

    def scan_cost(
        self,
        table: Table,
        operator: ScanOperator,
        output_cardinality: float,
        config: CostModelConfig,
    ) -> float:
        """Cost contribution of a scan node."""
        raise NotImplementedError

    def join_cost(
        self,
        outer: Plan,
        inner: Plan,
        operator: JoinOperator,
        output_cardinality: float,
        config: CostModelConfig,
    ) -> float:
        """Cost contribution of a join node (excluding its children)."""
        return self.join_cost_cards(
            outer.cardinality, inner.cardinality, operator, output_cardinality, config
        )

    def join_cost_cards(
        self,
        outer_cardinality: float,
        inner_cardinality: float,
        operator: JoinOperator,
        output_cardinality: float,
        config: CostModelConfig,
    ) -> float:
        """Join contribution from input/output cardinalities (scalar kernel)."""
        raise NotImplementedError

    def join_cost_batch(
        self,
        outer_cardinalities: np.ndarray,
        inner_cardinalities: np.ndarray,
        operator: JoinOperator,
        output_cardinalities: np.ndarray,
        config: CostModelConfig,
        pages: "Tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None,
    ) -> np.ndarray:
        """Vectorized join contributions for one operator over many pairs.

        ``pages`` optionally carries precomputed ``(outer, inner, output)``
        page counts so that several metrics costing the same batch share
        them.  The default implementation falls back to the scalar kernel
        per element, so custom metrics stay correct (if slow) under the
        batch engine; the built-in metrics override it with array formulas
        that perform the exact same IEEE-754 operations.
        """
        del pages
        return np.asarray(
            [
                self.join_cost_cards(
                    float(outer), float(inner), operator, float(output), config
                )
                for outer, inner, output in zip(
                    outer_cardinalities, inner_cardinalities, output_cardinalities
                )
            ],
            dtype=np.float64,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def _sequential_join_time(
    outer_cardinality: float,
    inner_cardinality: float,
    operator: JoinOperator,
    output_cardinality: float,
    config: CostModelConfig,
) -> float:
    """Single-threaded execution time of a join node.

    Shared by the time, monetary and energy metrics (which scale it
    differently with the parallelism degree).
    """
    outer_pages = config.pages(outer_cardinality)
    inner_pages = config.pages(inner_cardinality)
    output_pages = config.pages(output_cardinality)
    cpu = config.cpu_cost_per_row * output_cardinality

    if operator.algorithm is JoinAlgorithm.HASH:
        # Build the inner side, probe with the outer side.  If the build side
        # exceeds the memory budget, both sides are partitioned to disk and
        # re-read (classic Grace hash join).
        io = outer_pages + inner_pages
        if inner_pages > operator.memory_pages:
            io += 2.0 * (outer_pages + inner_pages)
    elif operator.algorithm is JoinAlgorithm.SORT_MERGE:
        # External sort of both inputs followed by a merge pass.
        io = _external_sort_cost(outer_pages, operator.memory_pages)
        io += _external_sort_cost(inner_pages, operator.memory_pages)
        io += outer_pages + inner_pages
    elif operator.algorithm is JoinAlgorithm.BLOCK_NESTED_LOOP:
        # One pass over the outer per block of memory, scanning the inner each
        # time.  A non-finite block count stays as it is, like ``np.ceil``.
        blocks = outer_pages / operator.memory_pages
        if math.isfinite(blocks):
            blocks = math.ceil(blocks)
        io = outer_pages + blocks * inner_pages
    elif operator.algorithm is JoinAlgorithm.NESTED_LOOP:
        # Tuple-at-a-time nested loop: one inner scan per outer row.
        io = outer_pages + outer_cardinality * inner_pages
    else:  # pragma: no cover - defensive, enum is exhaustive
        raise ValueError(f"unknown join algorithm: {operator.algorithm}")

    materialization = (
        output_pages if operator.output_format is DataFormat.MATERIALIZED else 0.0
    )
    return io + materialization + cpu


def _external_sort_cost(pages: float, memory_pages: float) -> float:
    """I/O cost of an external merge sort of ``pages`` with ``memory_pages`` buffers."""
    if pages <= memory_pages:
        return pages
    runs = math.ceil(pages / memory_pages)
    fan_in = max(2.0, memory_pages - 1.0)
    merge_passes = max(1.0, math.ceil(math.log(runs, fan_in)))
    return 2.0 * pages * (1.0 + merge_passes)


# ---------------------------------------------------------------------------
# Vectorized kernels (one fixed operator, arrays of cardinalities)
# ---------------------------------------------------------------------------
# Every array formula below performs the same IEEE-754 double operations, in
# the same order and association, as its scalar twin above, so batch and
# scalar costing agree bit for bit.  Two constructions need care:
#
# * ``max(1.0, x)`` returns 1.0 for NaN inputs in Python (the comparison
#   ``x > 1.0`` is false), while ``np.maximum`` propagates NaN — so the batch
#   code uses ``np.where(x > 1.0, x, 1.0)``;
# * ``np.log`` may differ from C ``log`` by one ulp on some NumPy builds
#   (SIMD polynomial implementations), so the merge-pass count of the
#   external sort is computed with ``math.log`` on the (few) distinct run
#   counts instead of a vectorized logarithm.
def _pages_batch(cardinalities: np.ndarray, config: CostModelConfig) -> np.ndarray:
    """Vectorized :meth:`CostModelConfig.pages`."""
    raw = cardinalities * config.bytes_per_row / config.page_size_bytes
    return np.where(raw > 1.0, raw, 1.0)


def _merge_passes_batch(runs: np.ndarray, fan_in: float) -> np.ndarray:
    """``max(1.0, ceil(log(runs, fan_in)))`` per element, via ``math.log``.

    Run counts are ceiling results, so the number of distinct values in a
    batch is tiny; evaluating the logarithm with ``math`` per distinct value
    keeps the result bit-identical to the scalar kernel on every platform.
    """
    passes = np.empty_like(runs)
    for value in np.unique(runs).tolist():
        passes[runs == value] = max(1.0, math.ceil(math.log(value, fan_in)))
    return passes


def _external_sort_cost_batch(pages: np.ndarray, memory_pages: float) -> np.ndarray:
    """Vectorized :func:`_external_sort_cost`."""
    cost = pages.copy()
    spill = pages > memory_pages
    if spill.any():
        spilled = pages[spill]
        runs = np.ceil(spilled / memory_pages)
        fan_in = max(2.0, memory_pages - 1.0)
        merge_passes = _merge_passes_batch(runs, fan_in)
        cost[spill] = 2.0 * spilled * (1.0 + merge_passes)
    return cost


def _sequential_join_time_batch(
    outer_cardinalities: np.ndarray,
    inner_cardinalities: np.ndarray,
    operator: JoinOperator,
    output_cardinalities: np.ndarray,
    config: CostModelConfig,
    pages: "Tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None,
) -> np.ndarray:
    """Vectorized :func:`_sequential_join_time` for one operator."""
    if pages is not None:
        outer_pages, inner_pages, output_pages = pages
    else:
        outer_pages = _pages_batch(outer_cardinalities, config)
        inner_pages = _pages_batch(inner_cardinalities, config)
        output_pages = _pages_batch(output_cardinalities, config)
    cpu = config.cpu_cost_per_row * output_cardinalities

    if operator.algorithm is JoinAlgorithm.HASH:
        io = outer_pages + inner_pages
        spill = inner_pages > operator.memory_pages
        if spill.any():
            io[spill] = io[spill] + 2.0 * (outer_pages[spill] + inner_pages[spill])
    elif operator.algorithm is JoinAlgorithm.SORT_MERGE:
        io = _external_sort_cost_batch(outer_pages, operator.memory_pages)
        io = io + _external_sort_cost_batch(inner_pages, operator.memory_pages)
        io = io + (outer_pages + inner_pages)
    elif operator.algorithm is JoinAlgorithm.BLOCK_NESTED_LOOP:
        blocks = np.ceil(outer_pages / operator.memory_pages)
        io = outer_pages + blocks * inner_pages
    elif operator.algorithm is JoinAlgorithm.NESTED_LOOP:
        io = outer_pages + outer_cardinalities * inner_pages
    else:  # pragma: no cover - defensive, enum is exhaustive
        raise ValueError(f"unknown join algorithm: {operator.algorithm}")

    if operator.output_format is DataFormat.MATERIALIZED:
        return io + output_pages + cpu
    return io + 0.0 + cpu


def _sequential_scan_time(
    table: Table,
    operator: ScanOperator,
    output_cardinality: float,
    config: CostModelConfig,
) -> float:
    """Single-threaded execution time of a scan node."""
    table_pages = max(1.0, table.cardinality * table.row_width / config.page_size_bytes)
    cpu = config.cpu_cost_per_row * output_cardinality
    if operator.algorithm is ScanAlgorithm.INDEX:
        # Index scans touch a fraction of the pages plus the index traversal.
        io = 0.2 * table_pages + math.log2(table.cardinality + 1.0)
    elif operator.algorithm is ScanAlgorithm.SAMPLE:
        io = table_pages * operator.sampling_rate
    else:
        io = table_pages
    materialization = (
        config.pages(output_cardinality)
        if operator.output_format is DataFormat.MATERIALIZED
        else 0.0
    )
    return io + materialization + cpu


class TimeMetric(CostMetric):
    """Estimated execution time (I/O + CPU), divided by operator parallelism."""

    name = "time"

    def scan_cost(self, table, operator, output_cardinality, config):
        sequential = _sequential_scan_time(table, operator, output_cardinality, config)
        return sequential / operator.parallelism

    def join_cost_cards(
        self, outer_cardinality, inner_cardinality, operator, output_cardinality, config
    ):
        sequential = _sequential_join_time(
            outer_cardinality, inner_cardinality, operator, output_cardinality, config
        )
        return sequential / operator.parallelism

    def join_cost_batch(
        self, outer_cardinalities, inner_cardinalities, operator,
        output_cardinalities, config, pages=None,
    ):
        sequential = _sequential_join_time_batch(
            outer_cardinalities, inner_cardinalities, operator,
            output_cardinalities, config, pages,
        )
        return sequential / operator.parallelism


class BufferMetric(CostMetric):
    """Working-memory footprint accumulated over the plan's operators."""

    name = "buffer"

    def scan_cost(self, table, operator, output_cardinality, config):
        del table, output_cardinality, config
        # A scan needs one page per degree of parallelism for its read buffer.
        return float(operator.parallelism)

    def join_cost_cards(
        self, outer_cardinality, inner_cardinality, operator, output_cardinality, config
    ):
        del outer_cardinality, output_cardinality
        inner_pages = config.pages(inner_cardinality)
        if operator.algorithm is JoinAlgorithm.HASH:
            # The build side must be held in memory (capped by the budget when
            # the join degrades to a partitioned hash join).
            return min(inner_pages, operator.memory_pages) + float(operator.parallelism)
        if operator.algorithm in (
            JoinAlgorithm.SORT_MERGE,
            JoinAlgorithm.BLOCK_NESTED_LOOP,
        ):
            return float(operator.memory_pages)
        # Tuple nested loop only buffers a single page per input.
        return 2.0

    def join_cost_batch(
        self, outer_cardinalities, inner_cardinalities, operator,
        output_cardinalities, config, pages=None,
    ):
        size = inner_cardinalities.shape[0]
        if operator.algorithm is JoinAlgorithm.HASH:
            inner_pages = (
                pages[1] if pages is not None
                else _pages_batch(inner_cardinalities, config)
            )
            # ``min(x, m)`` keeps NaN (both the comparison-based Python min
            # and np.minimum return the NaN operand here).
            return np.minimum(inner_pages, operator.memory_pages) + float(
                operator.parallelism
            )
        if operator.algorithm in (
            JoinAlgorithm.SORT_MERGE,
            JoinAlgorithm.BLOCK_NESTED_LOOP,
        ):
            return np.full(size, float(operator.memory_pages))
        return np.full(size, 2.0)


class DiskMetric(CostMetric):
    """Temporary disk footprint (spill files, sort runs, materialized outputs)."""

    name = "disk"

    def scan_cost(self, table, operator, output_cardinality, config):
        del table
        if operator.output_format is DataFormat.MATERIALIZED:
            return config.pages(output_cardinality)
        return 0.0

    def join_cost_cards(
        self, outer_cardinality, inner_cardinality, operator, output_cardinality, config
    ):
        outer_pages = config.pages(outer_cardinality)
        inner_pages = config.pages(inner_cardinality)
        spill = 0.0
        if operator.algorithm is JoinAlgorithm.HASH:
            if inner_pages > operator.memory_pages:
                spill = outer_pages + inner_pages
        elif operator.algorithm is JoinAlgorithm.SORT_MERGE:
            if outer_pages > operator.memory_pages:
                spill += outer_pages
            if inner_pages > operator.memory_pages:
                spill += inner_pages
        materialization = (
            config.pages(output_cardinality)
            if operator.output_format is DataFormat.MATERIALIZED
            else 0.0
        )
        return spill + materialization

    def join_cost_batch(
        self, outer_cardinalities, inner_cardinalities, operator,
        output_cardinalities, config, pages=None,
    ):
        if pages is not None:
            outer_pages, inner_pages, output_pages = pages
        else:
            outer_pages = _pages_batch(outer_cardinalities, config)
            inner_pages = _pages_batch(inner_cardinalities, config)
            output_pages = None
        spill = np.zeros(outer_pages.shape[0])
        if operator.algorithm is JoinAlgorithm.HASH:
            mask = inner_pages > operator.memory_pages
            spill[mask] = outer_pages[mask] + inner_pages[mask]
        elif operator.algorithm is JoinAlgorithm.SORT_MERGE:
            mask = outer_pages > operator.memory_pages
            spill[mask] = spill[mask] + outer_pages[mask]
            mask = inner_pages > operator.memory_pages
            spill[mask] = spill[mask] + inner_pages[mask]
        if operator.output_format is DataFormat.MATERIALIZED:
            if output_pages is None:
                output_pages = _pages_batch(output_cardinalities, config)
            return spill + output_pages
        return spill + 0.0


class MonetaryMetric(CostMetric):
    """Monetary cost of cloud execution.

    Paying for ``p`` workers for ``t / p`` time units costs roughly the same
    as one worker for ``t`` time units, plus a coordination overhead that
    grows with the parallelism degree.  Execution time shrinks with
    parallelism while money grows — the tradeoff from the paper's cloud
    motivation.
    """

    name = "monetary"

    def scan_cost(self, table, operator, output_cardinality, config):
        sequential = _sequential_scan_time(table, operator, output_cardinality, config)
        overhead = 1.0 + config.parallelism_overhead * (operator.parallelism - 1)
        return sequential * config.price_per_time_unit * overhead

    def join_cost_cards(
        self, outer_cardinality, inner_cardinality, operator, output_cardinality, config
    ):
        sequential = _sequential_join_time(
            outer_cardinality, inner_cardinality, operator, output_cardinality, config
        )
        overhead = 1.0 + config.parallelism_overhead * (operator.parallelism - 1)
        return sequential * config.price_per_time_unit * overhead

    def join_cost_batch(
        self, outer_cardinalities, inner_cardinalities, operator,
        output_cardinalities, config, pages=None,
    ):
        sequential = _sequential_join_time_batch(
            outer_cardinalities, inner_cardinalities, operator,
            output_cardinalities, config, pages,
        )
        overhead = 1.0 + config.parallelism_overhead * (operator.parallelism - 1)
        return sequential * config.price_per_time_unit * overhead


class EnergyMetric(CostMetric):
    """Energy consumption, proportional to total (single-threaded) work."""

    name = "energy"

    #: Relative power draw of each join algorithm; hash joins are
    #: memory-intensive, nested loops are CPU-bound.
    _ALGORITHM_POWER: Dict[JoinAlgorithm, float] = {
        JoinAlgorithm.HASH: 1.2,
        JoinAlgorithm.SORT_MERGE: 1.1,
        JoinAlgorithm.BLOCK_NESTED_LOOP: 0.9,
        JoinAlgorithm.NESTED_LOOP: 1.0,
    }

    def scan_cost(self, table, operator, output_cardinality, config):
        sequential = _sequential_scan_time(table, operator, output_cardinality, config)
        return sequential * config.power_per_time_unit

    def join_cost_cards(
        self, outer_cardinality, inner_cardinality, operator, output_cardinality, config
    ):
        sequential = _sequential_join_time(
            outer_cardinality, inner_cardinality, operator, output_cardinality, config
        )
        power = self._ALGORITHM_POWER[operator.algorithm] * config.power_per_time_unit
        return sequential * power

    def join_cost_batch(
        self, outer_cardinalities, inner_cardinalities, operator,
        output_cardinalities, config, pages=None,
    ):
        sequential = _sequential_join_time_batch(
            outer_cardinalities, inner_cardinalities, operator,
            output_cardinalities, config, pages,
        )
        power = self._ALGORITHM_POWER[operator.algorithm] * config.power_per_time_unit
        return sequential * power


class PrecisionLossMetric(CostMetric):
    """Precision loss caused by sampling scans (approximate query processing).

    Result precision is a quality metric; the paper transforms it into a cost
    metric ("precision loss").  Each sampling scan contributes the fraction of
    rows it drops, so a plan reading full tables has zero precision loss.
    """

    name = "precision_loss"

    def scan_cost(self, table, operator, output_cardinality, config):
        del table, output_cardinality, config
        return 1.0 - operator.sampling_rate

    def join_cost_cards(
        self, outer_cardinality, inner_cardinality, operator, output_cardinality, config
    ):
        del outer_cardinality, inner_cardinality, operator
        del output_cardinality, config
        return 0.0

    def join_cost_batch(
        self, outer_cardinalities, inner_cardinalities, operator,
        output_cardinalities, config, pages=None,
    ):
        del inner_cardinalities, operator, output_cardinalities, config, pages
        return np.zeros(outer_cardinalities.shape[0])


#: Registry of all metric implementations by name.
_METRIC_REGISTRY: Dict[str, Type[CostMetric]] = {
    metric.name: metric
    for metric in (
        TimeMetric,
        BufferMetric,
        DiskMetric,
        MonetaryMetric,
        EnergyMetric,
        PrecisionLossMetric,
    )
}

#: The metric names used in the paper's evaluation (Section 6.1).
PAPER_METRICS: Tuple[str, str, str] = ("time", "buffer", "disk")


def metric_by_name(name: str) -> CostMetric:
    """Instantiate a metric from its registry name."""
    try:
        return _METRIC_REGISTRY[name]()
    except KeyError:
        known = ", ".join(sorted(_METRIC_REGISTRY))
        raise KeyError(f"unknown cost metric {name!r}; known metrics: {known}") from None


def available_metric_names() -> Tuple[str, ...]:
    """Names of all registered cost metrics."""
    return tuple(sorted(_METRIC_REGISTRY))
