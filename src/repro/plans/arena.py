"""Columnar plan storage: the plan arena.

A :class:`PlanArena` stores plan nodes as parallel NumPy columns instead of
linked ``Plan`` object trees.  A plan is just an ``int`` handle — the row
index of its root node — and every per-node attribute the optimizer reads in
its inner loops (operator code, child handles, cardinality, cost vector) is
one array lookup away:

::

    handle ──►  row h of the columns
                op_code[h]       int32    operator (scan codes first, then joins)
                left[h]          int32    scan: table index · join: outer handle
                right[h]         int32    scan: -1          · join: inner handle
                cardinality[h]   float64  estimated output rows
                cost[h, :]       float64  total cost vector (one column per metric)
                rel[h]           frozenset of joined table indices (Python side-car)

Design points:

* **Hash-consing.**  Nodes are deduplicated on ``(op, left, right)``: the
  same sub-plan built twice gets the same handle, so the arena grows with
  the number of *distinct* plans kept, not the number of candidates
  evaluated.  Costing is deterministic, so sharing rows is safe.
* **Cheap handles, late materialization.**  Search algorithms pass handles
  around; :meth:`to_plan` reconstructs the classic
  :class:`~repro.plans.plan.Plan` object tree (bit-identical costs and
  cardinalities) only when a caller needs one — reporting, printing,
  validation, or returning a frontier.
* **Batch-friendly.**  The cost matrix and cardinality column are exactly
  the operands the batch cost kernel (:mod:`repro.cost.batch`) needs, so
  whole candidate sets are costed with single array expressions.

The arena is storage only; costing lives in
:class:`repro.cost.batch.BatchCostModel`, which owns an arena and mirrors
:class:`~repro.cost.model.MultiObjectiveCostModel`'s plan-building surface.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.plans.operators import DataFormat, JoinOperator, ScanOperator
from repro.plans.plan import JoinPlan, Plan, ScanPlan
from repro.query.query import Query

__all__ = [
    "ArenaColumnSnapshot",
    "PlanArena",
    "bits_members",
    "resolve_plan_engine",
    "PLAN_ENGINES",
]

#: Engines accepted by the ``engine=`` parameter of the search algorithms.
PLAN_ENGINES = ("arena", "object")

_INITIAL_CAPACITY = 64


def bits_members(bits: int) -> Tuple[int, ...]:
    """Table indices of a table-set bitset (bit t ⇔ table t), ascending."""
    members = []
    while bits:
        lowest = bits & -bits
        members.append(lowest.bit_length() - 1)
        bits ^= lowest
    return tuple(members)


def resolve_plan_engine(engine: str | None) -> str:
    """Resolve an ``engine=`` argument against the process-wide default.

    ``None`` falls back to the ``REPRO_PLAN_ENGINE`` environment variable and
    then to ``"arena"`` (the fast columnar path).  ``"object"`` pins the
    original ``Plan``-tree implementation, which is kept as the property-tested
    scalar reference.
    """
    if engine is None:
        engine = os.environ.get("REPRO_PLAN_ENGINE", "").strip() or "arena"
    if engine not in PLAN_ENGINES:
        raise ValueError(
            f"unknown plan engine {engine!r}; expected one of {PLAN_ENGINES}"
        )
    return engine


@dataclass(frozen=True)
class ArenaColumnSnapshot:
    """Read-only views of one arena row range's numeric columns.

    The export format of :meth:`PlanArena.column_snapshot`: zero-copy views
    (marked non-writeable) of the operator-code, cardinality, and cost
    columns for rows ``[start, stop)``.  Consumers that need the data to
    outlive the arena (or to land in a shared-memory segment) copy the views
    with ``np.copyto`` / slice assignment; consumers that only read — the
    batch cost kernels, the task fabric's publisher — use them in place.
    """

    #: First row covered by the views.
    start: int
    #: One past the last row covered.
    stop: int
    #: Operator codes, ``int32 (stop - start,)``.
    op_codes: np.ndarray
    #: Estimated output cardinalities, ``float64 (stop - start,)``.
    cardinalities: np.ndarray
    #: Total cost rows, ``float64 (stop - start, num_metrics)``.
    costs: np.ndarray

    def __len__(self) -> int:
        return self.stop - self.start


class PlanArena:
    """Columnar storage of plan nodes for one query / operator library.

    Parameters
    ----------
    query:
        The query whose plans are stored (tables are looked up at
        materialization time).
    scan_operators / join_operators:
        The operator library split the arena encodes operator *codes* over:
        scan operators take codes ``0 .. s-1`` in library order, join
        operators ``s .. s+j-1``.
    num_metrics:
        Width of the cost matrix.
    """

    def __init__(
        self,
        query: Query,
        scan_operators: Sequence[ScanOperator],
        join_operators: Sequence[JoinOperator],
        num_metrics: int,
    ) -> None:
        self._query = query
        self._scan_operators: Tuple[ScanOperator, ...] = tuple(scan_operators)
        self._join_operators: Tuple[JoinOperator, ...] = tuple(join_operators)
        self._num_scan_ops = len(self._scan_operators)
        self._operators: Tuple[ScanOperator | JoinOperator, ...] = (
            self._scan_operators + self._join_operators
        )
        self._num_metrics = num_metrics
        # Per-operator lookups used by vectorized consumers.
        formats = list(DataFormat)
        self._format_by_code: Tuple[DataFormat, ...] = tuple(formats)
        format_codes = {fmt: code for code, fmt in enumerate(formats)}
        self._op_format: Tuple[DataFormat, ...] = tuple(
            op.output_format for op in self._operators
        )
        self._op_format_codes = np.asarray(
            [format_codes[op.output_format] for op in self._operators],
            dtype=np.int64,
        )
        # Columns (grown by doubling) + Python side-cars.  The scalar
        # side-cars (operator codes, cardinalities, cost tuples) mirror the
        # columns: per-element NumPy indexing boxes a scalar per access,
        # which is the single hottest operation of candidate enumeration, so
        # scalar reads go through plain lists and the arrays serve the
        # vectorized gathers.
        self._size = 0
        self._op = np.empty(_INITIAL_CAPACITY, dtype=np.int32)
        self._left = np.empty(_INITIAL_CAPACITY, dtype=np.int32)
        self._right = np.empty(_INITIAL_CAPACITY, dtype=np.int32)
        self._card = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._cost = np.empty((_INITIAL_CAPACITY, num_metrics), dtype=np.float64)
        self._op_list: List[int] = []
        self._card_list: List[float] = []
        self._rel: List[FrozenSet[int]] = []
        # Bitset twin of the rel side-car (bit t set ⇔ table t joined);
        # maintained in O(1) per node (scan: 1 << t, join: outer | inner).
        # Python ints, so queries beyond 64 tables stay exact.
        self._rel_bits: List[int] = []
        self._cost_tuples: List[Tuple[float, ...]] = []
        self._op_format_code_list: List[int] = [
            int(code) for code in self._op_format_codes
        ]
        # Hash-consing table: (op_code, left, right) -> handle.
        self._nodes: Dict[Tuple[int, int, int], int] = {}

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        """Number of distinct plan nodes stored."""
        return self._size

    @property
    def query(self) -> Query:
        """The query whose plans this arena stores."""
        return self._query

    @property
    def num_metrics(self) -> int:
        """Width of the cost matrix."""
        return self._num_metrics

    @property
    def num_scan_operators(self) -> int:
        """Number of scan operator codes (join codes start here)."""
        return self._num_scan_ops

    def operator(self, code: int) -> ScanOperator | JoinOperator:
        """The operator object behind an operator code."""
        return self._operators[code]

    @property
    def operators(self) -> Tuple[ScanOperator | JoinOperator, ...]:
        """All operators in code order (scan operators first)."""
        return self._operators

    def is_join(self, handle: int) -> bool:
        """Whether the node is a join (False: a scan)."""
        return self._op_list[handle] >= self._num_scan_ops

    def op_code(self, handle: int) -> int:
        """Operator code of the node."""
        return self._op_list[handle]

    def outer(self, handle: int) -> int:
        """Outer child handle of a join node."""
        return int(self._left[handle])

    def inner(self, handle: int) -> int:
        """Inner child handle of a join node."""
        return int(self._right[handle])

    def table_index(self, handle: int) -> int:
        """Table index of a scan node."""
        return int(self._left[handle])

    def cardinality(self, handle: int) -> float:
        """Estimated output cardinality of the node."""
        return self._card_list[handle]

    def cost(self, handle: int) -> Tuple[float, ...]:
        """Total cost vector of the node as a float tuple."""
        return self._cost_tuples[handle]

    def rel(self, handle: int) -> FrozenSet[int]:
        """The set of table indices joined by the node (``p.rel``)."""
        return self._rel[handle]

    def rel_bits(self, handle: int) -> int:
        """The node's joined table set as an int bitset (bit t ⇔ table t).

        The subset-lattice DP keys its bookkeeping by these bitsets; two
        handles join the same table set iff their ``rel_bits`` are equal.
        """
        return self._rel_bits[handle]

    def output_format(self, handle: int) -> DataFormat:
        """Output data representation of the node."""
        return self._op_format[self._op_list[handle]]

    def format_code(self, handle: int) -> int:
        """Small-integer code of the node's output data representation."""
        return self._op_format_code_list[self._op_list[handle]]

    def format_code_of_op(self, op_code: int) -> int:
        """Small-integer output-format code of an operator code."""
        return self._op_format_code_list[op_code]

    @property
    def op_code_list(self) -> List[int]:
        """Per-node operator codes as a plain list (fast scalar reads).

        Hot enumeration loops bind this once and index it directly —
        per-element NumPy indexing would box a scalar per access.  Treat it
        as read-only.
        """
        return self._op_list

    def scalar_columns(
        self,
    ) -> Tuple[List[float], List[Tuple[float, ...]], List[int]]:
        """Per-node cardinalities, cost tuples and rel bitsets as plain lists.

        The read-only side-cars behind :meth:`cardinality`, :meth:`cost`
        and :meth:`rel_bits`, for gathers that bind them once per batch
        (see :attr:`op_code_list`).
        """
        return self._card_list, self._cost_tuples, self._rel_bits

    @property
    def format_code_by_op(self) -> List[int]:
        """Output-format code per operator code (read-only list)."""
        return self._op_format_code_list

    def format_codes_of_ops(self, op_codes: np.ndarray) -> np.ndarray:
        """Output-format codes gathered for an operator-code array."""
        return self._op_format_codes[op_codes]

    def num_nodes(self, handle: int) -> int:
        """Tree-node count of the plan (``k`` scans and ``k - 1`` joins)."""
        return 2 * len(self._rel[handle]) - 1

    # Vectorized column views -------------------------------------------------
    def cardinalities_of(self, handles: np.ndarray) -> np.ndarray:
        """Cardinality column gathered for the given handle array."""
        return self._card[handles]

    def costs_of(self, handles: np.ndarray) -> np.ndarray:
        """Cost-matrix rows gathered for the given handle array."""
        return self._cost[handles]

    def format_codes_of(self, handles: np.ndarray) -> np.ndarray:
        """Output-format codes gathered for the given handle array."""
        return self._op_format_codes[self._op[handles]]

    def column_snapshot(
        self, start: int = 0, stop: int | None = None
    ) -> ArenaColumnSnapshot:
        """Zero-copy read-only views of rows ``[start, stop)``.

        The snapshot/export API of the arena: the shared-memory task fabric
        publishes each DP level by copying exactly the delta rows appended
        since its last publish (``column_snapshot(published, len(arena))``)
        into its segments, and worker processes rebuild a read-only twin of
        the arena over the attached buffers.  ``stop`` defaults to the
        current size.  The views alias the live columns — they stay valid
        (and immutable) until the arena next grows its storage, so take them
        fresh per use rather than holding them across appends.
        """
        stop = self._size if stop is None else stop
        if not 0 <= start <= stop <= self._size:
            raise ValueError(
                f"invalid snapshot range [{start}, {stop}) for arena of "
                f"size {self._size}"
            )
        op_codes = self._op[start:stop]
        cardinalities = self._card[start:stop]
        costs = self._cost[start:stop]
        for view in (op_codes, cardinalities, costs):
            view.flags.writeable = False
        return ArenaColumnSnapshot(
            start=start,
            stop=stop,
            op_codes=op_codes,
            cardinalities=cardinalities,
            costs=costs,
        )

    # -------------------------------------------------------------- updates
    def _ensure_capacity(self, extra: int) -> None:
        needed = self._size + extra
        capacity = self._op.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(capacity * 2, needed)
        for name in ("_op", "_left", "_right", "_card"):
            column = getattr(self, name)
            grown = np.empty(new_capacity, dtype=column.dtype)
            grown[: self._size] = column[: self._size]
            setattr(self, name, grown)
        cost = np.empty((new_capacity, self._num_metrics), dtype=np.float64)
        cost[: self._size] = self._cost[: self._size]
        self._cost = cost

    def add_scan(
        self,
        op_code: int,
        table_index: int,
        cardinality: float,
        cost: Sequence[float],
    ) -> int:
        """Append (or find) a scan node; returns its handle."""
        key = (op_code, table_index, -1)
        handle = self._nodes.get(key)
        if handle is not None:
            return handle
        return self._append(
            key, frozenset((table_index,)), 1 << table_index, cardinality, cost
        )

    def add_join(
        self,
        op_code: int,
        outer: int,
        inner: int,
        cardinality: float,
        cost: Sequence[float],
    ) -> int:
        """Append (or find) a join node on two existing handles."""
        key = (op_code, outer, inner)
        handle = self._nodes.get(key)
        if handle is not None:
            return handle
        rel = self._rel[outer] | self._rel[inner]
        rel_bits = self._rel_bits[outer] | self._rel_bits[inner]
        return self._append(key, rel, rel_bits, cardinality, cost)

    def find_join(self, op_code: int, outer: int, inner: int) -> int | None:
        """Handle of an existing join node, or ``None``."""
        return self._nodes.get((op_code, outer, inner))

    def find_scan(self, op_code: int, table_index: int) -> int | None:
        """Handle of an existing scan node, or ``None``."""
        return self._nodes.get((op_code, table_index, -1))

    def _append(
        self,
        key: Tuple[int, int, int],
        rel: FrozenSet[int],
        rel_bits: int,
        cardinality: float,
        cost: Sequence[float],
    ) -> int:
        self._ensure_capacity(1)
        handle = self._size
        self._op[handle] = key[0]
        self._left[handle] = key[1]
        self._right[handle] = key[2]
        cardinality = float(cardinality)
        self._card[handle] = cardinality
        row = tuple(float(value) for value in cost)
        self._cost[handle] = row
        self._op_list.append(key[0])
        self._card_list.append(cardinality)
        self._rel.append(rel)
        self._rel_bits.append(rel_bits)
        self._cost_tuples.append(row)
        self._nodes[key] = handle
        self._size += 1
        return handle

    # -------------------------------------------------------- materialization
    def to_plan(self, handle: int, memo: Dict[int, Plan] | None = None) -> Plan:
        """Materialize the classic :class:`Plan` object tree for a handle.

        Costs and cardinalities are the stored ones, so the result is
        bit-identical to building the same plan through
        :class:`~repro.cost.model.MultiObjectiveCostModel`.  Sub-plans
        shared within the handle's tree (the arena hash-conses nodes)
        materialize to shared objects; pass a ``memo`` dict to extend that
        sharing across several calls (see :meth:`to_plans`).
        """
        if memo is None:
            memo = {}
        stack = [handle]
        while stack:
            current = stack[-1]
            if current in memo:
                stack.pop()
                continue
            if not self.is_join(current):
                table = self._query.table(self.table_index(current))
                operator = self._operators[self.op_code(current)]
                assert isinstance(operator, ScanOperator)
                memo[current] = ScanPlan(
                    table=table,
                    operator=operator,
                    cost=self.cost(current),
                    cardinality=self.cardinality(current),
                )
                stack.pop()
                continue
            outer, inner = self.outer(current), self.inner(current)
            pending = [child for child in (outer, inner) if child not in memo]
            if pending:
                stack.extend(pending)
                continue
            operator = self._operators[self.op_code(current)]
            assert isinstance(operator, JoinOperator)
            memo[current] = JoinPlan(
                outer=memo[outer],
                inner=memo[inner],
                operator=operator,
                cost=self.cost(current),
                cardinality=self.cardinality(current),
            )
            stack.pop()
        return memo[handle]

    def to_plans(self, handles: Sequence[int]) -> List[Plan]:
        """Materialize several handles (sub-plan objects are shared per call)."""
        memo: Dict[int, Plan] = {}
        return [self.to_plan(handle, memo) for handle in handles]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlanArena(nodes={self._size}, metrics={self._num_metrics})"
