"""Batch plan construction and costing over a plan arena.

:class:`BatchCostModel` mirrors the plan-building surface of
:class:`~repro.cost.model.MultiObjectiveCostModel` — ``make_scan`` /
``make_join`` — but produces :class:`~repro.plans.arena.PlanArena` handles
instead of ``Plan`` objects, and adds the two batch entry points the search
algorithms' inner loops are built on:

* :meth:`join_candidates` costs the **cross products of many pairs of
  partial-plan frontiers × all applicable join operators** — the
  combination step of ``ApproximateFrontiers`` (Algorithm 3), one call per
  plan-tree height — laying every pair out in one pass and running the
  per-node kernels once per operator; it returns one
  :class:`CandidateBatch` whose per-pair views feed the plan cache.
  :meth:`join_candidates_multi` is the list-returning form over the same
  body that the DP's subset reducer calls for the splits of one subset;
* :meth:`cost_specs` costs a list of :class:`JoinSpec` candidate descriptions
  (the hill-climbing neighborhoods of one plan-tree height) — pending
  intermediates first, then the specs built on them — gathering every
  child's cardinality, cost row and table-set bits in one pass and running
  the node kernels once per operator over the whole list.

Candidates are *described and costed before any node is created*; only the
candidates a frontier accepts (or a climb selects) are realized into arena
rows, so the arena grows with kept plans, not evaluated ones.

Every number produced here is bit-identical to costing ``Plan`` objects
through :class:`~repro.cost.model.MultiObjectiveCostModel`: the scalar
kernels are the same ``join_cost_cards`` functions that model calls,
and the vectorized kernels perform the same IEEE-754 operations (pinned by
``tests/test_arena.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.cost.model import MultiObjectiveCostModel
from repro.plans.arena import PlanArena
from repro.plans.operators import DataFormat, JoinOperator, ScanOperator

__all__ = ["BatchCostModel", "CandidateBatch", "JoinSpec"]

#: Below this many specs in one dependency round, spec costing stays on the
#: scalar kernel (NumPy dispatch overhead exceeds the arithmetic for tiny
#: groups; the results are bit-identical either way).
SMALL_SPEC_BATCH = 64


@dataclass
class JoinSpec:
    """A candidate join that has not been realized into the arena yet.

    ``outer`` / ``inner`` are either arena handles (``int``) or other
    :class:`JoinSpec` instances — the *pending* intermediates of
    associativity/exchange moves and of a climb step's node rebuild, which
    are described rather than built, so candidate neighborhoods need at most
    two levels.  ``cardinality``, ``cost`` and ``rel_bits`` (the joined
    table set as a bitset, the OR of the children's) are filled by
    :meth:`BatchCostModel.cost_specs`; ``handle`` by
    :meth:`BatchCostModel.realize`.
    """

    __slots__ = ("outer", "inner", "op_code", "cardinality", "cost", "rel_bits", "handle")

    outer: Union[int, "JoinSpec"]
    inner: Union[int, "JoinSpec"]
    op_code: int
    cardinality: float
    cost: Tuple[float, ...] | None
    rel_bits: int
    handle: int | None

    def __init__(
        self, outer: Union[int, "JoinSpec"], inner: Union[int, "JoinSpec"], op_code: int
    ) -> None:
        self.outer = outer
        self.inner = inner
        self.op_code = op_code
        self.cardinality = 0.0
        self.cost = None
        self.rel_bits = 0
        self.handle = None


#: A candidate reference: an existing arena handle or a pending spec.
PlanRef = Union[int, JoinSpec]


@dataclass(frozen=True)
class CandidateBatch:
    """Costed frontier cross products × applicable join operators.

    Rows are grouped per frontier pair — pair ``k`` owns rows
    ``bounds[k]:bounds[k + 1]`` — and within a pair ordered exactly like the
    scalar triple loop ``for outer: for inner: for operator in
    applicable(inner)``, so order-sensitive frontier insertion is reproduced
    verbatim.  :meth:`pair` gives one pair's rows as a one-pair batch of
    array views; a batch built without ``bounds`` holds a single pair.
    """

    #: Total cost rows, ``(size, num_metrics)``.
    costs: np.ndarray
    #: Output cardinalities, ``(size,)``.
    cardinalities: np.ndarray
    #: Arena operator codes, ``(size,)``.
    op_codes: np.ndarray
    #: Output-format codes (the frontier tags), ``(size,)``.
    tags: np.ndarray
    #: Index into the pair's outer handle list, ``(size,)``.
    outer_pos: np.ndarray
    #: Index into the pair's inner handle list, ``(size,)``.
    inner_pos: np.ndarray
    #: Row offsets of the pairs, ``(num_pairs + 1,)``.
    bounds: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.bounds:
            object.__setattr__(self, "bounds", (0, self.costs.shape[0]))

    @property
    def size(self) -> int:
        """Number of candidates in the batch."""
        return self.costs.shape[0]

    @property
    def num_pairs(self) -> int:
        """Number of frontier pairs the batch holds."""
        return len(self.bounds) - 1

    def pair(self, index: int) -> "CandidateBatch":
        """The candidates of pair ``index`` as a one-pair batch of views."""
        start = self.bounds[index]
        stop = self.bounds[index + 1]
        return CandidateBatch(
            costs=self.costs[start:stop],
            cardinalities=self.cardinalities[start:stop],
            op_codes=self.op_codes[start:stop],
            tags=self.tags[start:stop],
            outer_pos=self.outer_pos[start:stop],
            inner_pos=self.inner_pos[start:stop],
            bounds=(0, stop - start),
        )


class BatchCostModel:
    """Arena-backed plan factory with batch costing kernels.

    Parameters
    ----------
    cost_model:
        The cost model supplying query, metrics, operator library and
        configuration; scalar costing delegates to its metric instances, so
        arena handles and ``Plan`` objects share one set of formulas.
    arena:
        Optional existing arena (defaults to a fresh one for the model's
        query/library/metrics).
    """

    def __init__(
        self, cost_model: MultiObjectiveCostModel, arena: PlanArena | None = None
    ) -> None:
        self._model = cost_model
        self._query = cost_model.query
        self._metrics = cost_model.metrics
        self._config = cost_model.config
        self._estimator = cost_model.estimator
        library = cost_model.library
        self._arena = arena if arena is not None else PlanArena(
            cost_model.query,
            library.scan_operators,
            library.join_operators,
            cost_model.num_metrics,
        )
        arena_obj = self._arena
        num_scans = arena_obj.num_scan_operators
        self._scan_codes: Tuple[int, ...] = tuple(range(num_scans))
        # Applicable join codes per output-format code of the *inner* input
        # (only the inner side restricts applicability), in library order —
        # the same filter as OperatorLibrary.applicable_join_operators.
        formats = tuple(DataFormat)
        self._applicable_by_format: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(
                num_scans + position
                for position, op in enumerate(library.join_operators)
                if not op.requires_materialized_inner
                or fmt is DataFormat.MATERIALIZED
            )
            for fmt in formats
        )
        self._applicable_counts = np.asarray(
            [len(codes) for codes in self._applicable_by_format], dtype=np.int64
        )
        # The same codes as a (format, slot) table, padded with zeros, so a
        # whole frontier's operator pattern is one gather.
        self._applicable_table = np.zeros(
            (len(formats), max(self._applicable_counts.tolist(), default=0)),
            dtype=np.int64,
        )
        for code, applicable in enumerate(self._applicable_by_format):
            self._applicable_table[code, : len(applicable)] = applicable
        # Join selectivity per (outer, inner) table-set bitset pair.
        self._selectivity_memo: Dict[Tuple[int, int], float] = {}
        self._operator_codes: Dict[object, int] = {
            op: code for code, op in enumerate(arena_obj.operators)
        }

    # ------------------------------------------------------------ accessors
    @property
    def arena(self) -> PlanArena:
        """The plan arena this model builds into."""
        return self._arena

    @property
    def cost_model(self) -> MultiObjectiveCostModel:
        """The underlying object cost model."""
        return self._model

    @property
    def query(self):
        """The query being optimized."""
        return self._query

    @property
    def num_metrics(self) -> int:
        """Number of cost metrics."""
        return self._model.num_metrics

    def scan_codes(self, table_index: int) -> Tuple[int, ...]:
        """Scan operator codes applicable to the given table."""
        del table_index  # all scans apply to all tables, like the library
        return self._scan_codes

    def join_codes_for(self, inner: PlanRef) -> Tuple[int, ...]:
        """Join operator codes applicable on the given inner input."""
        return self._applicable_by_format[self._format_code(inner)]

    def output_format_of(self, ref: PlanRef) -> DataFormat:
        """Output data representation of a handle or pending spec."""
        return self._arena.operator(self._op_code(ref)).output_format

    def format_code_of(self, ref: PlanRef) -> int:
        """Small-integer output-format code of a handle or pending spec."""
        return self._format_code(ref)

    # ------------------------------------------------------------- internals
    def _op_code(self, ref: PlanRef) -> int:
        return ref.op_code if isinstance(ref, JoinSpec) else self._arena.op_code(ref)

    def _format_code(self, ref: PlanRef) -> int:
        return self._arena.format_code_of_op(self._op_code(ref))

    def _ref_row(self, ref: PlanRef) -> Tuple[float, Tuple[float, ...], int]:
        """Cardinality, cost row and table-set bits of a resolved reference."""
        if isinstance(ref, JoinSpec):
            assert ref.cost is not None, "pending child must be costed first"
            return ref.cardinality, ref.cost, ref.rel_bits
        arena = self._arena
        return arena.cardinality(ref), arena.cost(ref), arena.rel_bits(ref)

    # --------------------------------------------------------- plan building
    def make_scan(self, table_index: int, op_code: int) -> int:
        """Build (or find) a scan node; the twin of the object ``make_scan``."""
        existing = self._arena.find_scan(op_code, table_index)
        if existing is not None:
            return existing
        operator = self._arena.operator(op_code)
        assert isinstance(operator, ScanOperator)
        table = self._query.table(table_index)
        cardinality = self._estimator.scan_cardinality(table, operator)
        cost = tuple(
            metric.scan_cost(table, operator, cardinality, self._config)
            for metric in self._metrics
        )
        return self._arena.add_scan(op_code, table_index, cardinality, cost)

    def make_join(self, outer: int, inner: int, op_code: int) -> int:
        """Build (or find) a join node; the twin of the object ``make_join``."""
        existing = self._arena.find_join(op_code, outer, inner)
        if existing is not None:
            return existing
        spec = JoinSpec(outer, inner, op_code)
        self._cost_spec_scalar(spec)
        return self.realize(spec)

    def intern_plan(self, plan) -> int:
        """Intern a ``Plan`` object tree into the arena; returns its handle.

        Rebuilds the plan bottom-up through ``make_scan`` / ``make_join``
        with the plan's own operators, so the stored costs are recomputed —
        bit-identical for plans built by this model's cost model.
        """
        from repro.plans.plan import JoinPlan, ScanPlan

        if isinstance(plan, ScanPlan):
            return self.make_scan(plan.table.index, self._operator_code(plan.operator))
        if isinstance(plan, JoinPlan):
            outer = self.intern_plan(plan.outer)
            inner = self.intern_plan(plan.inner)
            return self.make_join(outer, inner, self._operator_code(plan.operator))
        raise TypeError(f"unknown plan type: {type(plan)!r}")

    def _operator_code(self, operator) -> int:
        return self._operator_codes[operator]

    def realize(self, ref: PlanRef) -> int:
        """Turn a costed candidate into an arena handle (children first)."""
        if not isinstance(ref, JoinSpec):
            return ref
        if ref.handle is not None:
            return ref.handle
        assert ref.cost is not None, "realize() requires a costed spec"
        outer = self.realize(ref.outer)
        inner = self.realize(ref.inner)
        ref.handle = self._arena.add_join(
            ref.op_code, outer, inner, ref.cardinality, ref.cost
        )
        return ref.handle

    # --------------------------------------------------------- spec costing
    def cost_specs(self, specs: Sequence[JoinSpec]) -> None:
        """Fill ``cardinality``, ``cost`` and ``rel_bits`` for candidate specs.

        Children are handles, specs costed earlier, or *pending* specs (the
        uncosted intermediates of structural moves).  The list is costed in
        two dependency rounds: first the pending children — whether listed
        or not (simulated annealing costs one chosen candidate alone), so no
        spec ever reads the placeholder cardinality of an uncosted child —
        then the remaining specs on top of them.  A round is computed on the
        scalar kernel below :data:`SMALL_SPEC_BATCH` specs and grouped per
        operator through the vectorized kernels above; both yield exactly
        the same values (``tests/test_arena.py``).
        """
        self._cost_rounds(specs)

    def _cost_rounds(self, specs: Sequence[JoinSpec]) -> None:
        """The body of :meth:`cost_specs`; recurses on pending children."""
        children: Dict[int, JoinSpec] = {}
        for spec in specs:
            outer = spec.outer
            if type(outer) is not int and outer.cost is None:
                children[id(outer)] = outer
            inner = spec.inner
            if type(inner) is not int and inner.cost is None:
                children[id(inner)] = inner
        if children:
            self._cost_rounds(list(children.values()))
            specs = [spec for spec in specs if spec.cost is None]
        self._cost_round(specs)

    def _cost_round(self, specs: Sequence[JoinSpec]) -> None:
        """Cost specs whose children are all resolved."""
        if len(specs) < SMALL_SPEC_BATCH:
            for spec in specs:
                self._cost_spec_scalar(spec)
        else:
            self._cost_specs_batch(specs)

    def _cost_specs_batch(self, specs: Sequence[JoinSpec]) -> None:
        """Vectorized costing of specs whose children are resolved.

        One pass reads each child's cardinality, cost row and table-set
        bits — from its arena row (handle) or from the spec itself (costed
        spec) — and looks up the selectivity; cardinalities and node costs
        are then array expressions, the node costs grouped per operator.
        """
        cards, costs, bits = self._arena.scalar_columns()
        selectivity_memo = self._selectivity_memo
        size = len(specs)
        # Both children per spec, outer first: one reshape pairs them up.
        child_cards: List[float] = []
        child_costs: List[float] = []
        selectivities: List[float] = []
        spec_bits: List[int] = []
        for spec in specs:
            outer = spec.outer
            if type(outer) is int:
                child_cards.append(cards[outer])
                child_costs += costs[outer]
                outer_bits = bits[outer]
            else:
                child_cards.append(outer.cardinality)
                child_costs += outer.cost
                outer_bits = outer.rel_bits
            inner = spec.inner
            if type(inner) is int:
                child_cards.append(cards[inner])
                child_costs += costs[inner]
                inner_bits = bits[inner]
            else:
                child_cards.append(inner.cardinality)
                child_costs += inner.cost
                inner_bits = inner.rel_bits
            selectivity = selectivity_memo.get((outer_bits, inner_bits))
            if selectivity is None:
                selectivity = self._selectivity(outer_bits, inner_bits)
            selectivities.append(selectivity)
            spec_bits.append(outer_bits | inner_bits)
        card_pairs = np.array(child_cards, dtype=np.float64).reshape(size, 2)
        outer_cards = card_pairs[:, 0]
        inner_cards = card_pairs[:, 1]
        products = outer_cards * inner_cards * np.array(selectivities, dtype=np.float64)
        cardinalities = np.where(products > 1.0, products, 1.0)
        op_codes = np.array([spec.op_code for spec in specs], dtype=np.int64)
        node_costs = self._node_costs_grouped(
            outer_cards,
            inner_cards,
            cardinalities,
            {
                code: np.flatnonzero(op_codes == code)
                for code in np.unique(op_codes).tolist()
            },
        )
        cost_pairs = np.array(child_costs, dtype=np.float64).reshape(size, 2, -1)
        totals = (cost_pairs[:, 0] + cost_pairs[:, 1]) + node_costs
        for spec, cardinality, row, table_bits in zip(
            specs, cardinalities.tolist(), totals.tolist(), spec_bits
        ):
            spec.cardinality = cardinality
            spec.cost = tuple(row)
            spec.rel_bits = table_bits

    def _selectivity(self, outer_bits: int, inner_bits: int) -> float:
        """Join selectivity between two table sets, memoized by their bitsets."""
        key = (outer_bits, inner_bits)
        selectivity = self._selectivity_memo.get(key)
        if selectivity is None:
            selectivity = self._query.join_graph.selectivity_between_bits(
                outer_bits, inner_bits
            )
            self._selectivity_memo[key] = selectivity
        return selectivity

    def _cost_spec_scalar(self, spec: JoinSpec) -> None:
        outer_card, outer_cost, outer_bits = self._ref_row(spec.outer)
        inner_card, inner_cost, inner_bits = self._ref_row(spec.inner)
        selectivity = self._selectivity(outer_bits, inner_bits)
        product = outer_card * inner_card * selectivity
        # The same ``max(1.0, outer * inner * selectivity)`` as the estimator.
        cardinality = product if product > 1.0 else 1.0
        operator = self._arena.operator(spec.op_code)
        config = self._config
        spec.cardinality = cardinality
        spec.cost = tuple(
            [
                outer_value
                + inner_value
                + metric.join_cost_cards(
                    outer_card, inner_card, operator, cardinality, config
                )
                for outer_value, inner_value, metric in zip(
                    outer_cost, inner_cost, self._metrics
                )
            ]
        )
        spec.rel_bits = outer_bits | inner_bits

    def _node_costs_grouped(
        self,
        outer_cards: np.ndarray,
        inner_cards: np.ndarray,
        output_cards: np.ndarray,
        groups: Dict[int, np.ndarray],
    ) -> np.ndarray:
        """Per-node join costs for mixed operators, grouped per operator.

        ``groups`` maps each operator code to the positions of its
        candidates.  Page counts are computed once per operator group and
        shared by every metric (the three paper metrics would otherwise
        each recompute them).
        """
        from repro.cost.metrics import _pages_batch

        node = np.empty((outer_cards.shape[0], self.num_metrics), dtype=np.float64)
        config = self._config
        for code, index in groups.items():
            operator = self._arena.operator(code)
            assert isinstance(operator, JoinOperator)
            outer_sub = outer_cards[index]
            inner_sub = inner_cards[index]
            output_sub = output_cards[index]
            pages = (
                _pages_batch(outer_sub, config),
                _pages_batch(inner_sub, config),
                _pages_batch(output_sub, config),
            )
            for column, metric in enumerate(self._metrics):
                node[index, column] = metric.join_cost_batch(
                    outer_sub, inner_sub, operator, output_sub, config, pages=pages
                )
        return node

    # ------------------------------------------------- frontier cross product
    def _join_splits(
        self, splits: Sequence[Tuple[Sequence[int], Sequence[int], int, int]]
    ) -> CandidateBatch:
        """Cost every split's cross product in one layout and kernel pass.

        The body of :meth:`join_candidates` and :meth:`join_candidates_multi`
        (kept apart so a profile of one never nests inside the other).  The
        candidate rows of all splits are laid out back to back by array
        gathers — per outer handle, the split's (inner, operator) pattern —
        and the per-node kernels run once per distinct operator over all of
        them.  Every built-in kernel is elementwise per candidate, so each
        split's rows are bit-identical whatever else shares the call.
        """
        arena = self._arena
        empty = np.empty(0, dtype=np.int64)
        outer_lists = [np.asarray(split[0], dtype=np.int64) for split in splits]
        inner_lists = [np.asarray(split[1], dtype=np.int64) for split in splits]
        outer_handles = np.concatenate(outer_lists) if splits else empty
        inner_handles = np.concatenate(inner_lists) if splits else empty
        outer_counts = np.array([a.shape[0] for a in outer_lists], dtype=np.int64)
        inner_counts = np.array([a.shape[0] for a in inner_lists], dtype=np.int64)
        outer_start = np.cumsum(outer_counts) - outer_counts
        inner_start = np.cumsum(inner_counts) - inner_counts

        # The (inner, operator) pattern of every inner handle, concatenated:
        # inner j contributes its applicable operator codes in library order.
        inner_formats = arena.format_codes_of(inner_handles)
        ops_per_inner = self._applicable_counts[inner_formats]
        op_offsets = np.zeros(inner_handles.shape[0] + 1, dtype=np.int64)
        np.cumsum(ops_per_inner, out=op_offsets[1:])
        pattern_inner = np.repeat(np.arange(inner_handles.shape[0]), ops_per_inner)
        pattern_ops = self._applicable_table[
            inner_formats[pattern_inner],
            np.arange(pattern_inner.shape[0]) - op_offsets[pattern_inner],
        ]
        # A split's pattern is its inners' run; every outer handle repeats it.
        pattern_start = op_offsets[inner_start]
        per_outer = op_offsets[inner_start + inner_counts] - pattern_start
        pair_rows = outer_counts * per_outer
        outer_pair = np.repeat(np.arange(len(splits)), outer_counts)
        block = per_outer[outer_pair]
        row_outer = np.repeat(np.arange(outer_handles.shape[0]), block)
        block_start = np.cumsum(block) - block
        row_pair = outer_pair[row_outer]
        pattern_index = pattern_start[row_pair] + (
            np.arange(row_outer.shape[0]) - block_start[row_outer]
        )
        row_inner = pattern_inner[pattern_index]
        op_codes = pattern_ops[pattern_index]

        outer_of_row = outer_handles[row_outer]
        inner_of_row = inner_handles[row_inner]
        outer_cards = arena.cardinalities_of(outer_of_row)
        inner_cards = arena.cardinalities_of(inner_of_row)
        selectivities = np.array(
            [
                self._selectivity(split[2], split[3]) if rows else 1.0
                for split, rows in zip(splits, pair_rows.tolist())
            ],
            dtype=np.float64,
        )
        products = outer_cards * inner_cards * selectivities[row_pair]
        cardinalities = np.where(products > 1.0, products, 1.0)
        node_costs = self._node_costs_grouped(
            outer_cards,
            inner_cards,
            cardinalities,
            {
                code: np.flatnonzero(op_codes == code)
                for code in np.unique(op_codes).tolist()
            },
        )
        return CandidateBatch(
            costs=(arena.costs_of(outer_of_row) + arena.costs_of(inner_of_row))
            + node_costs,
            cardinalities=cardinalities,
            op_codes=op_codes,
            tags=arena.format_codes_of_ops(op_codes),
            outer_pos=row_outer - outer_start[row_pair],
            inner_pos=row_inner - inner_start[row_pair],
            bounds=(0, *np.cumsum(pair_rows).tolist()),
        )

    def _side_bits(self, side: str, index: int, handles: Sequence[int]) -> int:
        """The table set every handle of one side joins (0 for no handles)."""
        if len(handles) == 0:
            return 0
        arena = self._arena
        rel_bits = arena.rel_bits
        bits = rel_bits(handles[0])
        for handle in handles:
            if rel_bits(handle) != bits:
                raise ValueError(
                    f"{side} handles of pair {index} must all join the same "
                    f"table set; got {sorted(arena.rel(handle))} and "
                    f"{sorted(arena.rel(handles[0]))}"
                )
        return bits

    def join_candidates(
        self, pairs: Sequence[Tuple[Sequence[int], Sequence[int]]]
    ) -> CandidateBatch:
        """Cost the cross products of many pairs of partial-plan frontiers.

        ``pairs`` rows are ``(outer_handles, inner_handles)``.  All handles
        on one side of a pair must join the **same table set** (the lists
        are partial-plan frontiers of two fixed intermediate results, as in
        ``ApproximateFrontiers``): the join selectivity is computed once per
        pair.  A side that mixes table sets is rejected, naming the side.

        All ``|outer| × |inner| × |applicable operators|`` candidate joins of
        every pair are costed in one call (one kernel pass per distinct
        operator); no arena nodes are created.  ``batch.pair(k)`` holds pair
        ``k``'s rows in the order of the scalar loop ``for outer: for inner:
        for op``, so inserting them sequentially into a frontier reproduces
        that loop decision for decision.  ``ApproximateFrontiers`` passes
        the join nodes of one plan-tree height per call.
        """
        return self._join_splits(
            [
                (
                    outer_handles,
                    inner_handles,
                    self._side_bits("outer", index, outer_handles),
                    self._side_bits("inner", index, inner_handles),
                )
                for index, (outer_handles, inner_handles) in enumerate(pairs)
            ]
        )

    def join_candidates_multi(
        self, splits: Sequence[Tuple[Sequence[int], Sequence[int], int, int]]
    ) -> List[CandidateBatch]:
        """Cost many frontier cross products; one batch per split.

        ``splits`` rows are ``(outer_handles, inner_handles, outer_bits,
        inner_bits)``: two frontiers and the table-set bitsets they join —
        e.g. every (left, right) split of one DP subset.  The caller vouches
        for the bits (DP splits are enumerated as subset bits, so
        re-reading per-handle relations would only re-check an invariant
        the enumeration guarantees).  The same body as
        :meth:`join_candidates`; the returned batches are its per-pair
        views, bit-identical to costing each split alone.
        """
        batch = self._join_splits(splits)
        return [batch.pair(index) for index in range(batch.num_pairs)]

    def realize_candidate(
        self,
        batch: CandidateBatch,
        position: int,
        outer_handles: Sequence[int],
        inner_handles: Sequence[int],
    ) -> int:
        """Create the arena node for one accepted cross-product candidate."""
        return self._arena.add_join(
            int(batch.op_codes[position]),
            outer_handles[int(batch.outer_pos[position])],
            inner_handles[int(batch.inner_pos[position])],
            float(batch.cardinalities[position]),
            batch.costs[position],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchCostModel(query={self._query.name!r}, arena={self._arena!r})"
