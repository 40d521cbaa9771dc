"""Batch plan construction and costing over a plan arena.

:class:`BatchCostModel` mirrors the plan-building surface of
:class:`~repro.cost.model.MultiObjectiveCostModel` — ``make_scan`` /
``make_join`` — but produces :class:`~repro.plans.arena.PlanArena` handles
instead of ``Plan`` objects, and adds the two batch entry points the search
algorithms' inner loops are built on:

* :meth:`join_candidates` costs the **cross product of two partial-plan
  frontiers × all applicable join operators** with single array expressions
  per operator — the combination step of ``ApproximateFrontiers``
  (Algorithm 3) that dominates RMQ's iteration time;
  :meth:`join_candidates_multi` costs many such cross products (the splits
  of one DP subset) in the same kernel passes;
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
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cost.model import MultiObjectiveCostModel
from repro.plans.arena import PlanArena, bits_members
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
    """The costed cross product of two frontiers × applicable join operators.

    Rows are ordered exactly like the scalar triple loop
    ``for outer: for inner: for operator in applicable(inner)`` so that
    order-sensitive frontier insertion is reproduced verbatim.
    """

    #: Total cost rows, ``(size, num_metrics)``.
    costs: np.ndarray
    #: Output cardinalities, ``(size,)``.
    cardinalities: np.ndarray
    #: Arena operator codes, ``(size,)``.
    op_codes: np.ndarray
    #: Output-format codes (the frontier tags), ``(size,)``.
    tags: np.ndarray
    #: Index into the outer handle list, ``(size,)``.
    outer_pos: np.ndarray
    #: Index into the inner handle list, ``(size,)``.
    inner_pos: np.ndarray

    @property
    def size(self) -> int:
        """Number of candidates in the batch."""
        return self.costs.shape[0]


@dataclass(frozen=True)
class _CrossDescription:
    """One laid-out frontier cross product awaiting node costing.

    Everything :meth:`BatchCostModel._describe_cross` derives before the
    per-node cost kernels run; several of these are concatenated so the
    kernels run once per operator over a whole call.
    """

    op_codes: np.ndarray
    outer_pos: np.ndarray
    inner_pos: np.ndarray
    cardinalities: np.ndarray
    #: Outer/inner input cardinalities gathered per candidate.
    outer_cards_pc: np.ndarray
    inner_cards_pc: np.ndarray
    #: ``outer_cost + inner_cost`` rows per candidate (node costs are added).
    base_costs: np.ndarray


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
        self._applicable_arrays: Tuple[np.ndarray, ...] = tuple(
            np.asarray(codes, dtype=np.int64) for codes in self._applicable_by_format
        )
        self._applicable_counts = np.asarray(
            [len(codes) for codes in self._applicable_by_format], dtype=np.int64
        )
        # Join selectivity per (outer, inner) table-set bitset pair; the
        # frozensets the join graph needs are built only on a miss.
        self._selectivity_memo: Dict[Tuple[int, int], float] = {}
        # Candidate-pattern memo of the cross-product layout, keyed by the
        # inner frontier's format sequence (see _cross_pattern).
        self._pattern_memo: Dict[bytes, Tuple[np.ndarray, np.ndarray, int]] = {}
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
        """Join selectivity between two table sets, memoized by their bitsets.

        The bits are decoded into table indices only on a miss.
        """
        key = (outer_bits, inner_bits)
        selectivity = self._selectivity_memo.get(key)
        if selectivity is None:
            selectivity = self._query.selectivity_between(
                bits_members(outer_bits), bits_members(inner_bits)
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
    def _empty_batch(self) -> CandidateBatch:
        empty = np.empty(0, dtype=np.int64)
        return CandidateBatch(
            costs=np.empty((0, self.num_metrics)), cardinalities=np.empty(0),
            op_codes=empty, tags=empty, outer_pos=empty, inner_pos=empty,
        )

    def _cross_pattern(
        self, inner_formats: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Memoized per-outer candidate layout for one inner-format sequence.

        For each inner ``j``, its applicable operator codes in library
        order: ``(pattern_ops, pattern_inner, per_outer)``.  Frontiers with
        the same inner-format sequence (ubiquitous across the splits of a
        DP subset) share one layout, cached by the raw bytes of
        ``inner_formats``.
        """
        key = inner_formats.tobytes()
        cached = self._pattern_memo.get(key)
        if cached is None:
            ops_per_inner = self._applicable_counts[inner_formats]
            pattern_ops = np.concatenate(
                [self._applicable_arrays[code] for code in inner_formats.tolist()]
            )
            pattern_inner = np.repeat(
                np.arange(inner_formats.shape[0], dtype=np.int64), ops_per_inner
            )
            cached = (pattern_ops, pattern_inner, int(ops_per_inner.sum()))
            self._pattern_memo[key] = cached
        return cached

    def _describe_cross(
        self,
        outer_idx: np.ndarray,
        inner_idx: np.ndarray,
        outer_bits: int,
        inner_bits: int,
    ) -> "Optional[_CrossDescription]":
        """Lay out one frontier cross product: everything but the node costs.

        The caller vouches that every outer handle joins exactly the table
        set ``outer_bits`` and every inner handle ``inner_bits``.  Returns
        ``None`` for an empty cross product.  The per-candidate arrays are
        in the scalar loop order ``for outer: for inner: for op``.
        """
        arena = self._arena
        num_outer = outer_idx.shape[0]
        num_inner = inner_idx.shape[0]
        if num_outer == 0 or num_inner == 0:
            return None
        outer_cards = arena.cardinalities_of(outer_idx)
        inner_cards = arena.cardinalities_of(inner_idx)
        selectivity = self._selectivity(outer_bits, inner_bits)
        products = outer_cards[:, None] * inner_cards[None, :] * selectivity
        output_cards = np.where(products > 1.0, products, 1.0)

        inner_formats = arena.format_codes_of(inner_idx)
        pattern_ops, pattern_inner, per_outer = self._cross_pattern(inner_formats)
        op_codes = np.tile(pattern_ops, num_outer)
        inner_pos = np.tile(pattern_inner, num_outer)
        outer_pos = np.repeat(np.arange(num_outer, dtype=np.int64), per_outer)
        return _CrossDescription(
            op_codes=op_codes,
            outer_pos=outer_pos,
            inner_pos=inner_pos,
            cardinalities=output_cards[outer_pos, inner_pos],
            outer_cards_pc=outer_cards[outer_pos],
            inner_cards_pc=inner_cards[inner_pos],
            base_costs=arena.costs_of(outer_idx)[outer_pos]
            + arena.costs_of(inner_idx)[inner_pos],
        )

    def _join_splits(
        self, splits: Sequence[Tuple[Sequence[int], Sequence[int], int, int]]
    ) -> List[CandidateBatch]:
        """Cost every split's cross product with one pass per operator.

        The body of :meth:`join_candidates` and :meth:`join_candidates_multi`
        (kept apart so a profile of one never nests inside the other).
        Per-operator groups are computed once over the concatenated
        candidates; every built-in kernel is elementwise per candidate, so
        each batch is bit-identical whatever else shares its call.
        """
        descriptions = [
            self._describe_cross(
                np.asarray(outer_handles, dtype=np.int64),
                np.asarray(inner_handles, dtype=np.int64),
                outer_bits,
                inner_bits,
            )
            for outer_handles, inner_handles, outer_bits, inner_bits in splits
        ]
        live = [d for d in descriptions if d is not None]
        if not live:
            return [self._empty_batch() for _ in descriptions]
        all_ops = np.concatenate([d.op_codes for d in live])
        groups = {
            code: np.flatnonzero(all_ops == code)
            for code in np.unique(all_ops).tolist()
        }
        node_costs = self._node_costs_grouped(
            np.concatenate([d.outer_cards_pc for d in live]),
            np.concatenate([d.inner_cards_pc for d in live]),
            np.concatenate([d.cardinalities for d in live]),
            groups,
        )
        batches: List[CandidateBatch] = []
        offset = 0
        for description in descriptions:
            if description is None:
                batches.append(self._empty_batch())
                continue
            size = description.op_codes.shape[0]
            totals = description.base_costs + node_costs[offset : offset + size]
            batches.append(
                CandidateBatch(
                    costs=totals,
                    cardinalities=description.cardinalities,
                    op_codes=description.op_codes,
                    tags=self._arena.format_codes_of_ops(description.op_codes),
                    outer_pos=description.outer_pos,
                    inner_pos=description.inner_pos,
                )
            )
            offset += size
        return batches

    def join_candidates(
        self, outer_handles: Sequence[int], inner_handles: Sequence[int]
    ) -> CandidateBatch:
        """Cost the cross product of two partial-plan frontiers.

        All handles on one side must join the **same table set** (the lists
        are partial-plan frontiers of two fixed intermediate results, as in
        ``ApproximateFrontiers``): the join selectivity is computed once
        for that pair of table sets.  Mixed-relation inputs are rejected.

        All ``|outer| × |inner| × |applicable operators|`` candidate joins
        are costed in array expressions (one kernel pass per distinct
        operator); no arena nodes are created.  The batch row order matches
        the scalar loop ``for outer: for inner: for op``, so inserting the
        rows sequentially into a frontier reproduces that loop decision for
        decision.
        """
        if len(outer_handles) == 0 or len(inner_handles) == 0:
            return self._empty_batch()
        arena = self._arena
        sides = []
        for side, handles in (("outer", outer_handles), ("inner", inner_handles)):
            bits = arena.rel_bits(handles[0])
            for handle in handles:
                if arena.rel_bits(handle) != bits:
                    raise ValueError(
                        f"{side} handles must all join the same table set; "
                        f"got {sorted(arena.rel(handle))} and "
                        f"{sorted(arena.rel(handles[0]))}"
                    )
            sides.append(bits)
        return self._join_splits([(outer_handles, inner_handles, *sides)])[0]

    def join_candidates_multi(
        self, splits: Sequence[Tuple[Sequence[int], Sequence[int], int, int]]
    ) -> List[CandidateBatch]:
        """Cost many frontier cross products in one grouped kernel pass.

        ``splits`` rows are ``(outer_handles, inner_handles, outer_bits,
        inner_bits)``: two frontiers and the table-set bitsets they join —
        e.g. every (left, right) split of one DP subset.  The caller vouches
        for the bits (DP splits are enumerated as subset bits, so
        re-reading per-handle relations would only re-check an invariant
        the enumeration guarantees).  The per-node cost kernels run once
        per distinct operator over all splits instead of once per split,
        and each returned batch is bit-identical to the corresponding
        :meth:`join_candidates` call.
        """
        return self._join_splits(splits)

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
