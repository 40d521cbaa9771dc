"""Local plan transformations for bushy query plans.

Section 4.2 of the paper assumes "the standard mutations for bushy query
plans [Steinbrunn et al.]" applied at each node of the plan tree.  Those
rules, operating on the top two levels of a (sub-)plan rooted at a join node,
are:

* **commutativity** — ``A ⋈ B  →  B ⋈ A``
* **left associativity** — ``(A ⋈ B) ⋈ C  →  A ⋈ (B ⋈ C)``
* **right associativity** — ``A ⋈ (B ⋈ C)  →  (A ⋈ B) ⋈ C``
* **left join exchange** — ``(A ⋈ B) ⋈ C  →  (A ⋈ C) ⋈ B``
* **right join exchange** — ``A ⋈ (B ⋈ C)  →  B ⋈ (A ⋈ C)``
* **operator change** — replace the physical operator of the root node

Scan nodes only mutate by operator change.  Every mutation list also contains
the identity rebuild of the input plan so that hill climbing can keep the
current structure when no transformation improves it.

All transformations are *local*: they only rebuild the top one or two join
nodes, reusing existing sub-plans, so one mutation costs O(#metrics) thanks
to the bottom-up cost vectors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - imports for type checking only
    from repro.cost.batch import BatchCostModel, JoinSpec, PlanRef


class TransformationRules:
    """The ablation switches of the bushy-plan neighborhood.

    Parameters
    ----------
    enable_associativity:
        Allow the two associativity rules; disabling them restricts the
        reachable plan space (useful for ablation experiments).
    enable_exchange:
        Allow the two join-exchange rules.
    enable_operator_change:
        Allow replacing the root operator by other applicable operators.
    """

    def __init__(
        self,
        enable_associativity: bool = True,
        enable_exchange: bool = True,
        enable_operator_change: bool = True,
    ) -> None:
        self.enable_associativity = enable_associativity
        self.enable_exchange = enable_exchange
        self.enable_operator_change = enable_operator_change


class ArenaTransformationRules:
    """The neighborhood, generated over plan-arena references.

    Produces *uncosted* :class:`~repro.cost.batch.JoinSpec` candidates.
    Structural rebuilds — the intermediates of associativity/exchange
    moves — are pending specs too, so a candidate may have a spec child.  Callers collect the specs of many neighborhoods
    and cost them in one batched
    :meth:`~repro.cost.batch.BatchCostModel.cost_specs` call (intermediates
    first); only selected candidates, and the intermediates they use, are
    ever realized into arena nodes.

    ``rules`` supplies the ablation flags (all rules enabled by default).
    """

    def __init__(
        self,
        model: "BatchCostModel",
        rules: TransformationRules | None = None,
    ) -> None:
        flags = rules if rules is not None else TransformationRules()
        self._model = model
        self._arena = model.arena
        self.enable_associativity = flags.enable_associativity
        self.enable_exchange = flags.enable_exchange
        self.enable_operator_change = flags.enable_operator_change

    # ----------------------------------------------------------- public API
    def is_join(self, ref: "PlanRef") -> bool:
        """Whether a reference (handle or pending spec) is a join."""
        return not isinstance(ref, int) or self._arena.is_join(ref)

    def children_of(self, ref: "PlanRef") -> "Tuple[PlanRef, PlanRef]":
        """Outer and inner child references of a join reference."""
        if isinstance(ref, int):
            return self._arena.outer(ref), self._arena.inner(ref)
        return ref.outer, ref.inner

    def op_code_of(self, ref: "PlanRef") -> int:
        """Operator code of a join reference."""
        return ref.op_code if not isinstance(ref, int) else self._arena.op_code(ref)

    def mutations(
        self, ref: "PlanRef", pending: "List[JoinSpec]"
    ) -> "List[PlanRef]":
        """All neighbors of ``ref`` via one local transformation (uncosted).

        Newly created specs are appended to ``pending`` for batched costing;
        the returned candidate list always starts with ``ref`` itself (the
        identity move).
        """
        if not self.is_join(ref):
            return self._scan_mutations(ref)
        return self._join_mutations(ref, pending)

    def rebuild_join(
        self,
        outer: int,
        inner: int,
        preferred_code: int,
    ) -> int:
        """Build ``outer ⋈ inner`` into the arena, preferring ``preferred_code``.

        The eager twin of :meth:`describe_join`, for callers that need a
        handle at once (simulated annealing's spine rebuild).
        """
        return self._model.make_join(outer, inner, self._rebuild_code(inner, preferred_code))

    def describe_join(
        self,
        outer: "PlanRef",
        inner: "PlanRef",
        preferred_code: int,
        pending: "List[JoinSpec]",
    ) -> "JoinSpec":
        """Describe ``outer ⋈ inner`` as a pending spec appended to ``pending``.

        Uses ``preferred_code`` if applicable, else the library's first
        applicable operator — the same choice as :meth:`rebuild_join`.
        """
        from repro.cost.batch import JoinSpec

        spec = JoinSpec(outer, inner, self._rebuild_code(inner, preferred_code))
        pending.append(spec)
        return spec

    # ------------------------------------------------------------ internals
    def _scan_mutations(self, ref: "PlanRef") -> "List[PlanRef]":
        assert isinstance(ref, int)
        results: "List[PlanRef]" = [ref]
        if not self.enable_operator_change:
            return results
        table_index = self._arena.table_index(ref)
        current_code = self._arena.op_code(ref)
        for op_code in self._model.scan_codes(table_index):
            if op_code != current_code:
                results.append(self._model.make_scan(table_index, op_code))
        return results

    def _join_mutations(
        self, ref: "PlanRef", pending: "List[JoinSpec]"
    ) -> "List[PlanRef]":
        from repro.cost.batch import JoinSpec

        results: "List[PlanRef]" = [ref]
        outer, inner = self.children_of(ref)
        root_code = self.op_code_of(ref)

        def emit(new_outer: "PlanRef", new_inner: "PlanRef", code: int) -> None:
            spec = JoinSpec(new_outer, new_inner, code)
            pending.append(spec)
            results.append(spec)

        # Operator change at the root.
        if self.enable_operator_change:
            for code in self._model.join_codes_for(inner):
                if code != root_code:
                    emit(outer, inner, code)

        # Commutativity: swap outer and inner.
        for code in self._root_codes(outer, root_code):
            emit(inner, outer, code)

        # Rules that require a join as the outer child.
        if self.is_join(outer):
            a, b = self.children_of(outer)
            outer_code = self.op_code_of(outer)
            if self.enable_associativity:
                # (A ⋈ B) ⋈ C  →  A ⋈ (B ⋈ C)
                new_inner = self.describe_join(b, inner, outer_code, pending)
                for code in self._root_codes(new_inner, root_code):
                    emit(a, new_inner, code)
            if self.enable_exchange:
                # (A ⋈ B) ⋈ C  →  (A ⋈ C) ⋈ B
                new_outer = self.describe_join(a, inner, outer_code, pending)
                for code in self._root_codes(b, root_code):
                    emit(new_outer, b, code)

        # Rules that require a join as the inner child.
        if self.is_join(inner):
            b, c = self.children_of(inner)
            inner_code = self.op_code_of(inner)
            if self.enable_associativity:
                # A ⋈ (B ⋈ C)  →  (A ⋈ B) ⋈ C
                new_outer = self.describe_join(outer, b, inner_code, pending)
                for code in self._root_codes(c, root_code):
                    emit(new_outer, c, code)
            if self.enable_exchange:
                # A ⋈ (B ⋈ C)  →  B ⋈ (A ⋈ C)
                new_inner = self.describe_join(outer, c, inner_code, pending)
                for code in self._root_codes(new_inner, root_code):
                    emit(b, new_inner, code)

        return results

    def _rebuild_code(self, inner: "PlanRef", preferred_code: int) -> int:
        """``preferred_code`` if applicable on ``inner``, else the first applicable."""
        applicable = self._model.join_codes_for(inner)
        return preferred_code if preferred_code in applicable else applicable[0]

    def _root_codes(self, inner: "PlanRef", preferred_code: int) -> List[int]:
        """Root operator codes for a structural mutation.

        With operator change enabled every applicable operator is tried,
        otherwise only the preferred operator (or the first applicable one
        as a fallback), keeping the number of mutations per node bounded by
        a constant in both configurations.
        """
        applicable = self._model.join_codes_for(inner)
        if self.enable_operator_change:
            return list(applicable)
        if preferred_code in applicable:
            return [preferred_code]
        return [applicable[0]]
