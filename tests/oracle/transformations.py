"""The standard bushy-plan mutations over ``Plan`` objects (Section 4.2).

The runtime's :class:`repro.plans.transformations.TransformationRules`
holds only the three ablation flags; this subclass adds the mutations
themselves, built through the object cost model.  Every mutation list
starts with the input plan (the identity move), exactly as ParetoStep
expects.
"""

from __future__ import annotations

from typing import List

from repro.cost.model import PlanFactory
from repro.plans.operators import JoinOperator
from repro.plans.plan import JoinPlan, Plan, ScanPlan
from repro.plans.transformations import TransformationRules as RuleFlags


class TransformationRules(RuleFlags):
    """Generates neighbor plans via the standard bushy-plan transformations."""

    @classmethod
    def of(cls, flags: RuleFlags | None) -> "TransformationRules":
        """The object rules carrying ``flags``' ablation switches."""
        if isinstance(flags, cls):
            return flags
        if flags is None:
            return cls()
        return cls(
            enable_associativity=flags.enable_associativity,
            enable_exchange=flags.enable_exchange,
            enable_operator_change=flags.enable_operator_change,
        )

    def mutations(self, plan: Plan, factory: PlanFactory) -> List[Plan]:
        """All neighbor plans reachable from ``plan`` via one local transformation.

        The returned list always includes ``plan`` itself (the identity
        mutation) and never contains plans joining a different table set.
        """
        if isinstance(plan, ScanPlan):
            return self._scan_mutations(plan, factory)
        if isinstance(plan, JoinPlan):
            return self._join_mutations(plan, factory)
        raise TypeError(f"unknown plan type: {type(plan)!r}")

    def rebuild_join(
        self,
        outer: Plan,
        inner: Plan,
        preferred: JoinOperator,
        factory: PlanFactory,
    ) -> JoinPlan:
        """Build ``outer ⋈ inner`` using ``preferred`` if applicable.

        Falls back to the library's first applicable operator when the
        preferred operator cannot be used on the children's output formats
        (e.g. a nested-loop join whose inner became pipelined).
        """
        applicable = factory.join_operators(outer, inner)
        operator = preferred if preferred in applicable else applicable[0]
        return factory.make_join(outer, inner, operator)

    def _scan_mutations(self, plan: ScanPlan, factory: PlanFactory) -> List[Plan]:
        results: List[Plan] = [plan]
        if not self.enable_operator_change:
            return results
        for operator in factory.scan_operators(plan.table.index):
            if operator != plan.operator:
                results.append(factory.make_scan(plan.table.index, operator))
        return results

    def _join_mutations(self, plan: JoinPlan, factory: PlanFactory) -> List[Plan]:
        results: List[Plan] = [plan]
        outer, inner = plan.outer, plan.inner
        root_operator = plan.operator

        # Operator change at the root.
        if self.enable_operator_change:
            for operator in factory.join_operators(outer, inner):
                if operator != root_operator:
                    results.append(factory.make_join(outer, inner, operator))

        # Commutativity: swap outer and inner.
        for operator in self._root_operators(inner, outer, root_operator, factory):
            results.append(factory.make_join(inner, outer, operator))

        # Rules that require a join as the outer child.
        if isinstance(outer, JoinPlan):
            a, b = outer.outer, outer.inner
            if self.enable_associativity:
                # (A ⋈ B) ⋈ C  →  A ⋈ (B ⋈ C)
                new_inner = self.rebuild_join(b, inner, outer.operator, factory)
                for operator in self._root_operators(a, new_inner, root_operator, factory):
                    results.append(factory.make_join(a, new_inner, operator))
            if self.enable_exchange:
                # (A ⋈ B) ⋈ C  →  (A ⋈ C) ⋈ B
                new_outer = self.rebuild_join(a, inner, outer.operator, factory)
                for operator in self._root_operators(new_outer, b, root_operator, factory):
                    results.append(factory.make_join(new_outer, b, operator))

        # Rules that require a join as the inner child.
        if isinstance(inner, JoinPlan):
            b, c = inner.outer, inner.inner
            if self.enable_associativity:
                # A ⋈ (B ⋈ C)  →  (A ⋈ B) ⋈ C
                new_outer = self.rebuild_join(outer, b, inner.operator, factory)
                for operator in self._root_operators(new_outer, c, root_operator, factory):
                    results.append(factory.make_join(new_outer, c, operator))
            if self.enable_exchange:
                # A ⋈ (B ⋈ C)  →  B ⋈ (A ⋈ C)
                new_inner = self.rebuild_join(outer, c, inner.operator, factory)
                for operator in self._root_operators(b, new_inner, root_operator, factory):
                    results.append(factory.make_join(b, new_inner, operator))

        return results

    def _root_operators(
        self,
        outer: Plan,
        inner: Plan,
        preferred: JoinOperator,
        factory: PlanFactory,
    ) -> List[JoinOperator]:
        """Operators to try at the root of a structural mutation.

        With operator change enabled every applicable operator is tried,
        otherwise only the preferred operator (or the first applicable one as
        a fallback) is used, keeping the number of mutations per node bounded
        by a constant in both configurations.
        """
        applicable = factory.join_operators(outer, inner)
        if self.enable_operator_change:
            return list(applicable)
        if preferred in applicable:
            return [preferred]
        return [applicable[0]]
