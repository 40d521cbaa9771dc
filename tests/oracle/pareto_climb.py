"""``ParetoStep`` / ``ParetoClimb`` (Algorithm 2) over ``Plan`` objects.

``pareto_step`` improves a plan by first improving its sub-plans
recursively and then applying the local transformations at the current
node, so mutations in independent sub-trees are applied in one step.  Per
output data representation one non-dominated candidate is kept (the
pseudocode's ``SameOutput`` pruning; Lemma 2 assumes one plan per format).
``climb`` repeats steps until no mutation strictly dominates the plan.
"""

from __future__ import annotations

from typing import Dict, List

from oracle.transformations import TransformationRules
from repro.core.pareto_climb import ClimbResult
from repro.cost.model import PlanFactory
from repro.pareto.dominance import strictly_dominates
from repro.pareto.engine import SMALL_SET_SIZE, as_cost_matrix, dominance_fold
from repro.plans.operators import DataFormat
from repro.plans.plan import JoinPlan, Plan
from repro.plans.transformations import TransformationRules as RuleFlags


class ParetoClimber:
    """Multi-objective hill climbing over the bushy plan space."""

    def __init__(
        self,
        factory: PlanFactory,
        rules: RuleFlags | None = None,
        max_steps: int = 10_000,
    ) -> None:
        if max_steps < 1:
            raise ValueError(f"max_steps must be positive, got {max_steps}")
        self._factory = factory
        self._rules = TransformationRules.of(rules)
        self._max_steps = max_steps
        self._plans_built = 0

    # ------------------------------------------------------------ ParetoStep
    def pareto_step(self, plan: Plan) -> Dict[DataFormat, Plan]:
        """One parallel transformation step; the best mutation per format."""
        candidates: List[Plan]
        if isinstance(plan, JoinPlan):
            outer_pareto = self.pareto_step(plan.outer)
            inner_pareto = self.pareto_step(plan.inner)
            candidates = []
            for outer in outer_pareto.values():
                for inner in inner_pareto.values():
                    rebuilt = self._rebuild(plan, outer, inner)
                    candidates.extend(self._rules.mutations(rebuilt, self._factory))
        else:
            candidates = self._rules.mutations(plan, self._factory)
        self._plans_built += len(candidates)
        return self._prune_per_format(candidates)

    # ----------------------------------------------------------- ParetoClimb
    def climb(self, plan: Plan) -> ClimbResult:
        """Climb from ``plan`` until no neighbor strictly dominates it."""
        built_before = self._plans_built
        current = plan
        path_length = 0
        improving = True
        while improving and path_length < self._max_steps:
            improving = False
            for mutated in self.pareto_step(current).values():
                if strictly_dominates(mutated.cost, current.cost):
                    current = mutated
                    path_length += 1
                    improving = True
                    break
        return ClimbResult(
            plan=current,
            path_length=path_length,
            plans_built=self._plans_built - built_before,
        )

    # ------------------------------------------------------------ accessors
    @property
    def plans_built(self) -> int:
        """Total number of candidate plans constructed by this climber."""
        return self._plans_built

    @property
    def rules(self) -> TransformationRules:
        """The transformation rules defining the neighborhood."""
        return self._rules

    # ------------------------------------------------------------- internals
    def _rebuild(self, original: JoinPlan, outer: Plan, inner: Plan) -> JoinPlan:
        """Rebuild the original join on top of possibly improved children."""
        if outer is original.outer and inner is original.inner:
            return original
        return self._rules.rebuild_join(outer, inner, original.operator, self._factory)

    def _prune_per_format(self, candidates: List[Plan]) -> Dict[DataFormat, Plan]:
        """Keep one non-dominated candidate per output data representation.

        When two candidates of the same representation are mutually
        non-dominated the incumbent is kept (Section 4.2 allows any
        non-dominated neighbor).  Large groups fold through the vectorized
        kernel, which selects the same plan.
        """
        groups: Dict[DataFormat, List[Plan]] = {}
        for candidate in candidates:
            groups.setdefault(candidate.output_format, []).append(candidate)
        best: Dict[DataFormat, Plan] = {}
        for output_format, group in groups.items():
            if len(group) > SMALL_SET_SIZE:
                costs = as_cost_matrix([plan.cost for plan in group])
                best[output_format] = group[dominance_fold(costs)]
                continue
            incumbent = group[0]
            for candidate in group[1:]:
                if strictly_dominates(candidate.cost, incumbent.cost):
                    incumbent = candidate
            best[output_format] = incumbent
        return best
