"""Fast multi-objective hill climbing (Algorithm 2 of the paper).

``ParetoStep`` improves a plan by recursively improving its sub-plans and
then applying the local transformations at the current node, so that many
beneficial mutations in independent sub-trees are applied in a single step.
``ParetoClimb`` repeats steps until no neighbor strictly dominates the
current plan.

Two properties of the problem are exploited, exactly as discussed in
Section 4.2:

* the multi-objective principle of optimality — sub-plan improvements never
  worsen the whole plan, so mutations are judged by their local cost effect
  (cost vectors are maintained bottom-up, making re-costing O(#metrics));
* plan decomposability — mutations in independent sub-trees are applied
  simultaneously, reducing the number of complete plans built on the path to
  a local optimum.

Plans producing different output data representations are kept separately
during a step (the paper's ``SameOutput`` pruning), because the
representation influences the cost and applicability of operators higher up
in the tree.  Per representation a single non-dominated candidate is kept,
matching the pseudo-code's intent ("keeps one Pareto plan per output
format") and the complexity analysis (Lemma 2), which assumes each
``ParetoStep`` instance returns one plan per format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from repro.pareto.dominance import strictly_dominates
from repro.pareto.engine import SMALL_SET_SIZE, as_cost_matrix, dominance_fold
from repro.plans.transformations import ArenaTransformationRules, TransformationRules

if TYPE_CHECKING:  # pragma: no cover - imports for type checking only
    from repro.cost.batch import BatchCostModel, JoinSpec, PlanRef


@dataclass(frozen=True)
class ClimbResult:
    """Outcome of one ``ParetoClimb`` invocation.

    Attributes
    ----------
    plan:
        The locally Pareto-optimal plan reached by the climb (an arena
        handle).
    path_length:
        Number of strictly improving moves performed (the statistic shown in
        Figure 3, left).
    plans_built:
        Number of plan nodes constructed during the climb (work counter).
    """

    plan: int
    path_length: int
    plans_built: int


class ArenaParetoClimber:
    """Multi-objective hill climbing over the bushy plan space.

    A ``ParetoStep`` walks the plan tree one height at a time, bottom up.
    Nodes of equal height are never ancestor and descendant, so no node's
    neighborhood depends on another's winners: each height *describes* the
    neighborhoods of all its nodes as uncosted
    :class:`~repro.cost.batch.JoinSpec` candidates (via
    :class:`~repro.plans.transformations.ArenaTransformationRules`) — each
    node's rebuild on its children's winners and the structural
    intermediates are pending specs — costs them in one batched
    :meth:`~repro.cost.batch.BatchCostModel.cost_specs` call, and keeps one
    non-dominated candidate per output format and node.  Only these
    winners (and the intermediates they use) become arena nodes, so a
    climb allocates a handful of rows per step.

    ``ParetoStep`` is a pure function of the (hash-consed) plan handle, so
    its result is memoized per handle: successive climb steps share every
    sub-tree that did not change, and repeated encounters of the same
    sub-plan across iterations are dictionary hits.  The work counter is
    charged as if the sub-tree had been re-derived (each memo entry records
    its sub-tree's candidate count), so ``plans_built`` counts every
    candidate of every step.

    Parameters
    ----------
    model:
        Batch cost model whose arena holds the plans.
    rules:
        Ablation flags of the neighborhood (all rules by default).
    max_steps:
        Safety bound on the number of climbing steps (the climb always
        terminates because every move strictly dominates its predecessor,
        but a bound keeps worst cases predictable).
    """

    def __init__(
        self,
        model: "BatchCostModel",
        rules: TransformationRules | None = None,
        max_steps: int = 10_000,
    ) -> None:
        if max_steps < 1:
            raise ValueError(f"max_steps must be positive, got {max_steps}")
        self._model = model
        self._arena = model.arena
        self._rules = ArenaTransformationRules(model, rules)
        self._max_steps = max_steps
        self._plans_built = 0
        # handle -> (winners per format, candidate count of the whole
        # sub-tree), see the class docstring.
        self._step_memo: Dict[int, tuple] = {}

    # ------------------------------------------------------------ ParetoStep
    def pareto_step(self, handle: int) -> Dict[int, int]:
        """One parallel transformation step; maps format codes to handles."""
        if handle not in self._step_memo:
            self._step_by_height(handle)
        winners, subtree_candidates = self._step_memo[handle]
        self._plans_built += subtree_candidates
        return winners

    def _step_by_height(self, root: int) -> None:
        """Memoize ``ParetoStep`` for every uncached node of ``root``'s tree."""
        arena = self._arena
        memo = self._step_memo
        rules = self._rules
        for level in arena.nodes_by_height(root, skip=memo):
            pending: "List[JoinSpec]" = []
            neighborhoods = []
            for node in level:
                if not arena.is_join(node):
                    neighborhoods.append((node, rules.mutations(node, pending), 0))
                    continue
                outer = arena.outer(node)
                inner = arena.inner(node)
                outer_winners, outer_candidates = memo[outer]
                inner_winners, inner_candidates = memo[inner]
                root_code = arena.op_code(node)
                candidates: "List[PlanRef]" = []
                for new_outer in outer_winners.values():
                    for new_inner in inner_winners.values():
                        if new_outer == outer and new_inner == inner:
                            rebuilt: "PlanRef" = node
                        else:
                            rebuilt = rules.describe_join(
                                new_outer, new_inner, root_code, pending
                            )
                        candidates.extend(rules.mutations(rebuilt, pending))
                neighborhoods.append(
                    (node, candidates, outer_candidates + inner_candidates)
                )
            if pending:
                self._model.cost_specs(pending)
            for node, candidates, below in neighborhoods:
                memo[node] = (
                    self._prune_per_format(candidates),
                    below + len(candidates),
                )

    # ----------------------------------------------------------- ParetoClimb
    def climb(self, handle: int) -> ClimbResult:
        """Climb from ``handle`` until no neighbor strictly dominates it."""
        built_before = self._plans_built
        arena = self._arena
        current = handle
        path_length = 0
        improving = True
        while improving and path_length < self._max_steps:
            improving = False
            mutations = self.pareto_step(current)
            for mutated in mutations.values():
                if strictly_dominates(arena.cost(mutated), arena.cost(current)):
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
        """Total number of candidate plans costed by this climber."""
        return self._plans_built

    # ------------------------------------------------------------- internals
    def _cost_of(self, ref: "PlanRef"):
        if isinstance(ref, int):
            return self._arena.cost(ref)
        assert ref.cost is not None
        return ref.cost

    def _prune_per_format(self, candidates: "List[PlanRef]") -> Dict[int, int]:
        """Keep one non-dominated candidate per output format.

        When two candidates of the same format are mutually non-dominated
        the incumbent is kept; Section 4.2 explicitly allows selecting an
        arbitrary non-dominated neighbor instead of branching.  Large groups
        resolve the sequential fold through the vectorized
        :func:`~repro.pareto.engine.dominance_fold`, which selects the same
        candidate.  Winners are realized into arena handles; losing
        candidates never touch the arena.
        """
        model = self._model
        arena = self._arena
        op_list = arena.op_code_list
        fmt_of_op = arena.format_code_by_op
        groups: "Dict[int, List[PlanRef]]" = {}
        for candidate in candidates:
            if type(candidate) is int:
                code = fmt_of_op[op_list[candidate]]
            else:
                code = fmt_of_op[candidate.op_code]
            groups.setdefault(code, []).append(candidate)
        best: Dict[int, int] = {}
        for format_code, group in groups.items():
            if len(group) > SMALL_SET_SIZE:
                costs = as_cost_matrix([self._cost_of(ref) for ref in group])
                best[format_code] = model.realize(group[dominance_fold(costs)])
                continue
            incumbent = group[0]
            incumbent_cost = self._cost_of(incumbent)
            for candidate in group[1:]:
                candidate_cost = self._cost_of(candidate)
                if strictly_dominates(candidate_cost, incumbent_cost):
                    incumbent = candidate
                    incumbent_cost = candidate_cost
            best[format_code] = model.realize(incumbent)
        return best
