"""Shared local-search utilities for the randomized baselines.

The SA, 2P and WeightedSum baselines move between *neighbor* plans: plans
reachable via a single local transformation at a single node of the plan
tree (Steinbrunn et al.).  Plans are immutable arena handles, so applying a
mutation at an inner node rebuilds the spine from that node up to the
root; this module implements that rebuild and neighbor sampling on top of
the transformation rules shared with RMQ.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.plans.transformations import ArenaTransformationRules

if TYPE_CHECKING:  # pragma: no cover - import for type checking only
    from repro.cost.batch import BatchCostModel, JoinSpec, PlanRef

#: A path from the root to a node: a sequence of 'o' (outer) / 'i' (inner) steps.
NodePath = Tuple[str, ...]


def arena_node_paths(model: "BatchCostModel", handle: int) -> List[NodePath]:
    """Paths to every node of a handle's plan tree, root first, outer before
    inner (the root has the empty path)."""
    arena = model.arena
    paths: List[NodePath] = []

    def visit(node: int, path: NodePath) -> None:
        paths.append(path)
        if arena.is_join(node):
            visit(arena.outer(node), path + ("o",))
            visit(arena.inner(node), path + ("i",))

    visit(handle, ())
    return paths


def arena_node_at(model: "BatchCostModel", handle: int, path: NodePath) -> int:
    """The handle reached by following ``path`` from the root."""
    arena = model.arena
    node = handle
    for step in path:
        if not arena.is_join(node):
            raise ValueError(f"path {path} descends below a scan node")
        node = arena.outer(node) if step == "o" else arena.inner(node)
    return node


def arena_replace_at(
    model: "BatchCostModel",
    handle: int,
    path: NodePath,
    replacement: int,
    rules: ArenaTransformationRules,
) -> int:
    """Return ``handle``'s plan with the node at ``path`` replaced.

    The spine from the replaced node to the root is rebuilt (re-costed);
    operators on the spine are kept when still applicable and otherwise
    replaced by the library's first applicable operator.
    """
    if not path:
        return replacement
    arena = model.arena
    if not arena.is_join(handle):
        raise ValueError(f"path {path} descends below a scan node")
    step, rest = path[0], path[1:]
    if step == "o":
        new_outer = arena_replace_at(model, arena.outer(handle), rest, replacement, rules)
        return rules.rebuild_join(new_outer, arena.inner(handle), arena.op_code(handle))
    new_inner = arena_replace_at(model, arena.inner(handle), rest, replacement, rules)
    return rules.rebuild_join(arena.outer(handle), new_inner, arena.op_code(handle))


def arena_random_neighbor(
    model: "BatchCostModel",
    handle: int,
    rules: ArenaTransformationRules,
    rng: random.Random,
    max_attempts: int = 10,
) -> Optional[int]:
    """A random neighbor (one mutation at one random node), or ``None``.

    ``None`` means no non-identity mutation was found in ``max_attempts``
    sampled nodes (only possible with a single-operator library and a
    single table).  Only the chosen mutation is costed and realized; the
    other candidates of the sampled node stay uncosted descriptions.
    """
    from repro.cost.batch import JoinSpec

    paths = arena_node_paths(model, handle)
    for _ in range(max_attempts):
        path = rng.choice(paths)
        node = arena_node_at(model, handle, path)
        # mutations() always lists the node itself first; every other entry
        # is structurally distinct, so dropping the head leaves exactly the
        # non-identity moves.
        pending: List[JoinSpec] = []
        mutations = rules.mutations(node, pending)[1:]
        if not mutations:
            continue
        mutated = rng.choice(mutations)
        if isinstance(mutated, JoinSpec):
            model.cost_specs([mutated])
            mutated = model.realize(mutated)
        return arena_replace_at(model, handle, path, mutated, rules)
    return None


def arena_all_neighbors(
    model: "BatchCostModel", handle: int, rules: ArenaTransformationRules
) -> "List[PlanRef]":
    """All neighbors of a plan: every mutation applied at every node.

    Neighbors are listed node by node in :func:`arena_node_paths` order and
    mutation by mutation in rule order.  Each is described, spine included,
    as pending specs and all are costed in one
    :meth:`~repro.cost.batch.BatchCostModel.cost_specs` call; none is
    realized, so a caller realizes only the neighbor it moves to.
    """
    pending: "List[JoinSpec]" = []
    neighbors: "List[PlanRef]" = []
    for path in arena_node_paths(model, handle):
        node = arena_node_at(model, handle, path)
        for mutated in rules.mutations(node, pending)[1:]:
            neighbors.append(
                _describe_replace_at(model, handle, path, mutated, rules, pending)
            )
    model.cost_specs(pending)
    return neighbors


def _describe_replace_at(
    model: "BatchCostModel",
    handle: int,
    path: NodePath,
    replacement: "PlanRef",
    rules: ArenaTransformationRules,
    pending: "List[JoinSpec]",
) -> "PlanRef":
    """:func:`arena_replace_at` with the rebuilt spine as pending specs."""
    if not path:
        return replacement
    arena = model.arena
    step, rest = path[0], path[1:]
    if step == "o":
        new_outer = _describe_replace_at(
            model, arena.outer(handle), rest, replacement, rules, pending
        )
        return rules.describe_join(
            new_outer, arena.inner(handle), arena.op_code(handle), pending
        )
    new_inner = _describe_replace_at(
        model, arena.inner(handle), rest, replacement, rules, pending
    )
    return rules.describe_join(
        arena.outer(handle), new_inner, arena.op_code(handle), pending
    )
