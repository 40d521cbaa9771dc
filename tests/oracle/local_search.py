"""Single-node neighbors of a ``Plan`` tree (SA, 2P and WeightedSum).

A neighbor applies one local transformation at one node of the plan tree.
Plans are immutable, so the spine from that node up to the root is
rebuilt (and re-costed); spine operators are kept where still applicable
and otherwise replaced by the library's first applicable operator.
"""

from __future__ import annotations

import random
from typing import List, Optional

from oracle.transformations import TransformationRules
from repro.baselines.local_search import NodePath
from repro.cost.model import PlanFactory
from repro.plans.plan import JoinPlan, Plan


def enumerate_node_paths(plan: Plan) -> List[NodePath]:
    """Paths to every node of the plan tree (the root has the empty path)."""
    paths: List[NodePath] = []

    def visit(node: Plan, path: NodePath) -> None:
        paths.append(path)
        if isinstance(node, JoinPlan):
            visit(node.outer, path + ("o",))
            visit(node.inner, path + ("i",))

    visit(plan, ())
    return paths


def node_at(plan: Plan, path: NodePath) -> Plan:
    """The node reached by following ``path`` from the root."""
    node = plan
    for step in path:
        if not isinstance(node, JoinPlan):
            raise ValueError(f"path {path} descends below a scan node")
        node = node.outer if step == "o" else node.inner
    return node


def replace_at(
    plan: Plan,
    path: NodePath,
    replacement: Plan,
    rules: TransformationRules,
    factory: PlanFactory,
) -> Plan:
    """Return a copy of ``plan`` with the node at ``path`` replaced."""
    if not path:
        return replacement
    if not isinstance(plan, JoinPlan):
        raise ValueError(f"path {path} descends below a scan node")
    rules = TransformationRules.of(rules)
    step, rest = path[0], path[1:]
    if step == "o":
        new_outer = replace_at(plan.outer, rest, replacement, rules, factory)
        return rules.rebuild_join(new_outer, plan.inner, plan.operator, factory)
    new_inner = replace_at(plan.inner, rest, replacement, rules, factory)
    return rules.rebuild_join(plan.outer, new_inner, plan.operator, factory)


def random_neighbor(
    plan: Plan,
    rules: TransformationRules,
    factory: PlanFactory,
    rng: random.Random,
    max_attempts: int = 10,
) -> Optional[Plan]:
    """A random neighbor of ``plan`` (one mutation at one random node).

    Returns ``None`` when no non-identity mutation exists anywhere in the
    plan (only possible with a single-operator library and a single table).
    """
    rules = TransformationRules.of(rules)
    paths = enumerate_node_paths(plan)
    for _ in range(max_attempts):
        path = rng.choice(paths)
        node = node_at(plan, path)
        mutations = [
            mutated for mutated in rules.mutations(node, factory) if mutated is not node
        ]
        if not mutations:
            continue
        mutated = rng.choice(mutations)
        return replace_at(plan, path, mutated, rules, factory)
    return None


def all_neighbors(
    plan: Plan,
    rules: TransformationRules,
    factory: PlanFactory,
) -> List[Plan]:
    """All neighbors of ``plan``: every mutation applied at every node."""
    rules = TransformationRules.of(rules)
    neighbors: List[Plan] = []
    for path in enumerate_node_paths(plan):
        node = node_at(plan, path)
        for mutated in rules.mutations(node, factory):
            if mutated is node:
                continue
            neighbors.append(replace_at(plan, path, mutated, rules, factory))
    return neighbors
