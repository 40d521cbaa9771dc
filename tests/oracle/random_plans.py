"""``RandomPlan`` (Algorithm 1) over ``Plan`` objects.

A random bushy tree is built by repeatedly joining two uniformly chosen
partial plans until one remains: O(n) plan-node constructions (Lemma 1).
Operators are drawn uniformly among the applicable ones.  The left-deep
variant is the exchange of join-order space Section 4.1 mentions.
"""

from __future__ import annotations

import random
from typing import List

from repro.cost.model import PlanFactory
from repro.plans.plan import Plan


class RandomPlanGenerator:
    """Generates random query plans for one query/cost model."""

    def __init__(self, factory: PlanFactory, rng: random.Random | None = None) -> None:
        self._factory = factory
        self._rng = rng if rng is not None else random.Random()

    def random_bushy_plan(self) -> Plan:
        """A uniformly random bushy plan with random operator choices."""
        partial_plans = self._random_leaves()
        while len(partial_plans) > 1:
            outer = partial_plans.pop(self._rng.randrange(len(partial_plans)))
            inner = partial_plans.pop(self._rng.randrange(len(partial_plans)))
            partial_plans.append(self._random_join(outer, inner))
        return partial_plans[0]

    def random_left_deep_plan(self) -> Plan:
        """A random left-deep plan (outer child is always the composite)."""
        table_indices = list(self._factory.query.relations)
        self._rng.shuffle(table_indices)
        plan = self._random_scan(table_indices[0])
        for table_index in table_indices[1:]:
            plan = self._random_join(plan, self._random_scan(table_index))
        return plan

    def random_plans(self, count: int) -> List[Plan]:
        """Generate ``count`` independent random bushy plans."""
        return [self.random_bushy_plan() for _ in range(count)]

    def _random_leaves(self) -> List[Plan]:
        leaves = [
            self._random_scan(table_index)
            for table_index in sorted(self._factory.query.relations)
        ]
        self._rng.shuffle(leaves)
        return leaves

    def _random_scan(self, table_index: int) -> Plan:
        operator = self._rng.choice(self._factory.scan_operators(table_index))
        return self._factory.make_scan(table_index, operator)

    def _random_join(self, outer: Plan, inner: Plan) -> Plan:
        operator = self._rng.choice(self._factory.join_operators(outer, inner))
        return self._factory.make_join(outer, inner, operator)
