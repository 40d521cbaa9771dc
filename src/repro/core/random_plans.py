"""Random query plan generation (``RandomPlan`` in Algorithm 1).

The paper requires random *bushy* plans generated in linear time (Lemma 1,
citing Quiroz's linear-time random binary tree generation).  The generator
below builds a random bushy tree by repeatedly joining two uniformly chosen
partial plans until a single plan remains, which runs in O(n) plan-node
constructions and samples uniformly among join orders reachable by that
process.  Operators are chosen uniformly among the applicable operators of
the library.

A left-deep variant is provided because Section 4.1 notes that the algorithm
"can easily be adapted to consider different join order spaces (e.g.,
left-deep plans) by exchanging the random plan generation method".
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - import for type checking only
    from repro.cost.batch import BatchCostModel


class ArenaRandomPlanGenerator:
    """Generates random query plans for one query, as arena handles.

    Parameters
    ----------
    model:
        Batch cost model whose arena the plans are built into.
    rng:
        Source of randomness; inject a seeded ``random.Random`` for
        reproducible runs.
    """

    def __init__(
        self, model: "BatchCostModel", rng: random.Random | None = None
    ) -> None:
        self._model = model
        self._rng = rng if rng is not None else random.Random()

    # ------------------------------------------------------------ bushy plans
    def random_bushy_plan(self) -> int:
        """A uniformly random bushy plan with random operator choices."""
        partial_plans = self._random_leaves()
        while len(partial_plans) > 1:
            outer = partial_plans.pop(self._rng.randrange(len(partial_plans)))
            inner = partial_plans.pop(self._rng.randrange(len(partial_plans)))
            partial_plans.append(self._random_join(outer, inner))
        return partial_plans[0]

    def random_left_deep_plan(self) -> int:
        """A random left-deep plan (outer child is always the composite)."""
        table_indices = list(self._model.query.relations)
        self._rng.shuffle(table_indices)
        plan = self._random_scan(table_indices[0])
        for table_index in table_indices[1:]:
            plan = self._random_join(plan, self._random_scan(table_index))
        return plan

    def random_plans(self, count: int) -> List[int]:
        """Generate ``count`` independent random bushy plans."""
        return [self.random_bushy_plan() for _ in range(count)]

    # ------------------------------------------------------------- internals
    def _random_leaves(self) -> List[int]:
        leaves = [
            self._random_scan(table_index)
            for table_index in sorted(self._model.query.relations)
        ]
        self._rng.shuffle(leaves)
        return leaves

    def _random_scan(self, table_index: int) -> int:
        op_code = self._rng.choice(self._model.scan_codes(table_index))
        return self._model.make_scan(table_index, op_code)

    def _random_join(self, outer: int, inner: int) -> int:
        op_code = self._rng.choice(self._model.join_codes_for(inner))
        return self._model.make_join(outer, inner, op_code)
