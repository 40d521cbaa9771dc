"""Frontier approximation (Algorithm 3, ``ApproximateFrontiers``).

Given a locally Pareto-optimal plan, the approximator walks the plan tree
bottom up, one height at a time, and, for every intermediate result the plan
uses, combines all cached partial plans for the children with every
applicable operator, inserting the results into the plan cache under the
current approximation factor α.  Cached plans may come from earlier
iterations and may use different join orders — the cache is the mechanism
that shares partial plans across iterations.

The approximation factor follows the paper's schedule
``α(i) = 25 · 0.99^⌊i/25⌋`` (never below one): coarse early on to explore
many join orders quickly, finer later to exploit the discovered join orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.plan_cache import ArenaPlanCache

if TYPE_CHECKING:  # pragma: no cover - import for type checking only
    from repro.cost.batch import BatchCostModel


@dataclass(frozen=True)
class AlphaSchedule:
    """Approximation-precision schedule ``α(i)``.

    The paper's schedule starts at 25 and decays by 1% every 25 iterations.
    Alternative schedules (used by the ablation benchmarks) can be expressed
    with the same three parameters or by the convenience constructors.
    """

    initial: float = 25.0
    decay: float = 0.99
    period: int = 25
    floor: float = 1.0

    def __post_init__(self) -> None:
        if self.initial < 1.0:
            raise ValueError(f"initial alpha must be at least 1, got {self.initial}")
        if not 0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if self.period < 1:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.floor < 1.0:
            raise ValueError(f"alpha floor must be at least 1, got {self.floor}")

    def alpha(self, iteration: int) -> float:
        """Approximation factor for the given (1-based) iteration number."""
        if iteration < 1:
            raise ValueError(f"iteration numbers start at 1, got {iteration}")
        value = self.initial * self.decay ** (iteration // self.period)
        return max(self.floor, value)

    @classmethod
    def paper(cls) -> "AlphaSchedule":
        """The schedule used in the paper: ``25 · 0.99^⌊i/25⌋``."""
        return cls()

    @classmethod
    def constant(cls, alpha: float) -> "AlphaSchedule":
        """A fixed approximation factor (used by ablation experiments)."""
        return cls(initial=alpha, decay=1.0, period=1, floor=alpha)

    @classmethod
    def compressed(cls, factor: float = 100.0) -> "AlphaSchedule":
        """The paper's schedule compressed by ``factor`` in the iteration axis.

        The paper tuned its schedule (1% decay every 25 iterations) for a JIT
        compiled implementation performing thousands of iterations per second.
        A pure-Python reproduction performs roughly ``factor`` times fewer
        iterations in the same wall-clock budget; compressing the schedule by
        the same factor keeps the precision-refinement trajectory aligned with
        wall-clock time instead of the iteration count.  ``compressed(1)`` is
        equivalent to :meth:`paper` up to the flooring of the period.
        """
        if factor < 1:
            raise ValueError(f"compression factor must be at least 1, got {factor}")
        # Paper: multiply alpha by 0.99 every 25 iterations.  Compressed:
        # multiply by 0.99 every 25 / factor iterations, i.e. by
        # 0.99 ** (factor / 25) every iteration.
        return cls(initial=25.0, decay=0.99 ** (factor / 25.0), period=1)


class ArenaFrontierApproximator:
    """Approximates Pareto frontiers for the intermediate results of a plan.

    Walks the locally optimal plan bottom up, one plan-tree height at a
    time: the scans first, per operator, then every height's join nodes.
    One :meth:`~repro.cost.batch.BatchCostModel.join_candidates` call costs
    the ``|outer frontier| × |inner frontier| × |join operators|`` cross
    products of all nodes of a height; each node's rows then go through the
    cache's batched insertion kernel, in the order of the scalar triple
    loop, node by node in post-order.  Nodes of one height are never
    ancestor and descendant, so they join disjoint table sets and read only
    frontiers finished at lower heights: batching a height changes no
    accept or evict decision of the post-order walk.

    Parameters
    ----------
    model:
        Batch cost model whose arena holds the plans.
    schedule:
        α schedule; defaults to the paper's schedule.
    """

    def __init__(
        self,
        model: "BatchCostModel",
        schedule: AlphaSchedule | None = None,
    ) -> None:
        self._model = model
        self._arena = model.arena
        self._schedule = schedule if schedule is not None else AlphaSchedule.paper()
        self._plans_built = 0

    @property
    def schedule(self) -> AlphaSchedule:
        """The α schedule in use."""
        return self._schedule

    @property
    def plans_built(self) -> int:
        """Number of candidate plans costed so far."""
        return self._plans_built

    # ------------------------------------------------------------ algorithm
    def approximate(
        self, handle: int, cache: ArenaPlanCache, iteration: int
    ) -> ArenaPlanCache:
        """Run ``ApproximateFrontiers`` for one locally optimal plan handle."""
        alpha = self._schedule.alpha(iteration)
        model = self._model
        arena = self._arena
        scans, *heights = arena.nodes_by_height(handle)
        for scan in scans:
            table_index = arena.table_index(scan)
            for op_code in model.scan_codes(table_index):
                self._plans_built += 1
                cache.insert(model.make_scan(table_index, op_code), alpha)
        for nodes in heights:
            pairs = [
                (
                    cache.handles(arena.rel(arena.outer(node))),
                    cache.handles(arena.rel(arena.inner(node))),
                )
                for node in nodes
            ]
            batch = model.join_candidates(pairs)
            self._plans_built += batch.size
            for index, (node, (outer_handles, inner_handles)) in enumerate(
                zip(nodes, pairs)
            ):
                cache.insert_candidates(
                    arena.rel(node), batch.pair(index), outer_handles,
                    inner_handles, alpha,
                )
        return cache


#: Type of α-schedule callables accepted where a full schedule object is not
#: needed (e.g. quick experiments): maps the iteration number to α.
AlphaFunction = Callable[[int], float]
