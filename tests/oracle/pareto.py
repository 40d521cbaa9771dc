"""Pure-Python specifications of the Pareto kernel.

Tuple-arithmetic twins of :class:`repro.pareto.frontier.ParetoFrontier`,
:func:`repro.pareto.frontier.pareto_filter` and
:func:`repro.pareto.hypervolume.hypervolume`: small, obviously correct, and
used by

* the property tests (``tests/test_engine.py``, ``tests/test_store.py``),
  which assert that the library's insertion kernel produces identical
  results on random inputs, and
* ``benchmarks/bench_micro_pareto.py``, which measures the speedup of the
  kernel over this baseline.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterable, List, Sequence, Tuple, TypeVar

from repro.pareto.dominance import approx_dominates, dominates

ItemT = TypeVar("ItemT")


class ScalarParetoFrontier(Generic[ItemT]):
    """Reference (pure-Python) implementation of ``ParetoFrontier``.

    Semantics are the paper's Algorithm 3 pruning rule: a new item is
    rejected when an existing item α-dominates it; an accepted item evicts
    every existing item it (exactly) dominates.
    """

    def __init__(
        self,
        cost_of: Callable[[ItemT], Sequence[float]] = lambda item: item,  # type: ignore[assignment,return-value]
        alpha: float = 1.0,
    ) -> None:
        if alpha < 1.0:
            raise ValueError(f"approximation factor must be at least 1, got {alpha}")
        self._cost_of = cost_of
        self._alpha = alpha
        self._items: List[ItemT] = []

    @property
    def alpha(self) -> float:
        """Approximation factor used for insertion."""
        return self._alpha

    def items(self) -> List[ItemT]:
        """The currently kept items (copy)."""
        return list(self._items)

    def costs(self) -> List[Tuple[float, ...]]:
        """Cost vectors of the currently kept items."""
        return [tuple(self._cost_of(item)) for item in self._items]

    def __len__(self) -> int:
        return len(self._items)

    def insert(self, item: ItemT) -> bool:
        """Insert ``item`` unless an existing item α-dominates it."""
        cost = tuple(self._cost_of(item))
        for existing in self._items:
            if approx_dominates(tuple(self._cost_of(existing)), cost, self._alpha):
                return False
        self._items = [
            existing
            for existing in self._items
            if not dominates(cost, tuple(self._cost_of(existing)))
        ]
        self._items.append(item)
        return True

    def insert_all(self, items: Iterable[ItemT]) -> int:
        """Insert several items one by one; returns how many were accepted."""
        return sum(1 for item in items if self.insert(item))


def scalar_pareto_filter(
    costs: Iterable[Sequence[float]], alpha: float = 1.0
) -> List[Tuple[float, ...]]:
    """Reference implementation of ``pareto_filter`` (sequential insertion)."""
    frontier: ScalarParetoFrontier[Tuple[float, ...]] = ScalarParetoFrontier(alpha=alpha)
    for cost in costs:
        frontier.insert(tuple(cost))
    return frontier.items()


def hypervolume_scalar(
    costs: Iterable[Sequence[float]], reference_point: Sequence[float]
) -> float:
    """Reference hypervolume (floating-point accumulation).

    The executable specification the live
    :func:`~repro.pareto.hypervolume.hypervolume` is property-tested
    against.  Unlike the live function, this variant is subject to
    floating-point accumulation error and is *not* exactly monotone under
    union.
    """
    reference = tuple(float(v) for v in reference_point)
    cleaned: List[Tuple[float, ...]] = []
    for cost in costs:
        point = tuple(float(v) for v in cost)
        if len(point) != len(reference):
            raise ValueError(
                f"cost vector of length {len(point)} does not match reference of "
                f"length {len(reference)}"
            )
        if all(value < bound for value, bound in zip(point, reference)):
            cleaned.append(point)
    if not cleaned:
        return 0.0
    front = scalar_pareto_filter(cleaned)
    return _hypervolume_recursive(front, reference)


def _hypervolume_recursive(
    points: List[Tuple[float, ...]], reference: Tuple[float, ...]
) -> float:
    """Exact hypervolume by slicing along the last dimension."""
    dimension = len(reference)
    if dimension == 1:
        return max(0.0, reference[0] - min(point[0] for point in points))
    # Sort by the last coordinate and sweep slices from best to worst.
    ordered = sorted(points, key=lambda point: point[-1])
    total = 0.0
    previous_bound = reference[-1]
    for index in range(len(ordered) - 1, -1, -1):
        slab_top = previous_bound
        slab_bottom = ordered[index][-1]
        height = slab_top - slab_bottom
        if height > 0:
            slab_points = [point[:-1] for point in ordered[: index + 1]]
            slab_front = scalar_pareto_filter(slab_points)
            area = _hypervolume_recursive(slab_front, reference[:-1])
            total += area * height
            previous_bound = slab_bottom
    return total
