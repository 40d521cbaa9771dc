"""Pareto frontier containers and pruning.

Two pruning policies appear in the paper:

* Algorithm 2 (``Prune`` for hill climbing) keeps **one** non-dominated plan
  per output data representation — it only needs a single good plan.
* Algorithm 3 (``Prune`` for frontier approximation) keeps a set of plans
  such that no kept plan is *approximately* dominated (factor ``α``) by
  another kept plan — an α-approximate Pareto frontier whose size is bounded
  polynomially (Lemma 6).

:class:`ParetoFrontier` implements the second policy (with ``alpha = 1``
giving an exact frontier) over arbitrary items carrying a cost vector;
:func:`pareto_filter` is a convenience for one-shot filtering of cost-vector
collections.

A frontier is one :class:`~repro.pareto.engine.FrontierEntry` of the
insertion kernel in :mod:`repro.pareto.engine` — the kernel behind the plan
cache and the DP — on a single tag, with the items as its handles.
``insert`` is the kernel's one-row cover check plus append; ``insert_all``
runs its batch sweep, whose kept items, order and acceptance count equal
inserting one by one at every α.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterable, Iterator, List, Sequence, Tuple, TypeVar

import numpy as np

from repro.pareto.engine import (
    FrontierEntry,
    as_cost_matrix,
    entry_append,
    entry_covered,
    insert_batch,
)

ItemT = TypeVar("ItemT")


def _identity(item):  # default cost extractor: items are the cost vectors
    return item


class ParetoFrontier(Generic[ItemT]):
    """A set of items kept mutually non-(α-)dominated by cost vector.

    Parameters
    ----------
    cost_of:
        Function extracting the cost vector from an item (identity for plain
        cost vectors, ``lambda plan: plan.cost`` for plans).
    alpha:
        Approximation factor used when deciding whether a *new* item is
        already covered by an existing one.  Existing items are only evicted
        by new items that dominate them exactly (factor one), mirroring
        Algorithm 3's pruning function.

    Every cost vector must have the width of the first one kept (a
    ``ValueError`` otherwise); :meth:`clear` resets the width.
    """

    def __init__(
        self,
        cost_of: Callable[[ItemT], Sequence[float]] = _identity,  # type: ignore[assignment]
        alpha: float = 1.0,
    ) -> None:
        if alpha < 1.0:
            raise ValueError(f"approximation factor must be at least 1, got {alpha}")
        self._cost_of = cost_of
        self._alpha = alpha
        # Created by the first insertion, which fixes the cost-vector width.
        self._entry: FrontierEntry | None = None

    # ------------------------------------------------------------ accessors
    @property
    def alpha(self) -> float:
        """Approximation factor used for insertion."""
        return self._alpha

    def items(self) -> List[ItemT]:
        """The currently kept items (copy)."""
        return list(self._entry.handles) if self._entry is not None else []

    def costs(self) -> List[Tuple[float, ...]]:
        """Cost vectors of the currently kept items."""
        return [tuple(self._cost_of(item)) for item in self.items()]

    def __len__(self) -> int:
        return len(self._entry.handles) if self._entry is not None else 0

    def __iter__(self) -> Iterator[ItemT]:
        return iter(self.items())

    def __bool__(self) -> bool:
        return len(self) > 0

    # -------------------------------------------------------------- updates
    def _entry_of_width(self, width: int) -> FrontierEntry:
        entry = self._entry
        if entry is None:
            entry = self._entry = FrontierEntry(width)
        elif entry.rows.shape[1] != width:
            raise ValueError(
                f"cost vectors have different lengths: {entry.rows.shape[1]} vs {width}"
            )
        return entry

    def insert(self, item: ItemT) -> bool:
        """Insert ``item`` unless an existing item α-dominates it.

        When the item is inserted, existing items it (exactly) dominates are
        removed.  Returns True if the item was inserted.
        """
        row = np.asarray(self._cost_of(item), dtype=np.float64)
        entry = self._entry_of_width(row.shape[0])
        if entry_covered(entry, 0, row, self._alpha):
            return False
        entry_append(entry, item, 0, row)
        return True

    def insert_all(self, items: Iterable[ItemT]) -> int:
        """Insert several items; returns how many were accepted.

        The kept items, their order, and the returned count are identical
        to inserting one by one.  The cost vectors are checked as one
        matrix first, so ragged ones raise ``ValueError`` before any item
        is kept.
        """
        batch = list(items)
        if not batch:
            return 0
        costs = as_cost_matrix([self._cost_of(item) for item in batch])
        entry = self._entry_of_width(costs.shape[1])
        tags = np.zeros(len(batch), dtype=np.int64)
        accepted, _ = insert_batch(entry, costs, tags, self._alpha, batch.__getitem__)
        return accepted

    def clear(self) -> None:
        """Remove all items (the next insertion may use a new width)."""
        self._entry = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParetoFrontier(size={len(self)}, alpha={self._alpha})"


def pareto_filter(
    costs: Iterable[Sequence[float]], alpha: float = 1.0
) -> List[Tuple[float, ...]]:
    """Return a (α-approximate) Pareto-optimal subset of the given cost vectors.

    With ``alpha = 1`` the result contains one representative for every
    non-dominated cost value (the first occurrence of duplicates is kept),
    in input order; the whole input is filtered by one ``insert_all``
    call.
    """
    frontier: ParetoFrontier[Tuple[float, ...]] = ParetoFrontier(alpha=alpha)
    frontier.insert_all([tuple(cost) for cost in costs])
    return frontier.items()
