"""Hypervolume indicator (extension).

The paper compares algorithms only with the multiplicative approximation
error, but the hypervolume indicator is the other standard multi-objective
quality measure and is useful as an independent sanity check in the benchmark
harness (a better frontier should both lower the α error and raise the
dominated hypervolume).

For minimization problems the hypervolume of a point set is the volume of the
region dominated by the set and bounded above by a reference point.  The live
implementation cleans the input, Pareto-filters it with
:func:`~repro.pareto.frontier.pareto_filter` (the library's one insertion
kernel) and then runs the slicing sweep of :mod:`repro.pareto.engine` with
*exact* rational accumulation, which makes the indicator numerically
monotone under union: adding a point can never decrease the reported volume
(the exact value is monotone, and the final rounding to ``float`` is a
monotone map).  The original floating-point recursion is the test oracle's
``hypervolume_scalar``, which this is property-tested against (equal up to
floating-point accumulation error).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.pareto import engine
from repro.pareto.frontier import pareto_filter


def hypervolume(
    costs: Iterable[Sequence[float]], reference_point: Sequence[float]
) -> float:
    """Hypervolume dominated by ``costs`` with respect to ``reference_point``.

    Points that do not strictly dominate the reference point in every metric
    contribute nothing.  Returns zero for an empty set.  The result is
    numerically monotone under union (see the module docstring).
    """
    reference = tuple(float(v) for v in reference_point)
    rows: List[Tuple[float, ...]] = []
    for cost in costs:
        point = tuple(float(v) for v in cost)
        if len(point) != len(reference):
            raise ValueError(
                f"cost vector of length {len(point)} does not match reference of "
                f"length {len(reference)}"
            )
        rows.append(point)
    if not rows:
        return 0.0
    matrix = engine.as_cost_matrix(rows, num_metrics=len(reference))
    inside = np.all(matrix < np.asarray(reference, dtype=np.float64), axis=1)
    cleaned = matrix[inside]
    if cleaned.shape[0] == 0:
        return 0.0
    front = pareto_filter(cleaned.tolist())
    return engine.hypervolume_exact(front, reference)
