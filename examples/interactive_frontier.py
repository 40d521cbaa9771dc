#!/usr/bin/env python3
"""Interactive frontier exploration (text rendering).

Multi-objective query optimization can be an interactive process: the
optimizer presents the available cost tradeoffs and the user picks one
(Section 4.1 / the cited incremental-anytime work).  This example runs RMQ in
short bursts, after each burst re-rendering the current two-metric Pareto
frontier as an ASCII scatter plot, illustrating the anytime refinement that
the α schedule produces.

It also keeps an **archive**: the frontier snapshot of every burst is
offered to a :class:`repro.pareto.ParetoFrontier`, which keeps the
non-dominated union of all snapshots.  (Early tradeoffs later bursts
improve on are evicted; vectors reappearing in several snapshots are
offered, and counted, once per burst.)

Run with::

    python examples/interactive_frontier.py

Expected output (checked by ``tests/test_examples.py``): four bursts, each
printing an ``After N iterations ... tradeoffs available:`` header above the
scatter plot, followed by a closing summary line such as::

    candidate archive: 12 non-dominated of 45 offered
"""

from __future__ import annotations

import random

from repro import GraphShape, MultiObjectiveCostModel, QueryGenerator, RMQOptimizer
from repro.core.frontier import AlphaSchedule
from repro.pareto import ParetoFrontier


def render_frontier(costs, width: int = 60, height: int = 16) -> str:
    """Render (x, y) cost points as an ASCII scatter plot (log-free, scaled)."""
    if not costs:
        return "(no plans yet)"
    xs = [c[0] for c in costs]
    ys = [c[1] for c in costs]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in costs:
        column = int((x - x_min) / x_span * (width - 1))
        row = int((y - y_min) / y_span * (height - 1))
        grid[height - 1 - row][column] = "*"
    lines = ["  +" + "-" * width + "+"]
    for row in grid:
        lines.append("  |" + "".join(row) + "|")
    lines.append("  +" + "-" * width + "+")
    lines.append(f"   x = time [{x_min:.0f} .. {x_max:.0f}]   "
                 f"y = buffer [{y_min:.0f} .. {y_max:.0f}]")
    return "\n".join(lines)


def main(seed: int = 17) -> None:
    rng = random.Random(seed)
    query = QueryGenerator(rng=rng).generate(15, GraphShape.CHAIN)
    cost_model = MultiObjectiveCostModel(query, metrics=("time", "buffer"))
    optimizer = RMQOptimizer(cost_model, rng=rng, schedule=AlphaSchedule.compressed())
    # Non-dominated union of all burst snapshots.
    archive: ParetoFrontier = ParetoFrontier()
    offered = 0

    print(f"Interactive optimization of a {query.num_tables}-table chain query.")
    for burst in range(1, 5):
        optimizer.run(max_steps=8)
        frontier = optimizer.frontier()
        costs = sorted(plan.cost for plan in frontier)
        offered += len(costs)
        archive.insert_all(costs)
        print(f"\nAfter {optimizer.iteration} iterations "
              f"(approximation factor α ≈ {optimizer.current_alpha:.2f}), "
              f"{len(frontier)} tradeoffs available:")
        print(render_frontier(costs))
    print(f"\ncandidate archive: {len(archive)} non-dominated of {offered} offered")
    print("In an interactive deployment the user would now pick a point; "
          "optimization stops as soon as a plan is selected.")


if __name__ == "__main__":
    main()
