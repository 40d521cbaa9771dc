"""Scenario runner: schedule → execute → reduce over the benchmark task graph.

For every grid cell (join-graph shape × query size) the scenario generates
``num_test_cases`` random queries, runs every algorithm of the scenario on
each query under the scenario's budget, snapshots frontiers at the
checkpoints, builds the per-test-case reference frontier, computes the
approximation error of every snapshot against that reference, and finally
reports the median error per (cell, algorithm, checkpoint) — the quantity the
paper plots.

Execution is organized as an explicit task graph (:mod:`repro.bench.tasks`):

* :func:`repro.bench.tasks.schedule_tasks` expands the spec into
  ``(cell, case, algorithm)`` leaf tasks (plus per-case reference tasks);
* :func:`repro.dist.worker.run_coordinated` executes them — the one
  in-process dispatcher: a lease coordinator drained on the calling thread
  (one worker) or by worker threads on a shared process pool (several);
  ``--shard k/n`` runs push a subset of the schedule through the same
  dispatcher and serialize it to JSON;
* :func:`reduce_task_results` folds the leaf results into per-cell medians.

Leaf tasks are pure (all randomness is derived from the scenario seed and
the task coordinates, never from execution order), and the reduce step is a
pure function of the result set, so every execution mode — including a
:func:`merge_shards` of shards executed on different machines — produces
bit-identical :class:`ScenarioResult`\\ s whenever ``step_checkpoints``
drives the run.
"""

from __future__ import annotations

import statistics as stats
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.bench.anytime import CheckpointRecord
from repro.bench.reference import union_reference_frontier
from repro.bench.scenario import ScenarioSpec
from repro.bench.tasks import (
    ROLE_REFERENCE,
    TaskResult,
    build_optimizer,
    build_test_case,
    load_shards,
    reference_alpha,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.dist.cache import TaskCache
from repro.obs import get_tracer, global_metrics
from repro.pareto.epsilon import approximation_error
from repro.query.join_graph import GraphShape

# Re-exported for callers of the pre-task-graph API (tests, notebooks).
__all__ = [
    "CellResult",
    "ScenarioResult",
    "run_scenario",
    "reduce_task_results",
    "merge_shards",
    "build_optimizer",
    "build_test_case",
    "reference_alpha",
]

#: Backward-compatible alias of :func:`repro.bench.tasks.reference_alpha`.
_reference_alpha = reference_alpha
#: Backward-compatible alias of :func:`repro.bench.tasks.build_test_case`.
_build_test_case = build_test_case


@dataclass(frozen=True)
class CellResult:
    """Aggregated results of one grid cell for one algorithm.

    ``median_errors[k]`` is the median (over test cases) approximation error
    at ``checkpoints[k]``; ``median_frontier_sizes[k]`` is the corresponding
    median number of result plans.
    """

    shape: GraphShape
    num_tables: int
    algorithm: str
    checkpoints: Tuple[float, ...]
    median_errors: Tuple[float, ...]
    median_frontier_sizes: Tuple[float, ...]

    @property
    def final_error(self) -> float:
        """Median error at the last checkpoint."""
        return self.median_errors[-1]


@dataclass(frozen=True)
class ScenarioResult:
    """All cell results of a scenario run."""

    spec: ScenarioSpec
    cells: Tuple[CellResult, ...]

    def cell(self, shape: GraphShape, num_tables: int, algorithm: str) -> CellResult:
        """Look up one cell result."""
        for cell in self.cells:
            if (
                cell.shape is shape
                and cell.num_tables == num_tables
                and cell.algorithm == algorithm
            ):
                return cell
        raise KeyError(f"no cell for ({shape}, {num_tables}, {algorithm})")

    def algorithms(self) -> Tuple[str, ...]:
        """Algorithms present in the result, in spec order."""
        return self.spec.algorithms

    def final_errors_by_algorithm(self) -> Dict[str, List[float]]:
        """Final-checkpoint median errors of every cell, grouped by algorithm."""
        grouped: Dict[str, List[float]] = {name: [] for name in self.spec.algorithms}
        for cell in self.cells:
            grouped[cell.algorithm].append(cell.final_error)
        return grouped


def run_scenario(
    spec: ScenarioSpec,
    workers: int | None = None,
    granularity: str | None = None,
    cache: "TaskCache | None" = None,
) -> ScenarioResult:
    """Run a full scenario and return aggregated per-cell medians.

    Parameters
    ----------
    spec:
        The scenario to execute.
    workers:
        Overrides ``spec.workers`` when given.  ``1`` drains the schedule
        on the calling thread; ``N > 1`` executes leases on ``N`` worker
        processes of the shared pool.
    granularity:
        Overrides ``spec.granularity`` when given: ``"cell"`` leases whole
        grid cells, ``"case"`` leases every (cell, case, algorithm) leaf
        individually, ``"auto"`` (the default) picks per scenario from the
        task-count/worker ratio.
    cache:
        Optional :class:`repro.dist.cache.TaskCache`.  Deterministic leaf
        results are served from / written back to it; non-deterministic
        leaves always execute.

    Every run goes through the lease coordinator
    (:func:`repro.dist.worker.run_coordinated`).  Cell order in the result
    is the grid order, and with step-based checkpoints the results are
    bit-identical for every worker count, granularity, and cache state.
    """
    from repro.dist.worker import run_coordinated

    effective_workers = spec.workers if workers is None else workers
    # Phase spans cost one NULL_SPAN call each when tracing is off; with
    # REPRO_TRACE=1 they give the trace its top-level execute → reduce
    # breakdown.
    tracer = get_tracer()
    with tracer.span("scenario.execute", workers=effective_workers):
        coordinator = run_coordinated(
            spec, workers=effective_workers, granularity=granularity, cache=cache
        )
        results = coordinator.results()
    with tracer.span("scenario.reduce", tasks=len(results)):
        cells = reduce_task_results(spec, results)
    global_metrics().add("scenario.runs")
    return ScenarioResult(spec=spec, cells=cells)


def merge_shards(paths: Sequence[str]) -> ScenarioResult:
    """Reduce shard files written by ``--shard k/n`` runs into one result.

    Validates complete schedule coverage (see
    :func:`repro.bench.tasks.load_shards`), then applies the same reduce as
    :func:`run_scenario`, so the merged result is bit-identical to a
    sequential run of the same step-driven spec.
    """
    spec, results = load_shards(paths)
    return ScenarioResult(spec=spec, cells=reduce_task_results(spec, results))


# --------------------------------------------------------------------------
# Reduce
# --------------------------------------------------------------------------
def reduce_task_results(
    spec: ScenarioSpec, results: Sequence[TaskResult]
) -> Tuple[CellResult, ...]:
    """Fold leaf-task results into per-cell medians (pure; order-insensitive).

    The per-case reference frontier is the union of every algorithm's final
    snapshot — assembled in spec algorithm order, exactly like the
    pre-task-graph sequential loop — plus the case's reference-task frontier
    when the scenario names a reference algorithm.
    """
    algorithm_records: Dict[
        Tuple[GraphShape, int, int, str], Tuple[CheckpointRecord, ...]
    ] = {}
    reference_frontiers: Dict[
        Tuple[GraphShape, int, int], List[Tuple[float, ...]]
    ] = {}
    for result in results:
        task = result.task
        if task.role == ROLE_REFERENCE:
            key = (task.shape, task.num_tables, task.case_index)
            reference_frontiers[key] = list(result.records[-1].frontier_costs)
        else:
            algorithm_records[
                (task.shape, task.num_tables, task.case_index, task.algorithm)
            ] = result.records

    if spec.step_checkpoints is not None:
        checkpoint_values = tuple(float(count) for count in spec.step_checkpoints)
    else:
        checkpoint_values = tuple(spec.checkpoints)

    cells: List[CellResult] = []
    for shape in spec.graph_shapes:
        for num_tables in spec.table_counts:
            errors: Dict[str, List[List[float]]] = {
                name: [] for name in spec.algorithms
            }
            sizes: Dict[str, List[List[float]]] = {name: [] for name in spec.algorithms}
            for case_index in range(spec.num_test_cases):
                case_records = {
                    algorithm: algorithm_records[
                        (shape, num_tables, case_index, algorithm)
                    ]
                    for algorithm in spec.algorithms
                }
                frontiers: List[List[Tuple[float, ...]]] = [
                    list(records[-1].frontier_costs)
                    for records in case_records.values()
                ]
                if spec.reference_algorithm is not None:
                    reference = reference_frontiers[(shape, num_tables, case_index)]
                    if reference:
                        frontiers.append(reference)
                reference_frontier = union_reference_frontier(frontiers)
                for algorithm in spec.algorithms:
                    error_series, size_series = _error_series(
                        case_records[algorithm], reference_frontier, spec.error_cap
                    )
                    errors[algorithm].append(error_series)
                    sizes[algorithm].append(size_series)
            for algorithm in spec.algorithms:
                cells.append(
                    CellResult(
                        shape=shape,
                        num_tables=num_tables,
                        algorithm=algorithm,
                        checkpoints=checkpoint_values,
                        median_errors=tuple(_median_over_cases(errors[algorithm])),
                        median_frontier_sizes=tuple(
                            _median_over_cases(sizes[algorithm])
                        ),
                    )
                )
    return tuple(cells)


def _error_series(
    records: Sequence[CheckpointRecord],
    reference: Sequence[Tuple[float, ...]],
    error_cap: float | None,
) -> Tuple[List[float], List[float]]:
    """Approximation error and frontier size at every checkpoint."""
    errors: List[float] = []
    sizes: List[float] = []
    for record in records:
        error = approximation_error(record.frontier_costs, reference)
        if error_cap is not None and error > error_cap:
            error = error_cap
        errors.append(error)
        sizes.append(float(record.frontier_size))
    return errors, sizes


def _median_over_cases(series_per_case: List[List[float]]) -> List[float]:
    """Per-checkpoint median over test cases (cases are rows, checkpoints columns).

    Infinite values (algorithms that produced no plans within the budget)
    participate in the median as-is: ``inf`` sorts last, so a mixed
    finite/infinite column has a well-defined median, an even split averages
    to ``inf``, and an all-infinite column reports ``inf`` — no special
    casing needed (pinned by ``tests/test_runner.py::TestMedianOverCases``).
    """
    if not series_per_case:
        return []
    num_checkpoints = len(series_per_case[0])
    return [
        stats.median([series[index] for series in series_per_case])
        for index in range(num_checkpoints)
    ]
