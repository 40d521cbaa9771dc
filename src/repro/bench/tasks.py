"""The benchmark task graph: schedule → execute → reduce.

A scenario run used to be a monolithic per-cell loop inside
``repro.bench.runner``.  This module decomposes it into an explicit,
serializable task graph:

* **Leaves** are :class:`TaskSpec` coordinates — one task per
  ``(grid cell, test case, algorithm)`` triple, plus one *reference* task
  per ``(cell, case)`` when the scenario names a reference algorithm
  (the precise small-query experiments use ``DP(1.01)``).
* **Executing** a leaf (:func:`execute_task`) is pure: the query, cost
  model, and every random stream are derived from the scenario seed and the
  task coordinates (:func:`repro.utils.rng.derive_rng`), never from
  execution order, machine, or process.  The result is a
  :class:`TaskResult` — the checkpointed frontier snapshots plus per-task
  provenance (steps taken, wall-clock elapsed).
* **Reducing** (``repro.bench.runner.reduce_task_results``) folds the leaf
  results into per-cell medians.  The reduce step is a pure function of the
  result set, so *any* execution order — one worker or many, leases at
  ``cell`` or ``case`` granularity, or shards executed on different
  machines and merged later — produces bit-identical scenario results
  whenever ``step_checkpoints`` drives the run.

Sharding: :func:`shard_tasks` deterministically assigns leaf ``i`` of the
schedule to shard ``i % count``; :func:`write_shard` /
:func:`load_shards` serialize results to JSON so a later ``merge``
invocation (CLI) can reduce them without re-running anything.

Examples
--------
Schedules are pure functions of the spec, and leaves are pure functions of
``(spec, task)`` — running a leaf twice (or on another machine) gives the
same result:

>>> from repro.bench.scenario import ScenarioSpec
>>> from repro.bench.tasks import execute_task, schedule_tasks
>>> from repro.query.join_graph import GraphShape
>>> spec = ScenarioSpec(
...     name="example", description="doctest grid",
...     graph_shapes=(GraphShape.CHAIN,), table_counts=(4,),
...     num_metrics=2, algorithms=("RandomSampling",),
...     num_test_cases=2, step_checkpoints=(2,))
>>> tasks = schedule_tasks(spec)
>>> len(tasks)                         # 1 cell x 2 cases x 1 algorithm
2
>>> tasks[0].task_id
'algorithm:chain:4:0:RandomSampling'
>>> result = execute_task(spec, tasks[0])
>>> result.steps                       # driven for exactly the step budget
2
>>> rerun = execute_task(spec, tasks[0])   # same coordinates, same frontiers
>>> rerun.records[-1].frontier_costs == result.records[-1].frontier_costs
True

(Only the wall-clock seconds in the provenance trace vary between runs —
every frontier snapshot is a pure function of ``(spec, task)``.)
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.baselines import make_optimizer
from repro.baselines.nsga2 import NSGA2Optimizer
from repro.bench.anytime import CheckpointRecord, evaluate_anytime, evaluate_steps
from repro.bench.reference import dp_reference_frontier
from repro.bench.scenario import ScenarioScale, ScenarioSpec
from repro.core.frontier import AlphaSchedule
from repro.core.interface import AnytimeOptimizer
from repro.core.rmq import RMQOptimizer
from repro.cost.model import MultiObjectiveCostModel, sample_metric_names
from repro.query.catalog import catalog_from_json_dict
from repro.query.generator import GeneratorConfig, QueryGenerator
from repro.query.join_graph import GraphShape
from repro.query.query import Query
from repro.utils.rng import derive_rng
from repro.utils.timer import Stopwatch

#: Version tag of the shard file format (v2 added the spec provenance hash;
#: v3 dropped the ``backend`` field from the embedded spec).
SHARD_FORMAT = "repro-shard-v3"

#: Version tag of the provenance-hash key derivation.  Bump whenever task
#: execution semantics change in a result-affecting way — every cached or
#: memoized result keyed under the old tag then misses instead of serving a
#: stale frontier.
PROVENANCE_KEY_FORMAT = "repro-task-key-v1"

#: Task roles: an algorithm evaluation leaf, or a reference-frontier leaf.
ROLE_ALGORITHM = "algorithm"
ROLE_REFERENCE = "reference"

#: Granularity names accepted by the coordinator and the scenario spec.
GRANULARITIES = ("cell", "case", "auto")

#: ``auto`` granularity dispatches whole cells when there are at least this
#: many cell groups per worker (enough groups to keep every worker busy
#: despite uneven cell costs); below that it falls back to per-leaf dispatch.
AUTO_CELL_GROUPS_PER_WORKER = 4


@dataclass(frozen=True)
class TaskSpec:
    """Coordinates of one leaf task of the benchmark task graph.

    A task is fully described by its coordinates; together with the
    :class:`~repro.bench.scenario.ScenarioSpec` they determine the query,
    the cost model, the optimizer, and all of its randomness.  ``TaskSpec``
    is hashable and serializable, so schedules can be partitioned across
    processes or machines and reassembled by coordinate.
    """

    role: str
    shape: GraphShape
    num_tables: int
    case_index: int
    algorithm: str

    def __post_init__(self) -> None:
        if self.role not in (ROLE_ALGORITHM, ROLE_REFERENCE):
            raise ValueError(f"unknown task role {self.role!r}")

    @property
    def task_id(self) -> str:
        """Stable human-readable identifier (used in provenance reports)."""
        return (
            f"{self.role}:{self.shape}:{self.num_tables}"
            f":{self.case_index}:{self.algorithm}"
        )

    def to_json_dict(self) -> dict:
        """Plain-JSON representation (round-trips via :meth:`from_json_dict`)."""
        return {
            "role": self.role,
            "shape": str(self.shape),
            "num_tables": self.num_tables,
            "case_index": self.case_index,
            "algorithm": self.algorithm,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TaskSpec":
        """Rebuild a task from :meth:`to_json_dict` output."""
        return cls(
            role=data["role"],
            shape=GraphShape(data["shape"]),
            num_tables=data["num_tables"],
            case_index=data["case_index"],
            algorithm=data["algorithm"],
        )


@dataclass(frozen=True)
class TaskResult:
    """Result of one executed leaf task.

    For algorithm tasks, ``records`` holds one checkpoint snapshot per
    scenario checkpoint; for reference tasks it holds a single record whose
    ``frontier_costs`` is the reference frontier (possibly empty when the
    DP scheme could not finish within its budgets).  The records double as
    the task's provenance trace: each carries the steps taken and the
    wall-clock seconds elapsed when the snapshot was taken.
    """

    task: TaskSpec
    records: Tuple[CheckpointRecord, ...]

    @property
    def steps(self) -> int:
        """Optimizer steps completed by the end of the task."""
        return self.records[-1].steps if self.records else 0

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds of the task up to the last snapshot."""
        return self.records[-1].elapsed if self.records else 0.0

    def to_json_dict(self) -> dict:
        """Plain-JSON representation (round-trips via :meth:`from_json_dict`)."""
        return {
            "task": self.task.to_json_dict(),
            "records": [
                {
                    "checkpoint": record.checkpoint,
                    "elapsed": record.elapsed,
                    "steps": record.steps,
                    "frontier_costs": [list(cost) for cost in record.frontier_costs],
                }
                for record in self.records
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TaskResult":
        """Rebuild a task result from :meth:`to_json_dict` output."""
        return cls(
            task=TaskSpec.from_json_dict(data["task"]),
            records=tuple(
                CheckpointRecord(
                    checkpoint=record["checkpoint"],
                    elapsed=record["elapsed"],
                    steps=record["steps"],
                    frontier_costs=tuple(
                        tuple(cost) for cost in record["frontier_costs"]
                    ),
                )
                for record in data["records"]
            ),
        )


# ---------------------------------------------------------------------------
# Provenance hashes
# ---------------------------------------------------------------------------
def _canonical_json(payload: dict) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace (stable across runs)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def spec_provenance_hash(spec: ScenarioSpec) -> str:
    """Content hash of a full scenario spec (hex SHA-256).

    Shard files record this hash so that results can never be silently
    merged across different scenarios — even when a file's embedded spec
    was hand-edited after the run.
    """
    payload = {"format": PROVENANCE_KEY_FORMAT, "spec": spec.to_json_dict()}
    return hashlib.sha256(_canonical_json(payload)).hexdigest()


def _execution_fields(spec: ScenarioSpec, role: str) -> dict:
    """The spec fields that influence :func:`execute_task` for one role.

    Deliberately *excludes* everything that cannot change a leaf's result —
    name, description, the grid, the algorithm list, worker/granularity
    knobs — so a DP-reference leaf computed for one figure variant hashes
    identically under every variant that shares its test cases.
    """
    fields = {
        "seed": spec.seed,
        "selectivity_model": str(spec.selectivity_model),
        "cardinality_model": str(spec.cardinality_model),
        "catalog_json": spec.catalog_json,
        "num_metrics": spec.num_metrics,
        "metric_pool": list(spec.metric_pool),
    }
    if role == ROLE_REFERENCE:
        fields["reference_time_budget"] = spec.reference_time_budget
    else:
        fields["step_checkpoints"] = (
            None if spec.step_checkpoints is None else list(spec.step_checkpoints)
        )
        fields["checkpoints"] = list(spec.checkpoints)
        fields["time_budget"] = spec.time_budget
        fields["nsga_population"] = spec.nsga_population
        fields["scale"] = str(spec.scale)
    return fields


def task_provenance_hash(spec: ScenarioSpec, task: TaskSpec) -> str:
    """Content hash of one leaf task's full execution provenance (hex SHA-256).

    Two (spec, task) pairs hash equally exactly when :func:`execute_task`
    is guaranteed to produce the same frontiers for both — the key of the
    task-result cache and of the in-process reference memo.
    """
    payload = {
        "format": PROVENANCE_KEY_FORMAT,
        "task": task.to_json_dict(),
        "spec": _execution_fields(spec, task.role),
    }
    return hashlib.sha256(_canonical_json(payload)).hexdigest()


def task_is_deterministic(spec: ScenarioSpec, task: TaskSpec) -> bool:
    """Is this leaf's result a pure function of ``(spec, task)``?

    "Result" means every frontier snapshot and step count — the quantities
    the reduce consumes; the wall-clock seconds in the provenance trace
    always vary between runs.  Algorithm leaves are deterministic when the
    scenario is step-driven
    (wall-clock budgets make the iteration count load-dependent); reference
    leaves when the DP scheme runs to completion (no wall-clock cutoff).
    Only deterministic leaves may be cached or memoized — everything else
    must be recomputed every run.
    """
    if task.role == ROLE_REFERENCE:
        return spec.reference_time_budget is None
    return spec.step_checkpoints is not None


# ---------------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------------
def schedule_tasks(spec: ScenarioSpec) -> List[TaskSpec]:
    """The full leaf-task schedule of a scenario, in canonical order.

    Order: grid cells in spec order, test cases within a cell, algorithms
    within a case (spec order), then the case's reference task (if any).
    Sharding and the merge coverage check both key off this order, so it
    must never depend on anything but the spec.
    """
    tasks: List[TaskSpec] = []
    for shape in spec.graph_shapes:
        for num_tables in spec.table_counts:
            for case_index in range(spec.num_test_cases):
                for algorithm in spec.algorithms:
                    tasks.append(
                        TaskSpec(
                            role=ROLE_ALGORITHM,
                            shape=shape,
                            num_tables=num_tables,
                            case_index=case_index,
                            algorithm=algorithm,
                        )
                    )
                if spec.reference_algorithm is not None:
                    tasks.append(
                        TaskSpec(
                            role=ROLE_REFERENCE,
                            shape=shape,
                            num_tables=num_tables,
                            case_index=case_index,
                            algorithm=spec.reference_algorithm,
                        )
                    )
    return tasks


def shard_tasks(tasks: Sequence[TaskSpec], index: int, count: int) -> List[TaskSpec]:
    """Deterministic shard ``index`` of ``count``: every ``count``-th task.

    Round-robin assignment spreads the (more expensive) large-query cells
    evenly across shards.
    """
    if count < 1:
        raise ValueError("shard count must be at least 1")
    if not 0 <= index < count:
        raise ValueError(f"shard index must be in [0, {count}), got {index}")
    return [task for position, task in enumerate(tasks) if position % count == index]


def resolve_granularity(
    granularity: str, tasks: Sequence[TaskSpec], workers: int
) -> str:
    """Resolve ``"auto"`` granularity to ``"cell"`` or ``"case"``.

    A pure function of (task list, worker count), so every dispatch — a
    full run, a shard, a service job — resolves identically and determinism
    is preserved.  ``auto`` dispatches whole cells while there are at least
    :data:`AUTO_CELL_GROUPS_PER_WORKER` cell groups per worker (cheap IPC,
    and enough groups that one expensive cell cannot stall the run); with
    fewer groups it switches to per-leaf dispatch so within-cell parallelism
    keeps all workers busy.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(
            f"granularity must be one of {GRANULARITIES}, got {granularity!r}"
        )
    if granularity != "auto":
        return granularity
    if workers <= 1:
        return "cell"
    num_groups = len(_group_by_cell(tasks))
    if num_groups >= AUTO_CELL_GROUPS_PER_WORKER * workers:
        return "cell"
    return "case"


# ---------------------------------------------------------------------------
# Execute
# ---------------------------------------------------------------------------
#: Process-local memo of deterministic reference-leaf results, keyed by
#: provenance hash.  DP(1.01) reference frontiers are by far the most
#: recomputed leaves — every figure variant of the same test cases rebuilds
#: them — and they are tiny, so an unbounded per-process map is safe.
_REFERENCE_MEMO: Dict[str, TaskResult] = {}


def clear_reference_memo() -> int:
    """Drop the process-local reference memo; returns the entry count."""
    size = len(_REFERENCE_MEMO)
    _REFERENCE_MEMO.clear()
    return size


def reference_memo_size() -> int:
    """Number of memoized reference-leaf results in this process."""
    return len(_REFERENCE_MEMO)


def build_test_case(
    spec: ScenarioSpec, shape: GraphShape, num_tables: int, case_index: int
) -> MultiObjectiveCostModel:
    """Generate the random query and cost model of one test case.

    Purely coordinate-derived: every leaf task of the same (cell, case)
    rebuilds an identical cost model in any process.
    """
    query_rng = derive_rng(spec.seed, "query", str(shape), num_tables, case_index)
    catalog = (
        None
        if spec.catalog_json is None
        else catalog_from_json_dict(json.loads(spec.catalog_json))
    )
    generator = QueryGenerator(
        rng=query_rng,
        config=GeneratorConfig(
            selectivity_model=spec.selectivity_model,
            cardinality_model=spec.cardinality_model,
            catalog=catalog,
        ),
    )
    query: Query = generator.generate(
        num_tables, shape, name=f"{shape}_{num_tables}_{case_index}"
    )
    metric_rng = derive_rng(spec.seed, "metrics", str(shape), num_tables, case_index)
    metric_names = sample_metric_names(spec.num_metrics, metric_rng, spec.metric_pool)
    return MultiObjectiveCostModel(query, metrics=metric_names)


def build_optimizer(
    name: str, cost_model: MultiObjectiveCostModel, rng: random.Random, spec: ScenarioSpec
) -> AnytimeOptimizer:
    """Build an optimizer for a scenario, applying scenario-level options.

    Two scenario-level adjustments are applied: the NSGA-II population size
    (200 in the paper, smaller at reduced scales) and, for RMQ at reduced
    scales, the compressed α schedule documented in ARCHITECTURE.md
    ("Figure specs"; the paper's schedule assumes iteration rates a
    pure-Python run cannot reach).
    """
    if name == "NSGA-II":
        return NSGA2Optimizer(cost_model, rng=rng, population_size=spec.nsga_population)
    if name == "RMQ" and spec.scale is not ScenarioScale.PAPER:
        return RMQOptimizer(cost_model, rng=rng, schedule=AlphaSchedule.compressed())
    return make_optimizer(name, cost_model, rng)


def reference_alpha(reference_algorithm: str) -> float:
    """Extract the α value from a reference-algorithm name such as ``DP(1.01)``."""
    if reference_algorithm.startswith("DP(") and reference_algorithm.endswith(")"):
        inner = reference_algorithm[3:-1]
        if inner.lower() == "infinity":
            return float("inf")
        return float(inner)
    raise ValueError(
        f"unsupported reference algorithm {reference_algorithm!r}; expected 'DP(<alpha>)'"
    )


def execute_task(
    spec: ScenarioSpec,
    task: TaskSpec,
    cost_model: MultiObjectiveCostModel | None = None,
) -> TaskResult:
    """Execute one leaf task (pure: depends only on ``spec`` and ``task``).

    ``cost_model`` may be passed when the caller already built the task's
    test case (same (cell, case) coordinates); the construction is pure, so
    sharing the instance across the case's leaves cannot change results.

    Reference leaves run the DP scheme (:func:`dp_reference_frontier`).
    """
    if task.role == ROLE_REFERENCE:
        memo_key: str | None = None
        if task_is_deterministic(spec, task):
            memo_key = task_provenance_hash(spec, task)
            memoized = _REFERENCE_MEMO.get(memo_key)
            if memoized is not None:
                return memoized
        if cost_model is None:
            cost_model = build_test_case(
                spec, task.shape, task.num_tables, task.case_index
            )
        watch = Stopwatch()
        frontier = dp_reference_frontier(
            cost_model,
            alpha=reference_alpha(task.algorithm),
            time_budget=spec.reference_time_budget,
        )
        record = CheckpointRecord(
            checkpoint=0.0,
            elapsed=watch.elapsed,
            steps=0,
            frontier_costs=tuple(tuple(cost) for cost in frontier),
        )
        result = TaskResult(task=task, records=(record,))
        if memo_key is not None:
            _REFERENCE_MEMO[memo_key] = result
        return result
    if cost_model is None:
        cost_model = build_test_case(spec, task.shape, task.num_tables, task.case_index)
    rng = derive_rng(
        spec.seed, "algo", task.algorithm, str(task.shape), task.num_tables, task.case_index
    )
    optimizer = build_optimizer(task.algorithm, cost_model, rng, spec)
    if spec.step_checkpoints is not None:
        records = evaluate_steps(optimizer, spec.step_checkpoints)
    else:
        records = evaluate_anytime(optimizer, spec.checkpoints, spec.time_budget)
    return TaskResult(task=task, records=tuple(records))


def _execute_task_group(spec: ScenarioSpec, tasks: Sequence[TaskSpec]) -> List[TaskResult]:
    """Worker entry point: execute a group of tasks sequentially.

    Consecutive tasks of the same (cell, case) — the schedule groups all of
    a case's algorithm and reference leaves together — reuse one cost-model
    instance instead of re-deriving it per leaf (size-1 cache, so memory
    stays flat on large grids).
    """
    results: List[TaskResult] = []
    cached_key: Tuple[GraphShape, int, int] | None = None
    cached_model: MultiObjectiveCostModel | None = None
    for task in tasks:
        key = (task.shape, task.num_tables, task.case_index)
        if key != cached_key:
            cached_model = build_test_case(spec, *key)
            cached_key = key
        results.append(execute_task(spec, task, cost_model=cached_model))
    return results


def _execute_task_group_metered(
    spec: ScenarioSpec, tasks: Sequence[TaskSpec]
) -> Tuple[List[TaskResult], dict]:
    """Pool entry point: execute a group and return ``(results, metrics)``.

    The metered twin of :func:`_execute_task_group` for **process-pool**
    dispatch: it resets the worker process's global
    :class:`~repro.obs.metrics.Metrics` registry, executes the group, and
    ships the resulting snapshot back alongside the results so the driver
    can fold per-worker counters into its own totals
    (:meth:`~repro.obs.metrics.Metrics.merge_snapshot` is
    order-independent, so the fold is deterministic regardless of which
    lease lands first).  Must only run across a process boundary — the
    reset would clobber the driver's registry in-process.
    """
    from repro.obs import reset_global_metrics

    metrics = reset_global_metrics()
    results = _execute_task_group(spec, tasks)
    return results, metrics.snapshot()


def _group_by_cell(tasks: Sequence[TaskSpec]) -> List[List[TaskSpec]]:
    """Group tasks by grid cell, preserving schedule order."""
    groups: Dict[Tuple[GraphShape, int], List[TaskSpec]] = {}
    for task in tasks:
        groups.setdefault((task.shape, task.num_tables), []).append(task)
    return list(groups.values())


# ---------------------------------------------------------------------------
# Shard serialization
# ---------------------------------------------------------------------------
def run_shard(
    spec: ScenarioSpec,
    index: int,
    count: int,
    workers: int = 1,
    granularity: str = "cell",
) -> List[TaskResult]:
    """Execute shard ``index`` of ``count`` of a scenario's schedule.

    The shard's tasks go through the same in-process dispatcher as a full
    run (:func:`repro.dist.worker.run_coordinated`); results come back in
    shard order.
    """
    from repro.dist.worker import run_coordinated

    tasks = shard_tasks(schedule_tasks(spec), index, count)
    coordinator = run_coordinated(
        spec, workers=workers, granularity=granularity, tasks=tasks
    )
    return coordinator.results()


def write_shard(
    path: str,
    spec: ScenarioSpec,
    index: int,
    count: int,
    results: Sequence[TaskResult],
) -> None:
    """Serialize one shard's task results to a JSON file.

    The payload records the spec's provenance hash next to the serialized
    spec; :func:`load_shards` recomputes and compares it, so a shard whose
    embedded spec was edited after the run can never be merged.
    """
    payload = {
        "format": SHARD_FORMAT,
        "spec": spec.to_json_dict(),
        "spec_hash": spec_provenance_hash(spec),
        "shard": {"index": index, "count": count},
        "results": [result.to_json_dict() for result in results],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")


def load_shards(paths: Sequence[str]) -> Tuple[ScenarioSpec, List[TaskResult]]:
    """Load shard files and reassemble the complete, ordered result list.

    Validates that every file uses the shard format, that each file's
    recorded spec provenance hash matches its embedded spec (a mismatch
    means the file was edited or corrupted after the run), that all shards
    describe the same scenario and shard count, that the shard indices
    cover ``0..count-1`` exactly once, and that the union of results covers
    the scenario's schedule exactly — so a merge can never silently reduce
    a partial or foreign run.
    """
    if not paths:
        raise ValueError("need at least one shard file")
    spec: ScenarioSpec | None = None
    spec_dict: dict | None = None
    spec_hash: str | None = None
    count: int | None = None
    seen_indices: List[int] = []
    results: List[TaskResult] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("format") != SHARD_FORMAT:
            raise ValueError(f"{path}: not a {SHARD_FORMAT} shard file")
        recorded_hash = payload.get("spec_hash")
        if recorded_hash is None:
            raise ValueError(f"{path}: shard file carries no spec provenance hash")
        file_spec = ScenarioSpec.from_json_dict(payload["spec"])
        if recorded_hash != spec_provenance_hash(file_spec):
            raise ValueError(
                f"{path}: spec provenance hash mismatch — the embedded spec "
                "does not match the spec the shard was produced from"
            )
        if spec is None:
            spec_dict = payload["spec"]
            spec = file_spec
            spec_hash = recorded_hash
            count = payload["shard"]["count"]
        else:
            if recorded_hash != spec_hash or payload["spec"] != spec_dict:
                raise ValueError(f"{path}: scenario spec differs from {paths[0]}")
            if payload["shard"]["count"] != count:
                raise ValueError(f"{path}: shard count differs from {paths[0]}")
        index = payload["shard"]["index"]
        if index in seen_indices:
            raise ValueError(f"{path}: duplicate shard index {index}")
        seen_indices.append(index)
        results.extend(
            TaskResult.from_json_dict(result) for result in payload["results"]
        )
    assert spec is not None and count is not None
    missing_indices = sorted(set(range(count)) - set(seen_indices))
    if missing_indices:
        raise ValueError(f"missing shard indices {missing_indices} (of {count})")
    schedule = schedule_tasks(spec)
    by_task = {result.task: result for result in results}
    if len(by_task) != len(results):
        raise ValueError("duplicate task results across shards")
    missing_tasks = [task.task_id for task in schedule if task not in by_task]
    if missing_tasks:
        raise ValueError(
            f"shards do not cover the schedule; missing {missing_tasks[:5]}"
            + ("…" if len(missing_tasks) > 5 else "")
        )
    if len(results) != len(schedule):
        extra = len(results) - len(schedule)
        raise ValueError(f"shards contain {extra} task(s) not in the schedule")
    return spec, [by_task[task] for task in schedule]
