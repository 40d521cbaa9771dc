"""Benchmark harness reproducing the paper's evaluation (Section 6).

The harness is organised as follows:

``scenario``
    :class:`ScenarioSpec` describes one experiment grid (join-graph shapes ×
    query sizes × algorithms, selectivity model, number of metrics, budgets).
``anytime``
    Drives one optimizer on one test case and snapshots its frontier at
    checkpoints, producing the error-versus-time series of the figures.
``reference``
    Builds the reference Pareto frontier each algorithm is judged against
    (union of all algorithms' results, or a DP(1.01) frontier for the precise
    small-query experiments).
``tasks``
    The task graph: serializable ``(cell, case, algorithm)`` leaf tasks
    (``TaskSpec``/``TaskResult``), schedule/execute helpers, and shard
    serialization for multi-machine runs.
``runner``
    Runs a full scenario (schedule → execute → reduce) and aggregates
    per-cell medians; ``merge_shards`` reduces shard files the same way.
``reporting``
    Formats scenario results as text tables mirroring the paper's figures,
    plus per-task provenance traces.
``figures``
    One spec constructor per paper figure plus the ablation experiments
    listed in ARCHITECTURE.md ("Figure specs"); every figure also has a
    wall-clock-free step-driven variant (``STEP_FIGURE_SPECS``).
``statistics``
    Climb-path-length and Pareto-set-size statistics (Figure 3).
"""

from repro.bench.scenario import ScenarioScale, ScenarioSpec
from repro.bench.anytime import CheckpointRecord, evaluate_anytime, evaluate_steps
from repro.bench.reference import (
    dp_reference_frontier,
    union_reference_frontier,
)
from repro.bench.tasks import (
    TaskResult,
    TaskSpec,
    execute_task,
    load_shards,
    run_shard,
    schedule_tasks,
    shard_tasks,
    write_shard,
)
from repro.bench.runner import (
    CellResult,
    ScenarioResult,
    merge_shards,
    reduce_task_results,
    run_scenario,
)
from repro.bench.reporting import (
    format_scenario_report,
    format_task_provenance,
    summarize_winners,
)
from repro.bench.statistics import Figure3Result, run_figure3_statistics
from repro.bench import figures

__all__ = [
    "ScenarioSpec",
    "ScenarioScale",
    "CheckpointRecord",
    "evaluate_anytime",
    "evaluate_steps",
    "union_reference_frontier",
    "dp_reference_frontier",
    "TaskSpec",
    "TaskResult",
    "schedule_tasks",
    "shard_tasks",
    "execute_task",
    "run_shard",
    "write_shard",
    "load_shards",
    "CellResult",
    "ScenarioResult",
    "run_scenario",
    "reduce_task_results",
    "merge_shards",
    "format_scenario_report",
    "format_task_provenance",
    "summarize_winners",
    "Figure3Result",
    "run_figure3_statistics",
    "figures",
]
