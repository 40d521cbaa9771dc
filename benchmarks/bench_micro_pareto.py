"""Micro-benchmark M2: scalar vs. vectorized Pareto frontier insertion,
and task-graph runner throughput.

Measures the throughput of inserting random cost vectors into a Pareto
frontier three ways:

* ``scalar``      — the pure-Python reference container
  (``ScalarParetoFrontier`` of the test oracle, ``tests/oracle/pareto.py``),
  i.e. the seed implementation,
* ``vectorized``  — per-item inserts through the kernel-backed
  :class:`repro.pareto.frontier.ParetoFrontier`,
* ``batch``       — one ``insert_all`` call (the kernel's batch sweep, with
  exact sequential semantics).

Results are printed and written to ``BENCH_pareto.json`` in the repository
root.  The acceptance bar for the engine is ``batch`` ≥ 3× ``scalar`` on
1000 random 3-metric vectors.

The runner section measures benchmark *task* throughput (leaf tasks per
second of a small step-driven scenario) through the task-graph pipeline —
one worker on the calling thread and two worker processes at ``case``
granularity — verifies the two agree bit-for-bit, and writes
``BENCH_runner.json``.

The *coordinator* section measures the same scenario through the lease
coordinator (1 worker, 2 workers) plus a cold-vs-warm ``TaskCache`` run,
verifies every mode agrees bit-for-bit with executing each leaf in
schedule order, and writes ``BENCH_coordinator.json``.

The *DP* section measures end-to-end DP(α) throughput on an 8-table chain
with 3 metrics and α = 2 — the full 3^8 subset-split lattice — on the
sequential backend and on the coordinator backend over the shared-memory
task fabric with 1, 2, and 4 workers, asserts all modes are bit-identical,
and writes ``BENCH_dp.json`` (including per-worker-count
``parallel_efficiency``).  The headline target is 4-worker coordinator ≥
1.5× sequential.

Run as a script (``python benchmarks/bench_micro_pareto.py``) or via pytest
(``pytest benchmarks/bench_micro_pareto.py``).
"""

from __future__ import annotations

import json
import os
import random
import sys
import timeit
from typing import Dict, List, Tuple

from repro.pareto.frontier import ParetoFrontier

#: Repository root (this file lives in benchmarks/).
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The scalar reference lives with the test oracle.
sys.path.insert(0, os.path.join(_REPO_ROOT, "tests"))
from oracle.pareto import ScalarParetoFrontier  # noqa: E402

RESULT_PATH = os.path.join(_REPO_ROOT, "BENCH_pareto.json")
RUNNER_RESULT_PATH = os.path.join(_REPO_ROOT, "BENCH_runner.json")
COORDINATOR_RESULT_PATH = os.path.join(_REPO_ROOT, "BENCH_coordinator.json")
DP_RESULT_PATH = os.path.join(_REPO_ROOT, "BENCH_dp.json")

NUM_VECTORS = 1000
NUM_METRICS = 3
REPEATS = 9
SEED = 20160626


def _random_vectors(
    count: int = NUM_VECTORS, metrics: int = NUM_METRICS, seed: int = SEED
) -> List[Tuple[float, ...]]:
    rng = random.Random(seed)
    return [
        tuple(rng.random() * 100.0 for _ in range(metrics)) for _ in range(count)
    ]


def _scalar_insert(vectors) -> list:
    frontier: ScalarParetoFrontier = ScalarParetoFrontier()
    for vector in vectors:
        frontier.insert(vector)
    return frontier.items()


def _vectorized_insert(vectors) -> list:
    frontier: ParetoFrontier = ParetoFrontier()
    for vector in vectors:
        frontier.insert(vector)
    return frontier.items()


def _batch_insert(vectors) -> list:
    frontier: ParetoFrontier = ParetoFrontier()
    frontier.insert_all(vectors)
    return frontier.items()


def run_benchmark(write_json: bool = True) -> Dict[str, object]:
    """Measure the three insertion paths and return (and persist) the results."""
    vectors = _random_vectors()
    results = {
        "scalar": _scalar_insert(vectors),
        "vectorized": _vectorized_insert(vectors),
        "batch": _batch_insert(vectors),
    }
    assert results["scalar"] == results["vectorized"] == results["batch"], (
        "insertion paths disagree on the final frontier"
    )

    timings = {
        name: min(timeit.repeat(runner, number=1, repeat=REPEATS))
        for name, runner in (
            ("scalar", lambda: _scalar_insert(vectors)),
            ("vectorized", lambda: _vectorized_insert(vectors)),
            ("batch", lambda: _batch_insert(vectors)),
        )
    }
    report: Dict[str, object] = {
        "num_vectors": NUM_VECTORS,
        "num_metrics": NUM_METRICS,
        "seed": SEED,
        "frontier_size": len(results["scalar"]),
        "seconds": timings,
        "inserts_per_second": {
            name: NUM_VECTORS / seconds for name, seconds in timings.items()
        },
        "speedup_vs_scalar": {
            "vectorized": timings["scalar"] / timings["vectorized"],
            "batch": timings["scalar"] / timings["batch"],
        },
    }
    if write_json:
        with open(RESULT_PATH, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report


def _format_report(report: Dict[str, object]) -> str:
    seconds = report["seconds"]
    speedups = report["speedup_vs_scalar"]
    lines = [
        f"Frontier insert micro-benchmark "
        f"({report['num_vectors']} random {report['num_metrics']}-metric vectors, "
        f"final frontier size {report['frontier_size']}):",
        f"  scalar     {seconds['scalar'] * 1e3:8.2f} ms",
        f"  vectorized {seconds['vectorized'] * 1e3:8.2f} ms "
        f"({speedups['vectorized']:.2f}x)",
        f"  batch      {seconds['batch'] * 1e3:8.2f} ms "
        f"({speedups['batch']:.2f}x)",
    ]
    return "\n".join(lines)


def test_batch_insert_beats_scalar():
    """The vectorized batch path must clearly beat the scalar reference.

    The headline number (≥ 3× on this machine class) is recorded in
    ``BENCH_pareto.json``; the assertion uses a lower bar so the check stays
    robust on loaded CI runners.
    """
    report = run_benchmark()
    print()
    print(_format_report(report))
    assert report["speedup_vs_scalar"]["batch"] > 1.5


# ---------------------------------------------------------------------------
# Runner throughput (task-graph pipeline)
# ---------------------------------------------------------------------------
def _runner_spec():
    from repro.bench.scenario import ScenarioScale, ScenarioSpec
    from repro.query.join_graph import GraphShape

    return ScenarioSpec(
        name="bench-runner",
        description="task throughput micro-scenario",
        graph_shapes=(GraphShape.CHAIN, GraphShape.STAR),
        table_counts=(6,),
        num_metrics=2,
        algorithms=("RandomSampling", "RMQ"),
        num_test_cases=3,
        step_checkpoints=(4, 8),
        seed=SEED,
        scale=ScenarioScale.SMOKE,
    )


def run_runner_benchmark(write_json: bool = True) -> Dict[str, object]:
    """Measure leaf-task throughput through the task-graph pipeline.

    Single-worker throughput is the headline (min over repeats); the
    two-process number is recorded for reference — at this micro scale it
    is dominated by pool round trips, the pool only pays off on real grids.
    Both must produce bit-identical scenario results.
    """
    from repro.bench.runner import run_scenario
    from repro.bench.tasks import schedule_tasks

    spec = _runner_spec()
    num_tasks = len(schedule_tasks(spec))
    sequential = run_scenario(spec, workers=1)
    parallel = run_scenario(spec, workers=2, granularity="case")
    parallel_matches_sequential = parallel.cells == sequential.cells

    sequential_seconds = min(
        timeit.repeat(lambda: run_scenario(spec, workers=1), number=1, repeat=3)
    )
    parallel_seconds = min(
        timeit.repeat(
            lambda: run_scenario(spec, workers=2, granularity="case"),
            number=1,
            repeat=1,
        )
    )
    report: Dict[str, object] = {
        "num_tasks": num_tasks,
        "step_checkpoints": list(spec.step_checkpoints),
        "seed": SEED,
        "seconds": {
            "sequential": sequential_seconds,
            "case_parallel_2_workers": parallel_seconds,
        },
        "tasks_per_second": {
            "sequential": num_tasks / sequential_seconds,
            "case_parallel_2_workers": num_tasks / parallel_seconds,
        },
        "parallel_matches_sequential": parallel_matches_sequential,
    }
    if write_json:
        with open(RUNNER_RESULT_PATH, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report


def _format_runner_report(report: Dict[str, object]) -> str:
    seconds = report["seconds"]
    rates = report["tasks_per_second"]
    return "\n".join(
        [
            f"Runner throughput micro-benchmark ({report['num_tasks']} leaf tasks, "
            f"step checkpoints {report['step_checkpoints']}):",
            f"  sequential       {seconds['sequential'] * 1e3:8.2f} ms "
            f"({rates['sequential']:.1f} tasks/s)",
            f"  2-worker (case)  {seconds['case_parallel_2_workers'] * 1e3:8.2f} ms "
            f"({rates['case_parallel_2_workers']:.1f} tasks/s)",
        ]
    )


def test_runner_throughput_recorded():
    """Task throughput is measured, parallel == sequential bit-for-bit."""
    report = run_runner_benchmark()
    print()
    print(_format_runner_report(report))
    assert report["parallel_matches_sequential"] is True
    assert report["tasks_per_second"]["sequential"] > 0


# ---------------------------------------------------------------------------
# Coordinator throughput (lease coordinator at 1/2 workers + task cache)
# ---------------------------------------------------------------------------
def run_coordinator_benchmark(write_json: bool = True) -> Dict[str, object]:
    """Measure task throughput through the lease coordinator.

    Runs the runner micro-scenario with 1 worker (the sequential path) and
    2 workers, then cold-vs-warm through a ``TaskCache``.  Every mode must
    match the dispatcher-free reference (each leaf executed in schedule
    order, then reduced) bit-for-bit; the warm-cache run additionally
    leases zero tasks (every leaf is a cache hit).
    """
    import tempfile
    import timeit as _timeit

    from repro.bench.runner import reduce_task_results, run_scenario
    from repro.bench.tasks import (
        _execute_task_group,
        clear_reference_memo,
        schedule_tasks,
    )
    from repro.dist import TaskCache

    spec = _runner_spec()
    tasks = schedule_tasks(spec)
    num_tasks = len(tasks)
    clear_reference_memo()
    expected = reduce_task_results(spec, _execute_task_group(spec, tasks))
    seconds: Dict[str, float] = {}
    matches: Dict[str, bool] = {}
    for name, workers, repeats in (
        ("sequential", 1, 3),
        ("coordinator_2_workers", 2, 1),
    ):
        matches[name] = run_scenario(spec, workers=workers).cells == expected
        seconds[name] = min(
            _timeit.repeat(
                lambda: run_scenario(spec, workers=workers), number=1, repeat=repeats
            )
        )
    with tempfile.TemporaryDirectory() as tmp:
        cold_cache = TaskCache(os.path.join(tmp, "cache"))
        started = _timeit.default_timer()
        cold = run_scenario(spec, workers=1, cache=cold_cache)
        seconds["coordinator_cold_cache"] = _timeit.default_timer() - started
        matches["coordinator_cold_cache"] = cold.cells == expected
        warm_cache = TaskCache(os.path.join(tmp, "cache"))
        started = _timeit.default_timer()
        warm = run_scenario(spec, workers=1, cache=warm_cache)
        seconds["coordinator_warm_cache"] = _timeit.default_timer() - started
        matches["coordinator_warm_cache"] = warm.cells == expected
        warm_hits = warm_cache.stats["hits"]
    report: Dict[str, object] = {
        "num_tasks": num_tasks,
        "step_checkpoints": list(spec.step_checkpoints),
        "seed": SEED,
        "seconds": seconds,
        "tasks_per_second": {
            name: num_tasks / elapsed for name, elapsed in seconds.items()
        },
        # 2-worker throughput over the 1-worker run, normalized by worker
        # count (> 1/2 means the second worker pays for itself).
        "parallel_efficiency": {
            "2_workers":
                seconds["sequential"] / seconds["coordinator_2_workers"] / 2,
        },
        "warm_cache_hits": warm_hits,
        "matches_sequential": matches,
    }
    if write_json:
        with open(COORDINATOR_RESULT_PATH, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report


def _format_coordinator_report(report: Dict[str, object]) -> str:
    seconds = report["seconds"]
    rates = report["tasks_per_second"]
    lines = [
        f"Coordinator throughput micro-benchmark ({report['num_tasks']} leaf "
        f"tasks, step checkpoints {report['step_checkpoints']}):"
    ]
    for name in (
        "sequential",
        "coordinator_2_workers",
        "coordinator_cold_cache",
        "coordinator_warm_cache",
    ):
        lines.append(
            f"  {name:<24} {seconds[name] * 1e3:8.2f} ms "
            f"({rates[name]:.1f} tasks/s)"
        )
    efficiency = report["parallel_efficiency"]
    lines.append(
        f"  parallel efficiency: 2 workers {efficiency['2_workers']:.2f}"
    )
    lines.append(
        f"  warm cache hits: {report['warm_cache_hits']}/{report['num_tasks']}"
    )
    return "\n".join(lines)


def test_coordinator_throughput_recorded():
    """Coordinator modes match sequential bit-for-bit; warm cache hits all."""
    report = run_coordinator_benchmark()
    print()
    print(_format_coordinator_report(report))
    assert all(report["matches_sequential"].values()), report["matches_sequential"]
    assert report["warm_cache_hits"] == report["num_tasks"]
    assert report["tasks_per_second"]["sequential"] > 0


# ---------------------------------------------------------------------------
# DP(α) end-to-end throughput (sequential vs. coordinator backend)
# ---------------------------------------------------------------------------
#: The DP micro workload: one random 8-table chain query, 3 metrics, α = 2
#: (a figure-grid configuration).  The full lattice is 3^8 split tasks and
#: ~1.1M candidate plans — large enough that per-candidate overheads, not
#: constant setup, dominate every mode.
DP_NUM_TABLES = 8
DP_NUM_METRICS = 3
DP_ALPHA = 2.0
#: Shared-memory fabric acceptance bar: 4-worker coordinator throughput
#: relative to the sequential backend on the same workload.
DP_COORDINATOR_TARGET_SPEEDUP = 1.5


def _dp_workload():
    from repro.cost.model import MultiObjectiveCostModel
    from repro.query.generator import QueryGenerator
    from repro.query.join_graph import GraphShape

    query = QueryGenerator(rng=random.Random(SEED)).generate(
        DP_NUM_TABLES, GraphShape.CHAIN
    )
    return MultiObjectiveCostModel(query, metrics=("time", "buffer", "disk"))


def _run_dp(model, repeats: int = 1, **kwargs):
    from repro.baselines.dp import ArenaDPOptimizer

    best = float("inf")
    for _ in range(repeats):
        optimizer = ArenaDPOptimizer(
            model, alpha=DP_ALPHA, tasks_per_step=1000, **kwargs
        )
        started = timeit.default_timer()
        while not optimizer.finished:
            optimizer.step()
        best = min(best, timeit.default_timer() - started)
        frontier = sorted(plan.cost for plan in optimizer.frontier())
        built = optimizer.statistics.plans_built
    return best, frontier, built


def run_dp_benchmark(write_json: bool = True) -> Dict[str, object]:
    """Measure end-to-end DP(α) throughput per backend.

    Runs the identical workload on the sequential backend and on the
    coordinator backend with 1, 2 and 4 workers; all frontiers and work
    counters must be bit-identical, which is asserted before the timing
    numbers are recorded.  Each mode takes the best of two runs so
    scheduler noise cannot invert the recorded ratios.
    """
    model = _dp_workload()
    seconds: Dict[str, float] = {}
    frontiers: Dict[str, list] = {}
    plans_built: Dict[str, int] = {}
    coordinator_workers = (1, 2, 4)
    modes = [("arena", {})] + [
        (f"arena_coordinator_{count}_workers",
         dict(backend="coordinator", workers=count))
        for count in coordinator_workers
    ]
    for name, kwargs in modes:
        seconds[name], frontiers[name], plans_built[name] = _run_dp(
            model, repeats=2, **kwargs
        )
    for name, _ in modes[1:]:
        assert frontiers[name] == frontiers["arena"], (
            f"DP mode {name!r} disagrees with the sequential backend on the frontier"
        )
        assert plans_built[name] == plans_built["arena"], (
            f"DP mode {name!r} disagrees on the work counter"
        )
    rates = {
        name: plans_built["arena"] / elapsed for name, elapsed in seconds.items()
    }
    report: Dict[str, object] = {
        "num_tables": DP_NUM_TABLES,
        "num_metrics": DP_NUM_METRICS,
        "alpha": DP_ALPHA,
        "seed": SEED,
        "frontier_size": len(frontiers["arena"]),
        "plans_built": plans_built["arena"],
        "seconds": seconds,
        "plans_per_second": rates,
        # Coordinator throughput relative to the sequential backend
        # (the fabric's acceptance bar is the 4-worker ratio), plus the
        # classic per-worker efficiency of the same ratio.  On a single
        # hardware thread the ratio above 1.0 is pipeline efficiency, not
        # parallelism — see ARCHITECTURE.md.
        "speedup_coordinator_vs_arena": {
            f"{count}_workers":
                rates[f"arena_coordinator_{count}_workers"] / rates["arena"]
            for count in coordinator_workers
        },
        "parallel_efficiency": {
            f"{count}_workers":
                rates[f"arena_coordinator_{count}_workers"]
                / rates["arena"] / count
            for count in coordinator_workers
        },
        "coordinator_target_speedup": DP_COORDINATOR_TARGET_SPEEDUP,
    }
    if write_json:
        with open(DP_RESULT_PATH, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report


def _format_dp_report(report: Dict[str, object]) -> str:
    rates = report["plans_per_second"]
    lines = [
        f"DP end-to-end throughput micro-benchmark "
        f"({report['num_tables']}-table chain, {report['num_metrics']} "
        f"metrics, alpha={report['alpha']}, "
        f"{report['plans_built']} candidate plans):",
        f"  sequential             {rates['arena']:12.0f} plans/s",
    ]
    for key, speedup in report["speedup_coordinator_vs_arena"].items():
        count = key.split("_")[0]
        efficiency = report["parallel_efficiency"][key]
        lines.append(
            f"  arena + {count}-worker coord "
            f"{rates[f'arena_coordinator_{count}_workers']:12.0f} plans/s "
            f"({speedup:.2f}x sequential, efficiency {efficiency:.2f})"
        )
    lines.append(
        f"  frontier size {report['frontier_size']} "
        f"(bit-identical across all modes)"
    )
    return "\n".join(lines)


def test_dp_arena_speedup_recorded():
    """The 4-worker coordinator backend must beat the sequential backend.

    The headline number (4-worker coordinator ≥ 1.5× sequential) is
    recorded in ``BENCH_dp.json``; the assertion uses a lower bar so the
    check stays robust on loaded CI runners.  Frontier and work-counter
    bit-identity across the backends is asserted inside the benchmark.
    """
    report = run_dp_benchmark()
    print()
    print(_format_dp_report(report))
    assert report["speedup_coordinator_vs_arena"]["4_workers"] > 1.0


def main() -> int:
    report = run_benchmark()
    print(_format_report(report))
    print(f"[results written to {RESULT_PATH}]")
    runner_report = run_runner_benchmark()
    print(_format_runner_report(runner_report))
    print(f"[results written to {RUNNER_RESULT_PATH}]")
    coordinator_report = run_coordinator_benchmark()
    print(_format_coordinator_report(coordinator_report))
    print(f"[results written to {COORDINATOR_RESULT_PATH}]")
    dp_report = run_dp_benchmark()
    print(_format_dp_report(dp_report))
    print(f"[results written to {DP_RESULT_PATH}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
