"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` from the repo root.

Tiny instances of every workload, run through the real command, must give
identical digests and identical per-layer counts when repeated, and a
different digest under another seed.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
#: Per-layer metrics that are counts of work, not timings: they must repeat.
COUNT_UNITS = ("count", "ratio")


def bench(*arguments, cwd=ROOT):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return completed


def run_tiny(workload, seed, trace):
    """Two ops: a traced run pairs each op with an untraced twin, so it
    needs twice the ``--seconds`` of an untraced run for the same count."""
    seconds = 2 * (2 if trace else 1) * workloads.WORKLOADS[workload].nominal_op_seconds
    completed = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace),
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2])["run_record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_repeat_gives_identical_digests_and_counts(workload):
    first_record, first = run_tiny(workload, 7, trace=1)
    second_record, second = run_tiny(workload, 7, trace=1)
    other_record, _ = run_tiny(workload, 8, trace=1)
    assert first["correct"] and second["correct"]
    assert first_record["digest"] == second_record["digest"]
    assert other_record["digest"] != first_record["digest"]
    counts = {
        name: metric["value"]
        for name, metric in first["metrics"].items()
        if metric["unit"] in COUNT_UNITS
    }
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
    assert any(counts.values())


@pytest.mark.parametrize("trace", (0, 1))
def test_reports_exactly_the_declared_metrics(trace):
    record, result = run_tiny("service-stream", 3, trace=trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 2
    assert record["problems"] == []
    if trace:
        assert record["missing_layer_targets"] == []
        assert record["unattributed_within_tolerance"]


def test_known_failure_is_matched_by_where_it_is_raised():
    from repro.cost import metrics

    with pytest.raises(OverflowError) as known:
        metrics._external_sort_cost(math.inf, 16.0)
    name = run.failure_name(known.value)
    assert name == "OverflowError@repro/cost/metrics.py:_external_sort_cost"
    assert name in workloads.RmqLarge.known_errors
    with pytest.raises(OverflowError) as elsewhere:
        math.ceil(math.inf)
    assert run.failure_name(elsewhere.value) == "OverflowError"
    ledger = run.Ledger(workloads.RmqLarge.known_errors)
    ledger.record(0, 0.0, None, name)
    ledger.record(1, 0.0, None, "OverflowError@repro/cost/batch.py:cost_specs")
    assert ledger.unexpected == ["OverflowError@repro/cost/batch.py:cost_specs"]


def test_a_missing_layer_target_is_listed():
    spans = layers.LayerSpans(
        layers.TARGETS[:1] + (("repro.cost.batch", "BatchCostModel", "gone", "x", None),)
    )
    spans.install()
    try:
        assert spans.missing == ["repro.cost.batch.BatchCostModel.gone"]
    finally:
        spans.uninstall()


def test_untraced_and_traced_runs_agree():
    untraced_record, _ = run_tiny("figure9-case", 5, trace=0)
    traced_record, _ = run_tiny("figure9-case", 5, trace=1)
    assert untraced_record["digest"] == traced_record["digest"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rmq-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_tail_percentile_keeps_ten_ops_beyond():
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(575) == 95.0
    assert run.percentile_value(list(range(1, 41)), 75.0) == 30


def test_self_time_subtracts_children_on_the_same_thread():
    def span(name, ts, dur, tid=1, **args):
        return {"name": name, "ph": "X", "ts": ts, "dur": dur, "tid": tid, "args": args}

    events = [
        span(layers.OP_SPAN, 0.0, 100.0, op=0),
        span("outer", 10.0, 50.0),
        span("inner", 20.0, 15.0),
        span("worker", 30.0, 40.0, tid=2),
        {"name": "outer", "ph": "i", "ts": 11.0, "tid": 1, "args": {"rows": 3}},
    ]
    totals = layers.attribute(events)
    assert totals.ops == 1
    assert totals.self_us["outer"] == 35.0
    assert totals.self_us["inner"] == 15.0
    assert totals.self_us["worker"] == 40.0
    assert "worker" not in totals.op_thread_self_us
    assert sum(totals.op_thread_self_us.values()) == 50.0
    assert totals.attrs["outer.rows"] == 3
