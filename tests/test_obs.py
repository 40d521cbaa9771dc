"""Tests for the observability layer (repro.obs).

Three headline properties:

* **Zero overhead when disabled** — the disabled span fast path returns
  the shared identity sentinel, allocates nothing, and reads no clock.
* **Determinism untouched** — traced and untraced runs produce
  bit-identical frontiers (fingerprints), scenario results, and RNG
  streams.
* **Deterministic folding** — per-worker metrics snapshots merge into the
  same driver totals regardless of arrival order.
"""

import json
import logging
import math
import random
import tracemalloc

import pytest

import repro.obs as obs
from repro.baselines.dp import ArenaDPOptimizer
from repro.bench.runner import run_scenario
from repro.bench.scenario import ScenarioScale, ScenarioSpec
from repro.cost.model import MultiObjectiveCostModel
from repro.dist.cache import TaskCache
from repro.dist.worker import run_coordinated
from repro.obs import (
    HISTOGRAM_BUCKETS,
    METRICS_SNAPSHOT_FORMAT,
    NULL_SPAN,
    NULL_TRACER,
    Histogram,
    Metrics,
    MetricsPublisher,
    Tracer,
    bucket_bounds,
    bucket_index,
    chrome_trace_payload,
    merge_snapshots,
    render_dashboard,
    render_metrics_report,
    tail_dashboard,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_snapshot,
)
from repro.query.generator import QueryGenerator
from repro.query.join_graph import GraphShape
from repro.regress import frontier_fingerprint


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts untraced with an empty global registry."""
    obs.disable_tracing()
    obs.reset_global_metrics()
    yield
    obs.disable_tracing()
    obs.reset_global_metrics()


def micro_spec(**overrides):
    """A seconds-scale step-driven spec exercising the coordinator."""
    base = dict(
        name="obs-micro",
        description="observability micro spec",
        graph_shapes=(GraphShape.CHAIN,),
        table_counts=(4,),
        num_metrics=2,
        algorithms=("RandomSampling", "RMQ"),
        num_test_cases=2,
        step_checkpoints=(2, 4),
        reference_algorithm="DP(1.01)",
        seed=11,
        scale=ScenarioScale.SMOKE,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _dp_model(seed=3, num_tables=5):
    query = QueryGenerator(rng=random.Random(seed)).generate(
        num_tables, GraphShape.CHAIN
    )
    return MultiObjectiveCostModel(query, metrics=("time", "buffer"))


# ---------------------------------------------------------------------------
# Histogram buckets
# ---------------------------------------------------------------------------
class TestBuckets:
    def test_edges(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(-1.0) == 0
        assert bucket_index(math.nan) == 0
        assert bucket_index(math.inf) == HISTOGRAM_BUCKETS - 1
        assert bucket_index(0.75) == 64
        # Powers of two land at the *bottom* of the next bucket.
        assert bucket_index(1.0) == bucket_index(0.5) + 1

    def test_bucket_bounds_cover_their_values(self):
        for value in (1e-9, 0.001, 0.75, 1.0, 3.0, 1e9):
            low, high = bucket_bounds(bucket_index(value))
            assert low <= value < high

    def test_bounds_reject_out_of_range(self):
        with pytest.raises(ValueError):
            bucket_bounds(-1)
        with pytest.raises(ValueError):
            bucket_bounds(HISTOGRAM_BUCKETS)

    def test_observations_are_order_independent(self):
        values = [0.01 * i for i in range(1, 200)]
        forward, backward = Histogram(), Histogram()
        for value in values:
            forward.observe(value)
        for value in reversed(values):
            backward.observe(value)
        assert forward.buckets == backward.buckets
        assert forward.count == backward.count
        assert forward.min == backward.min and forward.max == backward.max

    def test_round_trip(self):
        histogram = Histogram()
        for value in (0.1, 0.25, 4.0, 4.0):
            histogram.observe(value)
        clone = Histogram.from_dict(histogram.to_dict())
        assert clone.to_dict() == histogram.to_dict()
        assert clone.mean == histogram.mean


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        metrics = Metrics()
        assert metrics.add("cache.hits") == 1
        assert metrics.add("cache.hits", 2) == 3
        assert metrics.counter("cache.hits") == 3
        assert metrics.counter("never.written") == 0
        metrics.gauge("frontier.rows", 17.0)
        assert metrics.gauge_value("frontier.rows") == 17.0
        metrics.observe("lease.seconds", 0.25)
        assert metrics.histogram("lease.seconds").count == 1
        assert len(metrics) == 3
        assert metrics.counters("cache.") == {"cache.hits": 3}

    def test_snapshot_round_trip(self):
        metrics = Metrics()
        metrics.add("a", 2)
        metrics.gauge("g", 1.5)
        metrics.observe("h", 0.75)
        clone = Metrics.from_snapshot(metrics.snapshot())
        assert clone.snapshot() == metrics.snapshot()
        # Snapshots are plain JSON.
        json.dumps(metrics.snapshot())

    def test_merge_is_order_independent(self):
        parts = []
        for seed in range(4):
            rng = random.Random(seed)
            metrics = Metrics()
            for _ in range(50):
                metrics.add("counter", rng.randrange(5))
                metrics.observe("latency", rng.random())
                metrics.gauge("rows", rng.random())
            parts.append(metrics.snapshot())
        forward = merge_snapshots(parts)
        backward = merge_snapshots(reversed(parts))
        assert forward == backward

    def test_merge_semantics(self):
        merged = Metrics()
        merged.add("count", 1)
        merged.gauge("rows", 10.0)
        other = Metrics()
        other.add("count", 2)
        other.gauge("rows", 5.0)
        merged.merge_snapshot(other.snapshot())
        assert merged.counter("count") == 3
        assert merged.gauge_value("rows") == 10.0  # gauges merge by max

    def test_merge_rejects_foreign_payload(self):
        with pytest.raises(ValueError):
            Metrics().merge_snapshot({"format": "not-a-metrics-snapshot"})

    def test_clear(self):
        metrics = Metrics()
        metrics.add("a")
        metrics.clear()
        assert len(metrics) == 0


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_deterministic_span_and_event_records(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: next(ticks) / 1000.0)  # 1 ms per tick
        with tracer.span("dp.level", tables=3):
            tracer.event("dp.level.scheduled", subsets=5)
        instant, complete = tracer.events()
        assert instant["ph"] == "i" and instant["s"] == "t"
        assert instant["name"] == "dp.level.scheduled"
        assert instant["args"] == {"subsets": 5}
        assert complete["ph"] == "X"
        assert complete["name"] == "dp.level"
        assert complete["ts"] == 1000.0  # entered at tick 1 (epoch = tick 0)
        assert complete["dur"] == 2000.0
        assert complete["args"] == {"tables": 3}

    def test_nested_spans_record_inner_first(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [event["name"] for event in tracer.events()]
        assert names == ["inner", "outer"]

    def test_len_and_clear(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        assert len(tracer) == 1
        tracer.clear()
        assert tracer.events() == []


# ---------------------------------------------------------------------------
# The disabled fast path (the tentpole's zero-overhead guarantee)
# ---------------------------------------------------------------------------
class TestDisabledOverhead:
    def test_identity_sentinels(self):
        assert obs.get_tracer() is NULL_TRACER
        assert obs.get_tracer().span("dp.level") is NULL_SPAN
        assert obs.get_tracer().span("other", tables=3) is NULL_SPAN
        assert not NULL_TRACER.enabled
        assert not NULL_SPAN.enabled
        assert NULL_TRACER.events() == []

    def test_null_span_fast_path_retains_no_memory(self):
        tracer = obs.get_tracer()
        for _ in range(100):  # warm every code path and cache
            with tracer.span("dp.level"):
                pass
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(5000):
            with tracer.span("dp.level"):
                pass
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        retained = sum(
            stat.size_diff
            for stat in after.compare_to(before, "lineno")
            if stat.size_diff > 0
        )
        # 5000 disabled spans must not retain memory; allow tracemalloc's
        # own bookkeeping noise.
        assert retained < 4096

    def test_enable_disable_round_trip(self):
        assert not obs.tracing_enabled()
        tracer = obs.enable_tracing()
        assert obs.tracing_enabled()
        assert obs.get_tracer() is tracer
        assert obs.disable_tracing() is tracer
        assert obs.get_tracer() is NULL_TRACER

    def test_env_gate_only_turns_tracing_on(self):
        assert not obs.configure_from_env({})
        assert not obs.configure_from_env({"REPRO_TRACE": "0"})
        assert obs.get_tracer() is NULL_TRACER
        assert obs.configure_from_env({"REPRO_TRACE": "1"})
        installed = obs.get_tracer()
        assert installed.enabled
        # The gate never reverts an active tracer.
        assert obs.configure_from_env({})
        assert obs.get_tracer() is installed
        for truthy in ("true", "YES", "On"):
            obs.disable_tracing()
            assert obs.configure_from_env({"REPRO_TRACE": truthy})


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
class TestChromeTraceExport:
    def test_payload_validates_and_round_trips(self, tmp_path):
        tracer = Tracer()
        with tracer.span("scenario.execute", workers=1):
            tracer.event("cache.corrupt_entry", key="k")
        payload = chrome_trace_payload(tracer)
        assert validate_chrome_trace(payload) == []
        path = tmp_path / "trace.json"
        assert write_chrome_trace(tracer, str(path)) == 2
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert validate_chrome_trace(loaded) == []

    def test_validator_flags_malformed_events(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        bad = {
            "traceEvents": [
                {"ph": "X", "ts": 0.0, "pid": 1, "tid": 1},  # no name/dur
                {"name": "e", "ph": "i", "ts": 0.0, "pid": 1, "tid": 1},  # no s
                {"name": "e", "ph": "q", "ts": 0.0, "pid": 1, "tid": 1},
                "not-an-object",
            ]
        }
        errors = validate_chrome_trace(bad)
        assert len(errors) >= 4

    def test_non_serializable_args_are_stringified_on_write(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s", shape=GraphShape.CHAIN):  # enum: not raw JSON
            pass
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        json.loads(path.read_text())  # default=str made it serializable


class TestMetricsReport:
    def test_sections_and_alignment(self):
        metrics = Metrics()
        metrics.add("cache.hits", 3)
        metrics.gauge("frontier.rows", 17.0)
        metrics.observe("coordinator.lease_seconds", 0.25)
        report = render_metrics_report(metrics.snapshot())
        assert "== counters ==" in report
        assert "== gauges ==" in report
        assert "== histograms ==" in report
        assert "cache.hits" in report and "3" in report

    def test_empty_and_foreign(self):
        assert render_metrics_report(Metrics().snapshot()) == "(no metrics recorded)"
        with pytest.raises(ValueError):
            render_metrics_report({"format": "something-else"})

    def test_snapshot_file_round_trip(self, tmp_path):
        metrics = Metrics()
        metrics.add("a", 7)
        path = tmp_path / "metrics.json"
        write_metrics_snapshot(str(path), metrics.snapshot())
        assert json.loads(path.read_text())["counters"]["a"] == 7


# ---------------------------------------------------------------------------
# Dashboard
# ---------------------------------------------------------------------------
class TestDashboard:
    def test_render_is_pure_and_complete(self):
        metrics = Metrics()
        metrics.add("coordinator.completed", 7)
        metrics.add("coordinator.scheduled", 9)
        metrics.add("cache.hits", 3)
        metrics.add("cache.misses", 1)
        metrics.observe("coordinator.lease_seconds", 0.125)
        metrics.gauge("frontier.rows", 42)
        snapshot = metrics.snapshot()
        text = render_dashboard(snapshot)
        assert text == render_dashboard(snapshot)  # pure
        assert "completed=7" in text
        assert "inflight=2" in text
        assert "hit-rate=75.0%" in text
        assert "rows=42" in text
        assert "n=1" in text  # lease latency histogram

    def test_render_degrades_on_empty_snapshot(self):
        text = render_dashboard(Metrics().snapshot())
        assert "completed=0" in text
        assert "lease lat   n/a" in text

    def test_render_rejects_foreign_snapshot(self):
        with pytest.raises(ValueError):
            render_dashboard({"format": "nope"})

    def test_tail_waits_then_renders(self, tmp_path):
        path = tmp_path / "metrics.json"
        sleeps = []

        class Out:
            def __init__(self):
                self.chunks = []

            def write(self, chunk):
                self.chunks.append(chunk)

            def flush(self):
                pass

        out = Out()

        def sleep(seconds):
            sleeps.append(seconds)
            if len(sleeps) == 1:  # file appears between ticks
                metrics = Metrics()
                metrics.add("coordinator.completed", 2)
                write_metrics_snapshot(str(path), metrics.snapshot())

        drawn = tail_dashboard(
            str(path), interval=0.01, iterations=2, stream=out, sleep=sleep
        )
        assert drawn == 1
        assert "(waiting for metrics" in out.chunks[0]
        assert "completed=2" in out.chunks[1]

    def test_publisher_final_write(self, tmp_path):
        metrics = Metrics()
        metrics.add("coordinator.completed", 5)
        path = tmp_path / "pub.json"
        with MetricsPublisher(metrics, str(path), interval=30.0):
            pass  # interval never fires; stop() must still publish
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"]["coordinator.completed"] == 5


# ---------------------------------------------------------------------------
# Coordinator + cache integration
# ---------------------------------------------------------------------------
class TestCoordinatorMetrics:
    def test_stats_view_and_lease_latency(self):
        # "case" granularity makes every lease a single task, so the
        # lease-latency histogram count must equal the completed counter.
        coordinator = run_coordinated(micro_spec(), workers=1, granularity="case")
        stats = coordinator.stats
        assert stats["completed"] == stats["scheduled"] > 0
        # The legacy stats dict is a thin view over the metrics registry.
        for key, value in stats.items():
            assert coordinator.metrics.counter(f"coordinator.{key}") == value
        histogram = coordinator.metrics.histogram("coordinator.lease_seconds")
        assert histogram is not None
        assert histogram.count == stats["completed"]
        assert histogram.min >= 0.0
        # The coordinator also mirrored into the process-global registry.
        assert (
            obs.global_metrics().counter("coordinator.completed")
            == stats["completed"]
        )

    def test_traced_coordinator_run_emits_lease_lifecycle(self):
        tracer = obs.enable_tracing()
        try:
            run_coordinated(micro_spec(), workers=1)
        finally:
            obs.disable_tracing()
        names = {event["name"] for event in tracer.events()}
        assert "coordinator.lease.claimed" in names
        assert "coordinator.lease.completed" in names
        assert "worker.lease" in names
        assert validate_chrome_trace(chrome_trace_payload(tracer)) == []


class TestCorruptCacheEntries:
    def test_corrupt_raw_entry_warns_and_counts(self, tmp_path, caplog):
        cache = TaskCache(str(tmp_path / "cache"))
        cache.put_raw_bytes("some-key", b"payload")
        path = cache._entry_path_bin("some-key")
        with open(path, "wb") as handle:
            handle.write(b"{truncated garbage")
        with caplog.at_level(logging.WARNING, logger="repro.dist.cache"):
            assert cache.get_raw_bytes("some-key") is None
        assert any("corrupt entry" in message for message in caplog.messages)
        assert cache.metrics.counter("cache.corrupt_entries") == 1
        assert cache.stats["misses"] == 1
        assert sorted(cache.stats) == ["evictions", "hits", "misses", "stores"]

    def test_foreign_format_counts_as_corrupt(self, tmp_path):
        cache = TaskCache(str(tmp_path / "cache"))
        cache.put_raw_bytes("some-key", b"payload")
        path = cache._entry_path_bin("some-key")
        with open(path, "wb") as handle:
            handle.write(b"other-format-v1\nsome-key\npayload")
        assert cache.get_raw_bytes("some-key") is None
        assert cache.metrics.counter("cache.corrupt_entries") == 1

    def test_missing_entry_is_a_clean_miss(self, tmp_path):
        cache = TaskCache(str(tmp_path / "cache"))
        assert cache.get_raw_bytes("absent") is None
        assert cache.metrics.counter("cache.corrupt_entries") == 0
        assert cache.stats["misses"] == 1

    def test_corrupt_entry_emits_trace_event(self, tmp_path):
        cache = TaskCache(str(tmp_path / "cache"))
        cache.put_raw_bytes("k", b"payload")
        with open(cache._entry_path_bin("k"), "wb") as handle:
            handle.write(b"nonsense")
        tracer = obs.enable_tracing()
        try:
            cache.get_raw_bytes("k")
        finally:
            obs.disable_tracing()
        names = [event["name"] for event in tracer.events()]
        assert "cache.corrupt_entry" in names

    def test_round_trip_still_works_and_counts_bytes(self, tmp_path):
        cache = TaskCache(str(tmp_path / "cache"))
        cache.put_raw_bytes("k", b"\x00\x01\x02")
        assert cache.get_raw_bytes("k") == b"\x00\x01\x02"
        assert cache.metrics.counter("cache.bytes_read") > 0
        assert cache.metrics.counter("cache.bytes_written") > 0


# ---------------------------------------------------------------------------
# Determinism: traced and untraced runs are bit-identical
# ---------------------------------------------------------------------------
class TestTracingDoesNotPerturb:
    def test_dp_coordinator_frontier_fingerprints_match(self):
        untraced = ArenaDPOptimizer(
            _dp_model(), alpha=1.5, backend="coordinator", workers=2
        )
        untraced.run(max_steps=10_000)
        baseline = frontier_fingerprint(untraced.frontier())

        obs.enable_tracing()
        try:
            traced = ArenaDPOptimizer(
                _dp_model(), alpha=1.5, backend="coordinator", workers=2
            )
            traced.run(max_steps=10_000)
            fingerprint = frontier_fingerprint(traced.frontier())
        finally:
            obs.disable_tracing()
        assert fingerprint == baseline

    def test_scenario_results_match(self):
        spec = micro_spec(name="obs-micro-traced")
        baseline = run_scenario(spec, workers=1)
        obs.enable_tracing()
        try:
            traced = run_scenario(spec, workers=1)
        finally:
            obs.disable_tracing()
        assert traced == baseline

    def test_tracing_consumes_no_rng(self):
        rng = random.Random(7)
        expected = [rng.random() for _ in range(5)]
        rng = random.Random(7)
        obs.enable_tracing()
        try:
            with obs.get_tracer().span("outer", tables=3):
                observed = [rng.random() for _ in range(5)]
        finally:
            obs.disable_tracing()
        assert observed == expected


# ---------------------------------------------------------------------------
# Worker metrics piggyback
# ---------------------------------------------------------------------------
class TestWorkerPiggyback:
    def test_process_pool_metrics_fold_into_driver(self):
        from repro.bench.tasks import clear_reference_memo
        from repro.dist.worker import shutdown_shared_pool

        # Pool workers fork from this process: restart the pool with an
        # empty reference memo so the DP leaves actually execute there
        # (memo keys are content-derived and ignore the spec name, so
        # earlier tests' runs would otherwise serve them from memory).
        shutdown_shared_pool()
        clear_reference_memo()
        obs.reset_global_metrics()
        run_coordinated(micro_spec(name="obs-pool"), workers=2)
        metrics = obs.global_metrics()
        # DP reference leaves ran in worker processes; their candidate
        # counters only reach the driver via the piggybacked snapshots.
        assert metrics.counter("dp.candidates") > 0
        assert metrics.counter("frontier.accepted") > 0

    def test_metered_execution_is_in_sync_with_plain(self):
        from repro.bench.tasks import (
            _execute_task_group,
            _execute_task_group_metered,
            schedule_tasks,
        )

        spec = micro_spec(name="obs-metered")
        tasks = schedule_tasks(spec)[:2]
        plain = _execute_task_group(spec, tasks)
        results, snapshot = _execute_task_group_metered(spec, tasks)
        assert snapshot["format"] == METRICS_SNAPSHOT_FORMAT

        def shape(task_results):
            # ``elapsed`` is wall-clock; compare everything else.
            return [
                (
                    result.task,
                    [
                        (record.checkpoint, record.steps, record.frontier_costs)
                        for record in result.records
                    ],
                )
                for result in task_results
            ]

        assert shape(results) == shape(plain)


# ---------------------------------------------------------------------------
# OptimizerStatistics thin view
# ---------------------------------------------------------------------------
class TestOptimizerStatisticsView:
    def test_increments_and_absolute_sets_back_onto_counters(self):
        from repro.core.interface import OptimizerStatistics

        statistics = OptimizerStatistics()
        statistics.steps += 1
        statistics.plans_built += 10
        statistics.plans_built = 7  # two_phase assigns absolutely
        assert statistics.steps == 1
        assert statistics.plans_built == 7
        assert statistics.metrics.counter("optimizer.steps") == 1
        assert statistics.metrics.counter("optimizer.plans_built") == 7

    def test_equality_matches_legacy_dataclass_semantics(self):
        from repro.core.interface import OptimizerStatistics

        assert OptimizerStatistics() == OptimizerStatistics()
        assert OptimizerStatistics(steps=1) != OptimizerStatistics()
        first = OptimizerStatistics(extra={"x": 1.0})
        second = OptimizerStatistics(extra={"x": 1.0})
        assert first == second
        second.extra["x"] = 2.0
        assert first != second

    def test_shared_registry_backing(self):
        from repro.core.interface import OptimizerStatistics

        shared = Metrics()
        first = OptimizerStatistics(metrics=shared)
        second = OptimizerStatistics(metrics=shared)
        first.steps += 2
        second.steps += 3
        assert shared.counter("optimizer.steps") == 5
