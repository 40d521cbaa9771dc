"""Benchmark command: one workload, a fixed count of checked ops, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rmq-large --seed 1 --seconds 30 --trace 0

``--seconds`` sets the size of a run: it becomes a fixed op count through
each workload's nominal op cost, so every build does the same work and a
faster build simply finishes sooner.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run record (versions, CPU, seed, op count, tail percentile, calibration
loop timings, failures by name, digests).

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs half as many ops, each twice, untraced and traced
(alternating which goes first).  It reports the per-layer split of the
traced ops and the tracing overhead, and writes a Chrome trace to
``perfbench/out/``.

``--pin`` records the default seed's digests in ``perfbench/digests.json``;
later runs compare against them, so a change that alters any output fails
its check.
"""

import time

# setup_s counts from here: before ``import repro`` and everything else.
_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS_PATH = HERE / "digests.json"
OUT_DIR = HERE / "out"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
#: setup_s is the median over this many set-ups: the run's own plus
#: SETUP_SAMPLES - 1 child processes that set up and exit, so one slow
#: process start does not decide a run's set-up time.
SETUP_SAMPLES = 3
#: Tail percentile ladder: the highest with at least TAIL_BEYOND ops beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
#: No op starts after this many seconds, so a run on a slow machine still
#: exits within its time limit; such a run reports ``correct: false``.
RUN_DEADLINE_S = 140.0
#: The per-layer self times on the op's thread must add up to the traced op
#: time within this share of it; the run record flags a larger remainder.
UNATTRIBUTED_TOLERANCE_PCT = 10.0
CALIBRATION_LOOP = 1_000_000

#: Names and units of the per-layer metrics of ``--trace 1``.
SELF_MS_LAYERS = (
    "core.pareto_climb.climb",
    "plans.transformations.mutations",
    "core.random_plans.random_bushy_plan",
    "cost.batch.cost_specs",
    "cost.batch.join_candidates",
    "cost.batch.join_candidates_multi",
    "core.frontier.approximate",
    "core.plan_cache.insert_candidates",
    "core.rmq.step",
    "core.rmq.frontier",
    "baselines.dp.step",
    "baselines.nsga2.step",
    "baselines.sa.step",
    "baselines.ii.step",
    "baselines.2p.step",
    "query.generator.generate",
    "bench.tasks.execute_task.algorithm",
    "bench.tasks.execute_task.reference",
    "bench.tasks.build_test_case",
    "bench.runner.reduce",
    "pareto.epsilon.approximation_error",
)
CALL_COUNTS = (
    "core.pareto_climb.climb",
    "plans.transformations.mutations",
    "core.rmq.step",
    "baselines.dp.step",
)
ATTR_COUNTS = (
    "core.pareto_climb.climb.path_length",
    "core.pareto_climb.climb.plans_built",
    "cost.batch.cost_specs.specs",
    "cost.batch.join_candidates.candidates",
    "cost.batch.join_candidates_multi.candidates",
    "core.plan_cache.insert_candidates.rows",
)
#: Registry counters read as per-op deltas around the traced ops.
GLOBAL_COUNTERS = ("frontier.accepted", "frontier.evicted", "dp.candidates")
SERVICE_HISTOGRAMS = {
    "dist.service.server_submit_ms": "service.submit_seconds",
    "dist.service.job_ms": "service.job_seconds",
    "dist.coordinator.lease_ms": "coordinator.lease_seconds.tcp",
}
SERVICE_COUNTERS = (
    "service.leases.granted",
    "coordinator.failed_leases.tcp",
    "coordinator.reassignments.tcp",
)


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes: the machine's drift gauge."""
    start = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_LOOP):
        total += value * value % 7
    return time.perf_counter() - start


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with TAIL_BEYOND ops beyond it."""
    for percentile in TAIL_PERCENTILES:
        if count - _rank(percentile, count) >= TAIL_BEYOND:
            return percentile
    return 100.0


def _rank(percentile: float, count: int) -> int:
    """1-based nearest rank of ``percentile`` among ``count`` sorted values."""
    return max(1, min(count, math.ceil(round(percentile * count / 100.0, 9))))


def percentile_value(values, percentile: float) -> float:
    ordered = sorted(values)
    return ordered[_rank(percentile, len(ordered)) - 1]


def ops_for(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.nominal_op_seconds))


def import_program():
    """Import ``repro`` from this checkout's ``src`` (and nowhere else)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return repro


def pin_to_one_cpu() -> None:
    """Move every thread of this process (and later ones) to one CPU."""
    cpu = {max(os.sched_getaffinity(0))}
    for thread_id in os.listdir("/proc/self/task"):
        os.sched_setaffinity(int(thread_id), cpu)


class OpTimeout(TimeoutError):
    """An op ran past ``OP_TIMEOUT_S``."""


def _raise_timeout(signum, frame):
    raise OpTimeout("op timed out")


def failure_name(exc: BaseException) -> str:
    """``Type@repro/module.py:function`` of the innermost program frame.

    A known defect is matched by where it is raised, not by its class alone,
    so the same exception raised anywhere else counts as a new failure.
    """
    site = ""
    prefix = str(SRC) + os.sep
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        filename = frame.f_code.co_filename
        if filename.startswith(prefix):
            site = f"@{Path(filename).relative_to(SRC).as_posix()}:{frame.f_code.co_name}"
    return type(exc).__name__ + site


def run_op(workload, op_input, timeout_s: float):
    """Time one op; returns ``(seconds, output, failure name or None)``."""
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    start = time.perf_counter()
    try:
        output = workload.run(op_input)
        elapsed = time.perf_counter() - start
    except Exception as exc:  # a failing op is counted by name; the run goes on
        return time.perf_counter() - start, None, failure_name(exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, output, None


def check_op(workload, index: int, op_input, output, check_failed):
    """The op's digest and ``None``, or ``None`` and the failed check's name."""
    try:
        return workload.check(index, op_input, output), None
    except check_failed as exc:
        return None, f"check:{exc.check}"
    except Exception as exc:  # a check that raises fails the op, by name
        return None, f"check:{type(exc).__name__}"


class Ledger:
    """Per-op outcomes of one run."""

    def __init__(self, known_errors) -> None:
        self.known_errors = set(known_errors)
        self.seconds = {}
        self.digests = {}
        self.failures = {}

    def record(self, index: int, seconds: float, digest, failure) -> None:
        if failure is None:
            self.seconds[index] = seconds
            self.digests[index] = digest
        else:
            self.failures[index] = failure
            self.digests[index] = f"failed:{failure}"

    def fail(self, index: int, failure: str) -> None:
        self.seconds.pop(index, None)
        self.record(index, 0.0, None, failure)

    @property
    def attempted(self) -> int:
        return len(self.digests)

    @property
    def ok_seconds(self):
        return [self.seconds[index] for index in sorted(self.seconds)]

    @property
    def unexpected(self):
        return sorted(
            {name for name in self.failures.values() if name not in self.known_errors}
        )


def load_pins() -> dict:
    if DIGESTS_PATH.is_file():
        return json.loads(DIGESTS_PATH.read_text())
    return {}


def environment_record() -> dict:
    import numpy

    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "plan_engine": os.environ.get("REPRO_PLAN_ENGINE", "default"),
    }


def warm_up(workload, workloads_module):
    """Run and check the canary op (untimed); returns its digest."""
    op_input = workload.op_input(workloads_module.CANARY, 0)
    _, output, error = run_op(workload, op_input, workloads_module.OP_TIMEOUT_S)
    if error is not None:
        return f"failed:{error}"
    digest, failure = check_op(workload, -1, op_input, output, workloads_module.CheckFailed)
    return digest if failure is None else f"failed:{failure}"


def child_setup_seconds(args) -> list:
    """Set-up times of SETUP_SAMPLES - 1 fresh processes (run one at a time)."""
    samples = []
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    for _ in range(SETUP_SAMPLES - 1):
        if time.perf_counter() - _PROCESS_START > RUN_DEADLINE_S:
            break
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        )
        samples.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# --------------------------------------------------------------------------
# Modes
# --------------------------------------------------------------------------
def set_up(args, workloads_module):
    """Everything before the first timed op: inputs, start, the warm-up op.

    Returns the started workload, the op inputs, the warm-up digest and
    ``setup_s``.  The caller closes the workload.
    """
    workload = workloads_module.WORKLOADS[args.workload]()
    inputs = [
        workload.op_input(args.seed, index)
        for index in range(ops_for(workload, args.seconds))
    ]
    workload.start()
    canary = warm_up(workload, workloads_module)
    return workload, inputs, canary, time.perf_counter() - _PROCESS_START


def setup_only(args, workloads_module) -> None:
    workload, _, _, setup_s = set_up(args, workloads_module)
    workload.close()
    print(json.dumps({"setup_s": setup_s}))


def measure(args, workloads_module) -> dict:
    """The untraced run: end-to-end metrics."""
    workload, inputs, canary, setup_s = set_up(args, workloads_module)
    ops = len(inputs)
    ledger = Ledger(workload.known_errors)
    truncated = False
    try:
        calibration_before = calibrate()
        for index, op_input in enumerate(inputs):
            if time.perf_counter() - _PROCESS_START > RUN_DEADLINE_S:
                truncated = True
                break
            seconds, output, error = run_op(
                workload, op_input, workloads_module.OP_TIMEOUT_S
            )
            digest = None
            if error is None:
                digest, error = check_op(
                    workload, index, op_input, output, workloads_module.CheckFailed
                )
            del output
            ledger.record(index, seconds, digest, error)
        calibration_after = calibrate()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for index, check in workload.finish().items():
            ledger.fail(index, f"check:{check}")
    finally:
        workload.close()
    setup_samples = [setup_s] + child_setup_seconds(args)
    ok = ledger.ok_seconds
    if not ok:
        raise SystemExit(f"perfbench: every op failed: {dict(Counter(ledger.failures.values()))}")
    tail = tail_percentile(len(ok))
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_ms_p50": (statistics.median(ok) * 1000.0, "ms"),
        "op_ms_tail": (percentile_value(ok, tail) * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_ok_ratio": (len(ok) / ledger.attempted, "ratio"),
    }
    record = {
        "setup_samples_s": setup_samples,
        "calibration_s": {"before": calibration_before, "after": calibration_after},
        "tail_percentile": tail,
        "ok_ops": len(ok),
        "op_ms": [round(seconds * 1000.0, 3) for seconds in ok],
    }
    return finish_report(args, ops, ledger, canary, truncated, metrics, record)


def measure_traced(args, workloads_module) -> dict:
    """The traced run: per-layer split of traced ops, paired with untraced ones."""
    import repro.obs as obs
    from layers import OP_SPAN, LayerSpans, attribute

    factory = workloads_module.WORKLOADS[args.workload]
    plain, traced = factory(), factory()
    # Every op runs twice, so half the ops keep the run near --seconds.
    ops = max(1, ops_for(plain, args.seconds) // 2)
    inputs = [plain.op_input(args.seed, index) for index in range(ops)]
    ledger = Ledger(plain.known_errors)
    spans = LayerSpans()
    tracer = obs.Tracer()
    deltas: Counter = Counter()
    pairs = []
    truncated = False
    timeout_s = workloads_module.OP_TIMEOUT_S
    plain.start()
    traced.start()
    try:
        canary = warm_up(plain, workloads_module)
        traced_canary = warm_up(traced, workloads_module)
        if traced_canary != canary:
            canary = f"failed:traced_canary:{traced_canary}"
        calibration_before = calibrate()
        for index, op_input in enumerate(inputs):
            if time.perf_counter() - _PROCESS_START > RUN_DEADLINE_S:
                truncated = True
                break
            outcome = {}
            for is_traced in ((False, True) if index % 2 == 0 else (True, False)):
                if not is_traced:
                    outcome[False] = run_op(plain, op_input, timeout_s)
                    continue
                before = layer_counters(traced)
                spans.install()
                previous = obs.set_tracer(tracer)
                try:
                    with tracer.span(OP_SPAN, op=index):
                        outcome[True] = run_op(traced, op_input, timeout_s)
                finally:
                    obs.set_tracer(previous)
                    spans.uninstall()
                deltas.update(counter_delta(before, layer_counters(traced)))
            ledger.record(index, *paired_outcome(
                index, op_input, plain, traced, outcome, workloads_module.CheckFailed
            ))
            if index not in ledger.failures:
                pairs.append((outcome[False][0], outcome[True][0]))
        calibration_after = calibrate()
        for workload in (plain, traced):
            for index, check in workload.finish().items():
                ledger.fail(index, f"check:{check}")
    finally:
        plain.close()
        traced.close()
    events = tracer.events()
    attribution = attribute(events)
    metrics = layer_metrics(attribution, deltas, pairs)
    # A layer the program renamed, or one this workload no longer reaches,
    # would otherwise read as a zero (a free "gain") instead of unmeasured.
    layer_problems = [f"layer target missing: {name}" for name in spans.missing] + [
        f"layer not reached: {name}"
        for name in plain.traced_layers
        if not attribution.calls.get(name)
    ]
    unattributed = metrics["trace.unattributed_pct"][0]
    record = {
        "calibration_s": {"before": calibration_before, "after": calibration_after},
        "traced_ops": attribution.ops,
        "layer_calls": dict(sorted(attribution.calls.items())),
        "trace_events": len(events),
        "missing_layer_targets": spans.missing,
        "unattributed_tolerance_pct": UNATTRIBUTED_TOLERANCE_PCT,
        "unattributed_within_tolerance": unattributed <= UNATTRIBUTED_TOLERANCE_PCT,
        "trace_file": str(write_trace(args, events)),
    }
    return finish_report(
        args, ops, ledger, canary, truncated, metrics, record, layer_problems
    )


def paired_outcome(index, op_input, plain, traced, outcome, check_failed):
    """One ledger entry from an op run untraced and traced."""
    digests = []
    for workload, is_traced in ((plain, False), (traced, True)):
        _, output, error = outcome[is_traced]
        if error is None:
            digest, error = check_op(workload, index, op_input, output, check_failed)
        if error is not None:
            return outcome[True][0], None, error
        digests.append(digest)
    if digests[0] != digests[1]:
        return outcome[True][0], None, "check:traced_output_differs"
    return outcome[True][0], digests[0], None


def layer_counters(workload) -> Counter:
    """Registry readings the per-layer report takes deltas of."""
    from repro.obs import global_metrics

    registry = global_metrics()
    readings = Counter({name: registry.counter(name) for name in GLOBAL_COUNTERS})
    service = getattr(workload, "metrics", None)
    if service is not None:
        for name in SERVICE_COUNTERS:
            readings[name] = service.counter(name)
        for histogram_name in SERVICE_HISTOGRAMS.values():
            histogram = service.histogram(histogram_name)
            readings[histogram_name] = histogram.total if histogram is not None else 0.0
    readings.update(workload.layer_counts())
    return readings


def counter_delta(before: Counter, after: Counter) -> dict:
    return {name: after[name] - before.get(name, 0) for name in after}


def layer_metrics(attribution, deltas, pairs) -> dict:
    """The ``--trace 1`` metrics, each per traced op."""
    a = attribution
    metrics = {}
    for name in SELF_MS_LAYERS:
        metrics[f"{name}.self_ms"] = (a.per_op_ms(a.self_us.get(name, 0.0)), "ms")
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = (a.per_op(a.calls.get(name, 0)), "count")
    for name in ATTR_COUNTS:
        metrics[name] = (a.per_op(a.attrs.get(name, 0)), "count")
    rows = a.attrs.get("core.plan_cache.insert_candidates.rows", 0)
    accepted = a.attrs.get("core.plan_cache.insert_candidates.accepted", 0)
    metrics["core.plan_cache.insert_candidates.accept_ratio"] = (
        accepted / rows if rows else 0.0, "ratio"
    )
    for name in GLOBAL_COUNTERS:
        metrics[name] = (a.per_op(deltas.get(name, 0)), "count")
    for name in ("dist.service.submit", "dist.service.wait"):
        metrics[f"{name}_ms"] = (a.per_op_ms(a.duration_us.get(name, 0.0)), "ms")
    for metric, histogram in SERVICE_HISTOGRAMS.items():
        metrics[metric] = (a.per_op(deltas.get(histogram, 0.0)) * 1000.0, "ms")
    granted = deltas.get("service.leases.granted", 0)
    failed = deltas.get("coordinator.failed_leases.tcp", 0)
    reassigned = deltas.get("coordinator.reassignments.tcp", 0)
    metrics["dist.coordinator.leases"] = (a.per_op(granted), "count")
    metrics["dist.coordinator.leases_failed"] = (a.per_op(failed), "count")
    metrics["dist.coordinator.leases_expired"] = (a.per_op(reassigned - failed), "count")
    requested = deltas.get("leaves_requested", 0)
    metrics["dist.service.dedup_ratio"] = (
        deltas.get("leaves_injected", 0) / requested if requested else 0.0, "ratio"
    )
    leaf_us = sum(
        a.duration_us.get(f"bench.tasks.execute_task.{role}", 0.0)
        for role in ("algorithm", "reference")
    )
    metrics["dist.dispatch_ms"] = (
        a.per_op_ms(a.op_us - leaf_us) if leaf_us else 0.0, "ms"
    )
    ratios = [traced / untraced for untraced, traced in pairs if untraced > 0]
    metrics["obs.trace_overhead_pct"] = (
        100.0 * (statistics.median(ratios) - 1.0) if ratios else 0.0, "%"
    )
    metrics["trace.op_ms"] = (a.per_op_ms(a.op_us), "ms")
    reported = SELF_MS_LAYERS + ("dist.service.submit", "dist.service.wait")
    attributed_us = sum(a.op_thread_self_us.get(name, 0.0) for name in reported)
    metrics["trace.unattributed_pct"] = (
        100.0 * (a.op_us - attributed_us) / a.op_us if a.op_us else 0.0, "%"
    )
    return metrics


def write_trace(args, events) -> Path:
    """Write the Chrome trace, with each span's parent and op in its args."""
    from layers import link_spans
    from repro.obs import write_chrome_trace

    for span in link_spans(events):
        if span.parent is not None:
            span.args["parent"] = span.parent.name
        if span.op is not None:
            span.args["op"] = span.op
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    write_chrome_trace(
        {"traceEvents": events, "displayTimeUnit": "ms", "otherData": {}}, str(path)
    )
    return path.relative_to(ROOT)


def finish_report(args, ops, ledger, canary, truncated, metrics, record, problems=()) -> dict:
    """Checks against the pinned digests, the run record and the result line."""
    from workloads import fold_digests

    digest = fold_digests(sorted(ledger.digests.items()))
    pin = load_pins().get(args.workload, {})
    problems = list(problems) + [f"op failed: {name}" for name in ledger.unexpected]
    if truncated:
        problems.append(
            f"stopped after {ledger.attempted} of {ops} ops at the {RUN_DEADLINE_S:.0f} s deadline"
        )
    if canary.startswith("failed:") and canary[len("failed:"):] not in ledger.known_errors:
        problems.append(f"warm-up op {canary}")
    if pin.get("canary") not in (None, canary):
        problems.append("warm-up op digest differs from the pinned one")
    full_run_pinned = (
        pin.get("seed") == args.seed and pin.get("ops") == ops and not truncated
    )
    if full_run_pinned and pin.get("digest") != digest:
        problems.append("run digest differs from the pinned one")
    run_record = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": ops,
        "trace": args.trace,
        "truncated": truncated,
        "failures_by_name": dict(Counter(ledger.failures.values())),
        "failed_ops": {str(index): name for index, name in sorted(ledger.failures.items())},
        "digest": digest,
        "canary_digest": canary,
        "digest_checked_against_pin": full_run_pinned,
        "problems": problems,
        **record,
        **environment_record(),
    }
    return {
        "record": run_record,
        "result": {
            "correct": not problems,
            "attempted": ledger.attempted,
            "failed": len(ledger.failures),
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        },
    }


def pin_digests(args, report) -> None:
    record = report["record"]
    if record["problems"]:
        raise SystemExit(f"perfbench: not pinning a run with problems: {record['problems']}")
    pins = load_pins()
    pins[args.workload] = {
        "canary": record["canary_digest"],
        "seed": args.seed,
        "ops": record["ops"],
        "digest": record["digest"],
    }
    DIGESTS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("rmq-large", "figure9-case", "service-stream"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true",
                        help="record this run's digests in perfbench/digests.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if workloads.WORKLOADS[args.workload].single_cpu:
        pin_to_one_cpu()

    signal.signal(signal.SIGALRM, _raise_timeout)
    if args.setup_only:
        setup_only(args, workloads)
        return 0
    report = (measure_traced if args.trace else measure)(args, workloads)
    if args.pin:
        pin_digests(args, report)
    print(json.dumps({"run_record": report["record"]}, sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
