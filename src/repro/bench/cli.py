"""Command-line entry point for running benchmark scenarios.

Usage::

    python -m repro.bench.cli figure1 --scale smoke
    python -m repro.bench.cli figure3 --scale default
    python -m repro.bench.cli ablation_rmq --scale smoke --seed 7

    # Wall-clock-free (step-driven) variant, parallel within cells:
    python -m repro.bench.cli figure1 --scale smoke --steps \\
        --workers 4 --granularity case

    # Shard a grid across machines, then merge the serialized results:
    python -m repro.bench.cli figure1 --scale smoke --steps --shard 0/2 --out s0.json
    python -m repro.bench.cli figure1 --scale smoke --steps --shard 1/2 --out s1.json
    python -m repro.bench.cli merge s0.json s1.json

    # Reuse deterministic leaf results across runs and figure variants:
    python -m repro.bench.cli figure1 --scale smoke --steps \\
        --workers 2 --cache-dir ~/.repro-cache

    # Optimization as a service: one long-lived TCP server, persistent
    # worker pools attaching at runtime, many concurrent clients sharing
    # one deterministic-leaf cache:
    python -m repro.bench.cli serve --port 7963 --cache-dir ~/.repro-cache
    python -m repro.bench.cli work --attach 127.0.0.1:7963 --workers 4
    python -m repro.bench.cli submit figure1 --scale smoke --steps --port 7963

    # Regression archive: re-run the workload zoo and compare its frontier
    # fingerprints against the pinned baseline (tests/regression/archive.json):
    python -m repro.bench.cli regress check
    python -m repro.bench.cli regress record   # re-pin after intended changes

    # Traced run: Chrome trace_event JSON (chrome://tracing / Perfetto)
    # plus a metrics report for one figure run:
    python -m repro.bench.cli trace figure1 --scale smoke --steps \\
        --trace-out trace.json --metrics-out metrics.json

    # Live dashboard over a coordinator run publishing metrics snapshots
    # (REPRO_METRICS_OUT=/tmp/m.json in the run's environment):
    python -m repro.bench.cli top --file /tmp/m.json

Every subcommand honors ``REPRO_TRACE=1`` (enable tracing) together with
``REPRO_TRACE_OUT`` / ``REPRO_METRICS_OUT`` (write the trace and a final
metrics snapshot on exit), so existing invocations gain tracing without
flag changes.

Prints the same text report as the pytest benchmark targets; useful when
iterating on one figure without the pytest-benchmark machinery.  Every
figure run, shard, and service job executes through the same lease
coordinator; with ``--steps`` the report is bit-identical for any worker
count, granularity, cache state, two-shard ``merge``, or ``submit``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import threading
from typing import Sequence, Tuple

from repro.bench import figures
from repro.bench.reporting import (
    format_scenario_report,
    format_task_provenance,
    summarize_winners,
)
from repro.bench.runner import ScenarioResult, merge_shards, reduce_task_results, run_scenario
from repro.bench.scenario import ScenarioScale, ScenarioSpec
from repro.bench.statistics import run_figure3_statistics
from repro.bench.tasks import run_shard, write_shard


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the benchmark CLI (figure runs)."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.cli",
        description=(
            "Regenerate one figure of the paper's evaluation, or merge shard "
            "files with 'merge <shard.json>...'."
        ),
    )
    parser.add_argument(
        "figure",
        choices=sorted(figures.FIGURE_SPECS) + ["figure3"],
        help="figure identifier (figure1..figure9, ablation_rmq, ablation_alpha, zoo)",
    )
    parser.add_argument(
        "--scale",
        choices=[scale.value for scale in ScenarioScale],
        default=ScenarioScale.DEFAULT.value,
        help="experiment scale (smoke = seconds, default = minutes, paper = hours)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the scenario base seed"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "run the benchmark tasks on N worker processes (default: 1, on the "
            "calling thread; "
            "ignored by figure3, which is a single statistics run). "
            "Note: with wall-clock budgets, concurrent tasks share CPU, so "
            "medians can shift versus a sequential run; use --steps for "
            "fully deterministic parallel runs"
        ),
    )
    parser.add_argument(
        "--granularity",
        choices=["cell", "case", "auto"],
        default=None,
        help=(
            "unit of work dispatched to workers: whole grid cells, individual "
            "(cell, case, algorithm) leaf tasks, or 'auto' (the default) "
            "which picks per scenario from the task-count/worker ratio"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help=(
            "task-result cache directory: deterministic leaf results "
            "(notably DP reference frontiers) are reused across runs and "
            "figure variants"
        ),
    )
    parser.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        help=(
            "size cap for --cache-dir in megabytes: least-recently-used "
            "entries are evicted when a write exceeds the cap (default: "
            "unbounded, append-only)"
        ),
    )
    parser.add_argument(
        "--steps",
        action="store_true",
        help=(
            "run the wall-clock-free variant of the figure (iteration-count "
            "checkpoints; deterministic for any worker count or sharding)"
        ),
    )
    parser.add_argument(
        "--shard",
        type=str,
        default=None,
        metavar="K/N",
        help=(
            "execute only shard K of N of the task schedule and serialize the "
            "task results to --out as JSON for a later 'merge' invocation"
        ),
    )
    parser.add_argument(
        "--out",
        type=str,
        default=None,
        help="output path of the shard JSON (default: <figure>_shard_K_of_N.json)",
    )
    return parser


def build_merge_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``merge`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.cli merge",
        description=(
            "Merge shard JSON files written by --shard runs into the full "
            "scenario report (validates complete schedule coverage)."
        ),
    )
    parser.add_argument(
        "shards", nargs="+", help="shard JSON files (all shards of one scenario)"
    )
    return parser


def build_work_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``work`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.cli work",
        description=(
            "Attach to a running lease service and pull and execute its "
            "leases.  Runs on any machine that can reach the server."
        ),
    )
    parser.add_argument(
        "--attach",
        required=True,
        metavar="HOST:PORT",
        help="address of the lease service to attach to",
    )
    parser.add_argument(
        "--worker-id", type=str, default=None, help="worker identifier (default: auto)"
    )
    parser.add_argument(
        "--poll",
        type=float,
        default=0.1,
        help="initial idle-poll interval (backs off exponentially with jitter)",
    )
    parser.add_argument(
        "--poll-cap",
        type=float,
        default=None,
        help="idle-poll backoff cap in seconds (default: 32x --poll)",
    )
    parser.add_argument(
        "--max-batches",
        type=int,
        default=None,
        help="stop after executing this many leases (per worker)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker threads (each holds its own connection)",
    )
    parser.add_argument(
        "--drain",
        action="store_true",
        help="exit when the server reports zero live jobs "
        "(default: keep serving until killed)",
    )
    parser.add_argument(
        "--renew-interval",
        type=float,
        default=None,
        help="heartbeat the held lease every this many seconds",
    )
    return parser


def build_regress_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``regress`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.cli regress",
        description=(
            "Frontier-fingerprint regression archive: re-run the workload "
            "zoo and compare against (or update) the pinned archive."
        ),
    )
    parser.add_argument(
        "action",
        choices=["check", "record", "diff", "lint"],
        help=(
            "check: fail on any drift from the pinned archive; "
            "record: re-pin the archive from a fresh zoo run; "
            "diff: print the comparison without failing; "
            "lint: validate the pinned archive file and its zoo coverage"
        ),
    )
    parser.add_argument(
        "--archive",
        type=str,
        default="tests/regression/archive.json",
        help="pinned archive path (default: tests/regression/archive.json)",
    )
    parser.add_argument(
        "--report",
        type=str,
        default=None,
        help="also write the diff report to this file (check/diff)",
    )
    return parser


def _run_regress(argv: Sequence[str]) -> str:
    from repro.regress import diff_archives, load_archive, run_zoo, save_archive
    from repro.regress.zoo import coverage_summary, zoo_coordinates

    args = build_regress_parser().parse_args(argv)

    if args.action == "lint":
        archive = load_archive(args.archive)  # raises on any corruption
        coverage = coverage_summary(archive)
        pinned = {entry.coordinate for entry in archive.entries()}
        missing = [c for c in zoo_coordinates() if c not in pinned]
        lines = [
            f"[archive ok: {coverage['entries']} entries — "
            f"{coverage['shapes']} shapes x {coverage['stat_models']} stat "
            f"models x {coverage['algorithms']} algorithms x "
            f"{coverage['engines']} engines]"
        ]
        if missing:
            lines.append(f"{len(missing)} zoo coordinate(s) not pinned:")
            lines.extend(f"  {coordinate.label}" for coordinate in missing[:20])
            raise SystemExit("\n".join(lines))
        return "\n".join(lines)

    if args.action == "record":
        archive = run_zoo()
        save_archive(archive, args.archive)
        return f"[recorded {len(archive)} fingerprints to {args.archive}]"

    pinned = load_archive(args.archive)
    fresh = run_zoo()
    diff = diff_archives(pinned, fresh)
    report = diff.render()
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    if args.action == "check" and not diff.ok:
        raise SystemExit(report)
    return report


def build_trace_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``trace`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.cli trace",
        description=(
            "Run one figure with tracing enabled and export a Chrome "
            "trace_event JSON file (chrome://tracing, Perfetto) plus a "
            "plain-text metrics report."
        ),
    )
    parser.add_argument(
        "figure",
        choices=sorted(figures.FIGURE_SPECS),
        help="figure identifier (figure1..figure9, ablation_rmq, ablation_alpha, zoo)",
    )
    parser.add_argument(
        "--scale",
        choices=[scale.value for scale in ScenarioScale],
        default=ScenarioScale.SMOKE.value,
        help="experiment scale (default: smoke — traces grow with work done)",
    )
    parser.add_argument(
        "--steps", action="store_true", help="run the step-driven figure variant"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the scenario base seed"
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="worker count override"
    )
    parser.add_argument(
        "--granularity",
        choices=["cell", "case", "auto"],
        default=None,
        help="dispatch granularity override",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None, help="task-result cache directory"
    )
    parser.add_argument(
        "--trace-out",
        type=str,
        default=None,
        help="Chrome trace JSON output path (default: <figure>_trace.json)",
    )
    parser.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        help="also write the final metrics snapshot (JSON) to this path",
    )
    return parser


def _run_trace(argv: Sequence[str]) -> str:
    from repro.obs import (
        disable_tracing,
        enable_tracing,
        global_metrics,
        render_metrics_report,
        reset_global_metrics,
        write_chrome_trace,
        write_metrics_snapshot,
    )

    args = build_trace_parser().parse_args(argv)
    if args.workers is not None and args.workers < 1:
        raise SystemExit("--workers must be at least 1")
    spec = _resolve_figure_spec(args)
    if args.workers is not None:
        spec = dataclasses.replace(spec, workers=args.workers)
    if args.granularity is not None:
        spec = dataclasses.replace(spec, granularity=args.granularity)
    cache = None
    if args.cache_dir is not None:
        from repro.dist.cache import TaskCache

        cache = TaskCache(args.cache_dir)

    reset_global_metrics()
    tracer = enable_tracing()
    try:
        result = run_scenario(spec, cache=cache)
    finally:
        disable_tracing()
    trace_path = args.trace_out or f"{spec.name}_trace.json"
    events = write_chrome_trace(tracer, trace_path)
    snapshot = global_metrics().snapshot()
    lines = [
        format_scenario_report(result) + "\n" + summarize_winners(result),
        f"[trace: {events} event(s) written to {trace_path}]",
    ]
    if args.metrics_out is not None:
        write_metrics_snapshot(args.metrics_out, snapshot)
        lines.append(f"[metrics snapshot written to {args.metrics_out}]")
    lines.append(render_metrics_report(snapshot))
    return "\n".join(lines)


def build_top_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``top`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.cli top",
        description=(
            "Live text dashboard over coordinator metrics: tails a snapshot "
            "file published by a run with REPRO_METRICS_OUT set (or any "
            "metrics snapshot JSON) and redraws a compact summary."
        ),
    )
    parser.add_argument(
        "--file",
        type=str,
        default=None,
        help="metrics snapshot file to tail (default: $REPRO_METRICS_OUT)",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0, help="seconds between redraws"
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after this many redraws (default: run until interrupted)",
    )
    parser.add_argument(
        "--once", action="store_true", help="render the current snapshot and exit"
    )
    return parser


def _run_top(argv: Sequence[str]) -> str:
    import os

    from repro.obs import METRICS_OUT_ENV_VAR, tail_dashboard

    args = build_top_parser().parse_args(argv)
    path = args.file or os.environ.get(METRICS_OUT_ENV_VAR)
    if not path:
        raise SystemExit("top: pass --file or set REPRO_METRICS_OUT")
    if args.interval <= 0:
        raise SystemExit("--interval must be positive")
    iterations = 1 if args.once else args.iterations
    drawn = tail_dashboard(path, interval=args.interval, iterations=iterations)
    return f"[top: {drawn} snapshot(s) rendered from {path}]"


def _flush_env_outputs() -> None:
    """Honor ``REPRO_TRACE_OUT`` / ``REPRO_METRICS_OUT`` on CLI exit.

    With the ``REPRO_TRACE=1`` gate active, any figure subcommand writes
    its trace (and a final metrics snapshot) to the paths named by the
    environment — the flagless twin of ``repro trace``.
    """
    import os

    from repro.obs import (
        METRICS_OUT_ENV_VAR,
        TRACE_OUT_ENV_VAR,
        get_tracer,
        global_metrics,
        write_chrome_trace,
        write_metrics_snapshot,
    )

    trace_path = os.environ.get(TRACE_OUT_ENV_VAR)
    tracer = get_tracer()
    if trace_path and tracer.enabled:
        write_chrome_trace(tracer, trace_path)
    metrics_path = os.environ.get(METRICS_OUT_ENV_VAR)
    if metrics_path:
        write_metrics_snapshot(metrics_path, global_metrics().snapshot())


def _cache_cap_bytes(args: argparse.Namespace) -> int | None:
    """Translate ``--cache-max-mb`` into bytes (``None``: append-only)."""
    max_mb = getattr(args, "cache_max_mb", None)
    if max_mb is None:
        return None
    if getattr(args, "cache_dir", None) is None:
        raise SystemExit("--cache-max-mb requires --cache-dir")
    if max_mb <= 0:
        raise SystemExit("--cache-max-mb must be positive")
    return int(max_mb * 1024 * 1024)


def _resolve_figure_spec(args: argparse.Namespace) -> ScenarioSpec:
    """Build the scenario spec selected by figure/scale/steps/seed flags."""
    spec_map = figures.STEP_FIGURE_SPECS if args.steps else figures.FIGURE_SPECS
    spec = spec_map[args.figure](ScenarioScale(args.scale))
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    return spec


def _stop_on_signals(stop: threading.Event) -> None:
    """Make SIGTERM and SIGINT set ``stop`` instead of killing the process.

    Signal handlers can only be installed on the main thread; tests call
    :func:`run` directly from worker threads, where KeyboardInterrupt still
    applies.
    """
    import signal

    try:
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
        signal.signal(signal.SIGINT, lambda *_: stop.set())
    except ValueError:
        pass


def _run_work(argv: Sequence[str]) -> str:
    from repro.dist.service import run_service_worker

    args = build_work_parser().parse_args(argv)
    # A signal ends the worker loops cleanly, so the process pool of
    # ``--workers N`` is shut down before the process exits.
    stop = threading.Event()
    _stop_on_signals(stop)
    counters = run_service_worker(
        _parse_address(args.attach),
        workers=max(1, args.workers),
        stop=stop,
        max_leases=args.max_batches,
        poll=args.poll,
        poll_cap=args.poll_cap,
        drain=args.drain,
        use_processes=args.workers > 1,
        renew_interval=args.renew_interval,
        worker_id=args.worker_id,
    )
    return (
        f"[worker done: executed {counters['leases']} lease(s) from "
        f"{args.attach}, {counters['reconnects']} reconnect(s), "
        f"{counters['renewals']} renewal(s)]"
    )


def build_serve_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``serve`` subcommand."""
    from repro.dist.service import DEFAULT_PORT

    parser = argparse.ArgumentParser(
        prog="repro.bench.cli serve",
        description=(
            "Run the optimization service: a long-lived TCP lease server "
            "multiplexing many clients' scenario jobs over attached worker "
            "pools, with a shared task-result cache."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"bind port (0 = ephemeral; default {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--port-file",
        default=None,
        help="write 'host:port' here once listening (for scripts/CI)",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None, help="task-result cache directory"
    )
    parser.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        help="size cap for --cache-dir in megabytes (LRU; default unbounded)",
    )
    parser.add_argument(
        "--max-jobs", type=int, default=64, help="admission cap on live jobs"
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=300.0,
        help="seconds before an uncompleted lease is reassigned",
    )
    parser.add_argument(
        "--runtime",
        type=float,
        default=None,
        help="stop after this many seconds (default: run until interrupted)",
    )
    return parser


def _run_serve(argv: Sequence[str]) -> str:
    import os

    from repro.dist.cache import TaskCache
    from repro.dist.service import start_service
    from repro.obs import METRICS_OUT_ENV_VAR, global_metrics
    from repro.obs.dashboard import MetricsPublisher

    args = build_serve_parser().parse_args(argv)
    cache_cap = _cache_cap_bytes(args)
    cache = (
        TaskCache(args.cache_dir, max_bytes=cache_cap) if args.cache_dir else None
    )
    handle = start_service(
        host=args.host,
        port=args.port,
        cache=cache,
        max_jobs=args.max_jobs,
        lease_timeout=args.lease_timeout,
        metrics=global_metrics(),
    )
    host, port = handle.address
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as fh:
            fh.write(f"{host}:{port}\n")
    print(f"[service listening on {host}:{port}]", flush=True)
    stop = threading.Event()
    _stop_on_signals(stop)
    publisher = None
    metrics_path = os.environ.get(METRICS_OUT_ENV_VAR)
    if metrics_path:
        publisher = MetricsPublisher(global_metrics(), metrics_path).start()
    try:
        stop.wait(timeout=args.runtime)
    except KeyboardInterrupt:
        pass
    finally:
        if publisher is not None:
            publisher.stop()
        stats = handle.service.stats_snapshot()
        handle.stop()
    return (
        f"[service stopped: {stats['jobs_completed']} job(s) completed, "
        f"{stats['leases_granted']} lease(s) granted, "
        f"{stats['session_results']} memoized result(s)]"
    )


def build_submit_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``submit`` subcommand."""
    from repro.dist.service import DEFAULT_PORT

    parser = argparse.ArgumentParser(
        prog="repro.bench.cli submit",
        description=(
            "Submit one figure's schedule to a running lease service, wait "
            "for the reduced result, and print the scenario report."
        ),
    )
    parser.add_argument(
        "figure",
        choices=sorted(figures.FIGURE_SPECS),
        help="figure identifier (figure1..figure9, ablation_rmq, ablation_alpha, zoo)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="service host")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="service port"
    )
    parser.add_argument(
        "--scale",
        choices=[scale.value for scale in ScenarioScale],
        default=ScenarioScale.DEFAULT.value,
        help="experiment scale",
    )
    parser.add_argument(
        "--steps", action="store_true", help="run the step-driven figure variant"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the scenario base seed"
    )
    parser.add_argument(
        "--granularity",
        choices=["cell", "case", "auto"],
        default=None,
        help="lease size: whole cells, single leaves, or 'auto' (default)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="give up after this many seconds without the full result",
    )
    return parser


def _run_submit(argv: Sequence[str]) -> str:
    from repro.dist.service import submit_scenario

    args = build_submit_parser().parse_args(argv)
    spec = _resolve_figure_spec(args)
    results, info = submit_scenario(
        (args.host, args.port),
        spec,
        granularity=args.granularity,
        timeout=args.timeout,
    )
    result = ScenarioResult(spec=spec, cells=reduce_task_results(spec, results))
    header = (
        f"[service {args.host}:{args.port}: job {info['job']}, "
        f"{info['scheduled']} scheduled, {info['cache_hits']} cache hit(s), "
        f"{info['deferred']} deferred, {info['injected']} injected]\n"
    )
    return header + format_scenario_report(result) + "\n" + summarize_winners(result)


def _parse_address(value: str) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` service address."""
    host, _, port_text = value.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not host or not 0 < port < 65536:
        raise SystemExit(f"expected HOST:PORT (e.g. 127.0.0.1:7963), got {value!r}")
    return host, port


def _parse_shard(value: str) -> Tuple[int, int]:
    """Parse a ``K/N`` shard designator."""
    try:
        index_text, count_text = value.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise SystemExit(f"--shard must look like K/N (e.g. 0/2), got {value!r}")
    if count < 1 or not 0 <= index < count:
        raise SystemExit(f"--shard needs 0 <= K < N, got {value!r}")
    return index, count


def run(argv: Sequence[str] | None = None) -> str:
    """Run the selected subcommand and return the text report.

    Honors the ``REPRO_TRACE=1`` environment gate on every subcommand (see
    :func:`repro.obs.configure_from_env`); traces and final metrics
    snapshots flush to ``REPRO_TRACE_OUT`` / ``REPRO_METRICS_OUT`` on exit.
    """
    from repro.obs import configure_from_env

    configure_from_env()
    try:
        return _run_dispatch(list(sys.argv[1:] if argv is None else argv))
    finally:
        _flush_env_outputs()


def _run_dispatch(argv: list) -> str:
    """Run the selected figure (or subcommand) and return the text report."""
    if argv and argv[0] == "merge":
        merge_args = build_merge_parser().parse_args(argv[1:])
        result = merge_shards(merge_args.shards)
        return format_scenario_report(result) + "\n" + summarize_winners(result)
    if argv and argv[0] == "work":
        return _run_work(argv[1:])
    if argv and argv[0] == "serve":
        return _run_serve(argv[1:])
    if argv and argv[0] == "submit":
        return _run_submit(argv[1:])
    if argv and argv[0] == "regress":
        return _run_regress(argv[1:])
    if argv and argv[0] == "trace":
        return _run_trace(argv[1:])
    if argv and argv[0] == "top":
        return _run_top(argv[1:])

    args = build_parser().parse_args(argv)
    scale = ScenarioScale(args.scale)
    if args.workers is not None and args.workers < 1:
        raise SystemExit("--workers must be at least 1")

    if args.figure == "figure3":
        if args.shard is not None or args.steps:
            raise SystemExit("figure3 is a single statistics run; no --shard/--steps")
        if scale is ScenarioScale.PAPER:
            table_counts, cases, iterations = (10, 25, 50, 75, 100), 20, 20
        elif scale is ScenarioScale.DEFAULT:
            table_counts, cases, iterations = (10, 25, 50), 3, 8
        else:
            table_counts, cases, iterations = (6, 10, 15), 2, 4
        kwargs = dict(
            table_counts=table_counts,
            num_test_cases=cases,
            iterations_per_case=iterations,
        )
        if args.seed is not None:
            kwargs["seed"] = args.seed
        return run_figure3_statistics(**kwargs).format_report()

    spec = _resolve_figure_spec(args)
    if args.workers is not None:
        spec = dataclasses.replace(spec, workers=args.workers)
    if args.granularity is not None:
        spec = dataclasses.replace(spec, granularity=args.granularity)
    cache = None
    cache_cap = _cache_cap_bytes(args)  # validates --cache-max-mb usage
    if args.cache_dir is not None:
        from repro.dist.cache import TaskCache

        cache = TaskCache(args.cache_dir, max_bytes=cache_cap)

    if args.shard is not None:
        # The task cache is not wired through shard runs; refuse the
        # combination instead of silently ignoring the flag.
        if args.cache_dir is not None:
            raise SystemExit("--cache-dir is not supported with --shard")
        index, count = _parse_shard(args.shard)
        results = run_shard(
            spec, index, count, workers=spec.workers, granularity=spec.granularity
        )
        out_path = args.out or f"{spec.name}_shard_{index}_of_{count}.json"
        write_shard(out_path, spec, index, count, results)
        return (
            format_task_provenance(results)
            + f"\n[shard {index}/{count}: {len(results)} task results "
            + f"written to {out_path}]"
        )

    result = run_scenario(spec, cache=cache)
    return format_scenario_report(result) + "\n" + summarize_winners(result)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    print(run(argv))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
