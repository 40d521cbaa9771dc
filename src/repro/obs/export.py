"""Exporters: Chrome ``trace_event`` JSON and plain-text metrics reports.

The trace exporter renders a :class:`~repro.obs.tracer.Tracer`'s records
as the JSON object format of the Chrome trace-event specification (a
``traceEvents`` array plus metadata), loadable in ``chrome://tracing`` and
Perfetto.  :func:`validate_chrome_trace` checks a payload against the
subset of the schema the library emits — the CI ``obs-smoke`` job runs it
on a real coordinator trace.

The metrics exporter renders a snapshot dict
(:meth:`~repro.obs.metrics.Metrics.snapshot`) as an aligned text report,
and :func:`write_metrics_snapshot` persists snapshots atomically (temp
file + ``os.replace``) so a concurrently tailing dashboard only ever reads
complete JSON.

Examples
--------
>>> from repro.obs.metrics import Metrics
>>> metrics = Metrics()
>>> _ = metrics.add("cache.hits", 3)
>>> print(render_metrics_report(metrics.snapshot()))
== counters ==
cache.hits                                                    3
"""

from __future__ import annotations

import json
from typing import List, Union

from repro.obs.metrics import METRICS_SNAPSHOT_FORMAT, Histogram
from repro.obs.tracer import Tracer
from repro.utils.atomic import write_atomic

__all__ = [
    "CHROME_TRACE_FORMAT",
    "chrome_trace_payload",
    "render_metrics_report",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_json_atomic",
    "write_metrics_snapshot",
]

#: Format tag recorded in the trace payload's ``otherData``.
CHROME_TRACE_FORMAT = "repro-chrome-trace-v1"

#: Event phases the library emits: complete spans and instant events.
_EMITTED_PHASES = ("X", "i")


def write_json_atomic(path: str, payload: dict) -> None:
    """Write a JSON file atomically (see :func:`repro.utils.atomic.write_atomic`).

    Values JSON cannot encode are written as their ``str()``, so a snapshot
    never fails on an exotic label or argument.
    """
    write_atomic(path, (json.dumps(payload, default=str) + "\n").encode("utf-8"))


# --------------------------------------------------------------- chrome trace
def chrome_trace_payload(tracer: Tracer) -> dict:
    """A tracer's records as a Chrome trace-event JSON object."""
    return {
        "traceEvents": tracer.events(),
        "displayTimeUnit": "ms",
        "otherData": {"format": CHROME_TRACE_FORMAT},
    }


def write_chrome_trace(tracer_or_payload: Union[Tracer, dict], path: str) -> int:
    """Write a Chrome trace JSON file; returns the number of events."""
    if isinstance(tracer_or_payload, Tracer):
        payload = chrome_trace_payload(tracer_or_payload)
    else:
        payload = tracer_or_payload
    write_json_atomic(path, payload)
    return len(payload["traceEvents"])


def validate_chrome_trace(payload: dict) -> List[str]:
    """Validate a trace payload against the emitted trace-event schema.

    Returns a list of human-readable problems (empty = valid).  Checks the
    JSON-object envelope, the per-event required keys of the Chrome
    trace-event format (``name``/``ph``/``ts``/``pid``/``tid``, ``dur`` on
    complete events, scope on instant events), and JSON-serializability of
    the whole payload.
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be a JSON object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["payload['traceEvents'] must be a list"]
    for position, event in enumerate(events):
        label = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            errors.append(f"{label}: not an object")
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                errors.append(f"{label}: missing required key {key!r}")
        phase = event.get("ph")
        if phase not in _EMITTED_PHASES:
            errors.append(f"{label}: unexpected phase {phase!r}")
        if phase == "X" and not isinstance(event.get("dur"), (int, float)):
            errors.append(f"{label}: complete event without numeric 'dur'")
        if phase == "i" and event.get("s") not in ("t", "p", "g"):
            errors.append(f"{label}: instant event without a valid scope 's'")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"{label}: 'ts' must be numeric")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            errors.append(f"{label}: 'args' must be an object")
    try:
        json.dumps(payload, default=str)
    except (TypeError, ValueError) as exc:
        errors.append(f"payload is not JSON-serializable: {exc}")
    return errors


# --------------------------------------------------------------- metrics text
def _format_histogram_line(name: str, payload: dict) -> str:
    histogram = Histogram.from_dict(payload)
    if histogram.count == 0:
        return f"{name:<48} count=0"
    return (
        f"{name:<48} count={histogram.count} mean={histogram.mean:.6g} "
        f"min={histogram.min:.6g} max={histogram.max:.6g}"
    )


def render_metrics_report(snapshot: dict) -> str:
    """A metrics snapshot as an aligned plain-text report.

    Sections (counters / gauges / histograms) appear only when non-empty;
    names are sorted, so the report is deterministic for a given snapshot.
    """
    if snapshot.get("format") != METRICS_SNAPSHOT_FORMAT:
        raise ValueError(
            f"foreign metrics snapshot (format={snapshot.get('format')!r})"
        )
    lines: List[str] = []
    counters = snapshot["counters"]
    if counters:
        lines.append("== counters ==")
        for name in sorted(counters):
            lines.append(f"{name:<48} {counters[name]:>14}")
    gauges = snapshot["gauges"]
    if gauges:
        if lines:
            lines.append("")
        lines.append("== gauges ==")
        for name in sorted(gauges):
            lines.append(f"{name:<48} {gauges[name]:>14.6g}")
    histograms = snapshot["histograms"]
    if histograms:
        if lines:
            lines.append("")
        lines.append("== histograms ==")
        for name in sorted(histograms):
            lines.append(_format_histogram_line(name, histograms[name]))
    return "\n".join(lines) if lines else "(no metrics recorded)"


def write_metrics_snapshot(path: str, snapshot: dict) -> None:
    """Persist a snapshot atomically (dashboards tail this file)."""
    write_json_atomic(path, snapshot)
