"""A ``repro top``-style live text dashboard over metrics snapshots.

The driver side periodically persists the global registry to a JSON file
(:class:`MetricsPublisher`, atomic writes); ``repro top --file <path>``
tails that file and redraws a compact text dashboard
(:func:`tail_dashboard`).  Rendering is a pure function of one snapshot
(:func:`render_dashboard`), so tests never need a live coordinator.

Examples
--------
>>> from repro.obs.metrics import Metrics
>>> metrics = Metrics()
>>> _ = metrics.add("coordinator.completed", 7)
>>> _ = metrics.add("cache.hits", 3)
>>> _ = metrics.add("cache.misses", 1)
>>> print(render_dashboard(metrics.snapshot()))  # doctest: +ELLIPSIS
repro top — coordinator metrics
===============================
leases      completed=7 scheduled=0 expired=0 split=0 failed=0 inflight=0
cache       hits=3 misses=1 hit-rate=75.0% evictions=0
...
"""

from __future__ import annotations

import json
import sys
import time
from typing import IO, Callable, List, Optional

from repro.obs.metrics import METRICS_SNAPSHOT_FORMAT, Histogram, Metrics
from repro.obs.export import write_metrics_snapshot

__all__ = [
    "MetricsPublisher",
    "render_dashboard",
    "tail_dashboard",
]


def _rate(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole else "n/a"


def _histogram_cell(payload: Optional[dict]) -> str:
    if not payload:
        return "n/a"
    histogram = Histogram.from_dict(payload)
    if histogram.count == 0:
        return "n/a"
    return (
        f"n={histogram.count} mean={histogram.mean:.4g}s "
        f"max={histogram.max:.4g}s"
    )


def render_dashboard(snapshot: dict) -> str:
    """One metrics snapshot as a compact coordinator dashboard (pure).

    Missing names render as zeros, so the dashboard degrades gracefully on
    partial runs (e.g. a scenario run without the DP: no shm rows beyond zeros).
    """
    if snapshot.get("format") != METRICS_SNAPSHOT_FORMAT:
        raise ValueError(
            f"foreign metrics snapshot (format={snapshot.get('format')!r})"
        )
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    histograms = snapshot["histograms"]

    def counter(name: str) -> int:
        return int(counters.get(name, 0))

    scheduled = counter("coordinator.scheduled")
    completed = counter("coordinator.completed")
    inflight = max(0, scheduled - completed - counter("coordinator.failed_leases"))
    hits = counter("cache.hits")
    misses = counter("cache.misses")
    title = "repro top — coordinator metrics"
    lines: List[str] = [title, "=" * len(title)]
    lines.append(
        "leases      "
        f"completed={completed} scheduled={scheduled} "
        f"expired={counter('coordinator.reassignments')} "
        f"split={counter('coordinator.splits')} "
        f"failed={counter('coordinator.failed_leases')} "
        f"inflight={inflight}"
    )
    lines.append(
        "cache       "
        f"hits={hits} misses={misses} hit-rate={_rate(hits, hits + misses)} "
        f"evictions={counter('cache.evictions')}"
    )
    lines.append(
        "cache bytes "
        f"read={counter('cache.bytes_read')} "
        f"written={counter('cache.bytes_written')} "
        f"corrupt={counter('cache.corrupt_entries')}"
    )
    lines.append(
        "dp          "
        f"candidates={counter('dp.candidates')} "
        f"subset-hits={counter('dp.subset_cache_hits')} "
        f"subset-misses={counter('dp.subset_cache_misses')}"
    )
    lines.append(
        "frontier    "
        f"accepted={counter('frontier.accepted')} "
        f"rejected={counter('frontier.rejected')} "
        f"evicted={counter('frontier.evicted')} "
        f"rows={int(gauges.get('frontier.rows', 0))}"
    )
    lines.append(
        "shm         "
        f"flushes={counter('shm.flushes')} "
        f"bytes-published={counter('shm.bytes_published')} "
        f"segment-growths={counter('shm.segment_growths')}"
    )
    lines.append(
        "lease lat   " + _histogram_cell(histograms.get("coordinator.lease_seconds"))
    )
    return "\n".join(lines)


def tail_dashboard(
    path: str,
    interval: float = 1.0,
    iterations: Optional[int] = None,
    stream: Optional[IO[str]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Tail a published snapshot file, redrawing the dashboard each tick.

    ``iterations=None`` runs until interrupted (``repro top``); tests pass
    a small count plus an injected ``sleep``.  Returns the number of
    renders actually drawn (a missing or partially-written file yields a
    waiting line, not a crash).
    """
    out = stream if stream is not None else sys.stdout
    drawn = 0
    tick = 0
    while iterations is None or tick < iterations:
        tick += 1
        try:
            with open(path, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
        except (OSError, ValueError):
            out.write(f"(waiting for metrics at {path})\n")
        else:
            try:
                out.write(render_dashboard(snapshot) + "\n")
                drawn += 1
            except ValueError as exc:
                out.write(f"(unreadable snapshot: {exc})\n")
        out.flush()
        if iterations is None or tick < iterations:
            sleep(interval)
    return drawn


class MetricsPublisher:
    """Periodically persist a registry to a JSON file for ``repro top``.

    A daemon thread snapshots ``metrics`` every ``interval`` seconds and
    writes atomically, so a concurrent tailer only ever reads complete
    JSON.  ``stop()`` performs one final write; usable as a context
    manager.
    """

    def __init__(self, metrics: Metrics, path: str, interval: float = 0.5) -> None:
        import threading

        self._metrics = metrics
        self._path = path
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-metrics-publisher", daemon=True
        )
        self.writes = 0

    def _publish(self) -> None:
        write_metrics_snapshot(self._path, self._metrics.snapshot())
        self.writes += 1

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._publish()

    def start(self) -> "MetricsPublisher":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and write one final, complete snapshot."""
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._publish()

    def __enter__(self) -> "MetricsPublisher":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
