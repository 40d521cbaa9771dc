"""Optimization as a service: the asyncio TCP lease transport.

The remote wire for the lease lifecycle (the local one is the in-memory
:class:`~repro.dist.coordinator.Coordinator` itself): a long-lived
:class:`LeaseService` that turns the coordinator from a batch scheduler
into a network service.  Dispatch is a message round-trip, so lease
latency is bounded by the network, not by poll intervals.

Topology::

    submit clients ──┐                       ┌── persistent workers
    (ServiceClient,  │   length-prefixed     │   (run_service_worker /
     submit_scenario)│   JSON/binary frames  │    RemoteLeaseTransport,
                     ▼                       ▼    ``work --attach``)
                ┌──────────────────────────────────┐
                │ LeaseService (asyncio TCP server) │
                │  · one Coordinator per live job   │
                │  · multi-tenant dedup router      │
                │  · shared TaskCache (+ raw bytes) │
                │  · admission control/backpressure │
                └──────────────────────────────────┘

**Framing.**  Every frame is a 5-byte header — 4-byte big-endian payload
length + 1-byte kind — followed by the payload.  Kind 0 is a UTF-8 JSON
object (all control messages); kind 1 is opaque bytes, used for packed
:class:`~repro.dist.shm.SubsetEffects` payloads moving through the shared
cache's raw-bytes tier (``cache_put`` / ``cache_get``), so binary DP
effects never pay a JSON round-trip.  Frames above ``MAX_FRAME_BYTES``
are refused and the connection closed — a half-written or garbage header
cannot wedge the server.

**Multi-tenant dedup.**  Each ``submit`` builds one ``Coordinator`` over
the shared :class:`~repro.dist.cache.TaskCache` (disk hits never enter
the queue).  On top of that, the service routes *in-flight* overlap: a
deterministic leaf another live job is already executing is **deferred**
(withheld from the queue) and completed by injection when the first
copy's result arrives; a server-lifetime memo resolves leaves that
completed earlier in the process.  Two clients submitting the same
figure variant concurrently therefore lease each deterministic leaf at
most once between them — and a warm re-submit leases zero.

**Fault model.**  Worker connections hold leases; a dropped connection
fails its leases immediately (requeued, no timeout wait), heartbeat
renewals keep long leases alive, and all the coordinator's lifecycle
guarantees (expiry, late/duplicate completions, validation, straggler
splits) apply unchanged — so service-backed runs are bit-identical to
sequential runs on step-driven specs no matter what the wire does.

The server runs its asyncio loop on a daemon thread
(:func:`start_service`), so tests and the ``serve`` CLI share one code
path.  Clients and workers are synchronous socket code: workers are
threads built on :class:`RemoteLeaseTransport`, reconnecting with
jittered exponential backoff, attaching and detaching at runtime.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import struct
import threading
import time
import uuid
from concurrent.futures import Executor, ProcessPoolExecutor
from concurrent.futures import Future as SyncFuture
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.bench.scenario import ScenarioSpec
from repro.bench.tasks import (
    TaskResult,
    TaskSpec,
    _execute_task_group,
    _execute_task_group_metered,
    schedule_tasks,
    task_is_deterministic,
    task_provenance_hash,
)
from repro.dist.cache import TaskCache
from repro.dist.coordinator import (
    DEFAULT_LEASE_TIMEOUT,
    Coordinator,
    LeaseValidationError,
)
from repro.dist.transport import (
    ExponentialBackoff,
    Lease,
    LeaseRenewer,
    LeaseTransport,
)
from repro.obs import get_tracer, global_metrics
from repro.obs.metrics import Metrics

#: Version tag spoken in the hello/welcome handshake.
PROTOCOL_FORMAT = "repro-lease-service-v1"

#: Default TCP port of the ``serve`` subcommand (0 = ephemeral).
DEFAULT_PORT = 7963

#: Hard cap on one frame's payload — refuse anything larger.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Frame kinds.
KIND_JSON = 0
KIND_BYTES = 1

#: 4-byte big-endian payload length + 1-byte kind.
_HEADER = struct.Struct(">IB")

#: Longest server-side long-poll for one lease request (clients re-ask).
MAX_LEASE_WAIT = 30.0

#: Longest server-side wait slice for one ``wait`` request.
MAX_WAIT_SLICE = 30.0


class FrameError(ValueError):
    """A malformed, oversized, or unexpected frame."""


class ServiceBusyError(RuntimeError):
    """The service refused a submission (admission control) past the deadline."""


class ServiceError(RuntimeError):
    """The service replied with an error frame."""


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------
def encode_frame(kind: int, payload: bytes) -> bytes:
    """One wire frame: header + payload."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame payload of {len(payload)} bytes exceeds cap")
    return _HEADER.pack(len(payload), kind) + payload


def encode_json_frame(message: Dict[str, Any]) -> bytes:
    return encode_frame(
        KIND_JSON, json.dumps(message, separators=(",", ":")).encode("utf-8")
    )


async def _read_frame(
    reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
) -> Tuple[int, bytes]:
    """Read one frame; raises ``IncompleteReadError`` on EOF/half frames."""
    header = await reader.readexactly(_HEADER.size)
    length, kind = _HEADER.unpack(header)
    if kind not in (KIND_JSON, KIND_BYTES):
        raise FrameError(f"unknown frame kind {kind}")
    if length > max_bytes:
        raise FrameError(f"frame of {length} bytes exceeds the {max_bytes} cap")
    payload = await reader.readexactly(length) if length else b""
    return kind, payload


class FrameSocket:
    """Blocking client side of the frame protocol (thread-safe requests).

    One request/response exchange at a time: the lock spans send *and*
    receive so a heartbeat thread's ``renew`` can interleave safely with
    the owning thread's RPCs.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._lock = threading.RLock()
        self._file = sock.makefile("rb")

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def _recv_frame(self) -> Tuple[int, bytes]:
        header = self._file.read(_HEADER.size)
        if header is None or len(header) < _HEADER.size:
            raise ConnectionError("connection closed mid-frame")
        length, kind = _HEADER.unpack(header)
        if kind not in (KIND_JSON, KIND_BYTES):
            raise FrameError(f"unknown frame kind {kind}")
        if length > MAX_FRAME_BYTES:
            raise FrameError(f"frame of {length} bytes exceeds cap")
        payload = self._file.read(length) if length else b""
        if payload is None or len(payload) < length:
            raise ConnectionError("connection closed mid-frame")
        return kind, payload

    def send_raw(self, data: bytes) -> None:
        """Ship pre-encoded bytes verbatim (fault-injection seam)."""
        with self._lock:
            self._sock.sendall(data)

    def request(
        self,
        message: Dict[str, Any],
        payload: Optional[bytes] = None,
    ) -> Tuple[Dict[str, Any], Optional[bytes]]:
        """One RPC: send a JSON frame (+ optional bytes frame), read the reply.

        Returns ``(reply, data)`` where ``data`` is the bytes frame that
        follows replies flagged with ``"binary": true``.  Error replies
        raise :class:`ServiceError`.
        """
        with self._lock:
            self._sock.sendall(encode_json_frame(message))
            if payload is not None:
                self._sock.sendall(encode_frame(KIND_BYTES, payload))
            kind, raw = self._recv_frame()
            if kind != KIND_JSON:
                raise FrameError("expected a JSON reply frame")
            reply = json.loads(raw.decode("utf-8"))
            data: Optional[bytes] = None
            if reply.get("binary"):
                kind, data = self._recv_frame()
                if kind != KIND_BYTES:
                    raise FrameError("expected a bytes frame after the reply")
            if reply.get("type") == "error":
                if reply.get("validation"):
                    # The transport contract: a completion that does not
                    # match its lease raises LeaseValidationError.
                    raise LeaseValidationError(
                        reply.get("message", "lease validation failed")
                    )
                raise ServiceError(reply.get("message", "service error"))
            return reply, data


def connect(
    address: Tuple[str, int],
    timeout: float = 60.0,
    role: str = "client",
    peer_id: Optional[str] = None,
) -> FrameSocket:
    """Open a frame connection and perform the hello/welcome handshake."""
    sock = socket.create_connection(address, timeout=timeout)
    sock.settimeout(timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    frames = FrameSocket(sock)
    try:
        welcome, _ = frames.request(
            {
                "type": "hello",
                "format": PROTOCOL_FORMAT,
                "role": role,
                "peer": peer_id or f"{role}-{os.getpid()}-{uuid.uuid4().hex[:6]}",
            }
        )
    except BaseException:
        frames.close()
        raise
    if welcome.get("format") != PROTOCOL_FORMAT:
        frames.close()
        raise ServiceError(
            f"server speaks {welcome.get('format')!r}, not {PROTOCOL_FORMAT!r}"
        )
    return frames


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------
class _Job:
    """One live submission: its coordinator, owner, and completion event."""

    __slots__ = (
        "job_id",
        "coordinator",
        "owner",
        "done_event",
        "det_hashes",
        "submitted_at",
    )

    def __init__(
        self,
        job_id: str,
        coordinator: Coordinator,
        owner: str,
        det_hashes: Dict[TaskSpec, str],
        submitted_at: float,
    ) -> None:
        self.job_id = job_id
        self.coordinator = coordinator
        self.owner = owner
        self.done_event = asyncio.Event()
        #: Provenance hash of every deterministic task in the schedule.
        self.det_hashes = det_hashes
        self.submitted_at = submitted_at


class _Connection:
    """Per-connection state: held leases and owned jobs."""

    __slots__ = ("conn_id", "peer", "role", "held", "jobs")

    def __init__(self, conn_id: str) -> None:
        self.conn_id = conn_id
        self.peer = conn_id
        self.role = "client"
        #: ``(job_id, lease_id)`` pairs this connection currently holds.
        self.held: Set[Tuple[str, str]] = set()
        #: Job ids submitted over this connection.
        self.jobs: Set[str] = set()


class LeaseService:
    """The multi-tenant lease server (runs on an asyncio loop thread).

    One :class:`Coordinator` per live job, a shared
    :class:`~repro.dist.cache.TaskCache`, and the cross-job dedup router
    (see the module docstring).  All router state is touched only on the
    loop thread; coordinators are internally thread-safe.

    Parameters
    ----------
    cache:
        Shared task cache all jobs resolve against (optional).
    lease_timeout:
        Default lease lifetime; per-submit override allowed.
    max_jobs / max_jobs_per_client:
        Admission control: beyond these, ``submit`` is rejected with a
        ``retry_after`` hint (bounded per-client backpressure).
    workers_hint:
        Lease-sizing hint handed to each job's coordinator.
    metrics:
        Metrics registry (default: the process-global one).  Lifecycle
        counters land under ``coordinator.*.tcp``; service counters
        under ``service.*``.
    """

    def __init__(
        self,
        cache: Optional[TaskCache] = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_jobs: int = 64,
        max_jobs_per_client: int = 8,
        workers_hint: int = 4,
        granularity: Optional[str] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        metrics: Optional[Metrics] = None,
        retry_after: float = 0.05,
    ) -> None:
        self.cache = cache
        self.lease_timeout = lease_timeout
        self.max_jobs = max_jobs
        self.max_jobs_per_client = max_jobs_per_client
        self.workers_hint = workers_hint
        self.granularity = granularity
        self.max_frame_bytes = max_frame_bytes
        self.retry_after = retry_after
        self._metrics = metrics if metrics is not None else global_metrics()
        self._jobs: Dict[str, _Job] = {}
        #: Server-lifetime memo: provenance hash -> deterministic result.
        self._session_results: Dict[str, TaskResult] = {}
        #: Provenance hash -> job id currently executing that leaf.
        self._inflight: Dict[str, str] = {}
        #: Provenance hash -> jobs waiting for an injection of that leaf.
        self._waiters: Dict[str, List[Tuple[str, TaskSpec]]] = {}
        self._job_counter = 0
        self._conn_counter = 0
        self._lease_cursor = 0
        self._work_event: Optional[asyncio.Event] = None
        #: Serializes defer-decision -> coordinator build -> registration.
        #: Without it two overlapping submits both observe an empty
        #: ``_inflight`` while parked on their executor awaits and lease
        #: duplicate deterministic leaves.
        self._submit_lock = asyncio.Lock()
        self._closing = False

    # ------------------------------------------------------------- helpers
    def _count(self, key: str, value: int = 1) -> None:
        self._metrics.add(f"service.{key}", value)

    def _notify_work(self) -> None:
        if self._work_event is not None:
            self._work_event.set()

    def stats_snapshot(self) -> Dict[str, Any]:
        """Router counts for the ``stats`` RPC and the CLI summary."""
        return {
            "jobs_live": len(self._jobs),
            "session_results": len(self._session_results),
            "inflight": len(self._inflight),
            "jobs_submitted": self._metrics.counter("service.jobs.submitted"),
            "jobs_completed": self._metrics.counter("service.jobs.completed"),
            "jobs_rejected": self._metrics.counter("service.jobs.rejected"),
            "jobs_aborted": self._metrics.counter("service.jobs.aborted"),
            "leases_granted": self._metrics.counter("service.leases.granted"),
            "deferred_injected": self._metrics.counter("service.injected"),
            "connections": self._metrics.counter("service.connections"),
        }

    # ---------------------------------------------------------- connection
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_counter += 1
        conn = _Connection(f"C{self._conn_counter}")
        self._count("connections")
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("service.connect", conn=conn.conn_id)
        try:
            while True:
                try:
                    kind, payload = await _read_frame(reader, self.max_frame_bytes)
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    return  # clean (or abrupt) disconnect
                except FrameError:
                    self._count("frame_errors")
                    await self._reply(
                        writer, {"type": "error", "message": "bad frame"}
                    )
                    return
                if kind != KIND_JSON:
                    self._count("frame_errors")
                    await self._reply(
                        writer,
                        {"type": "error", "message": "expected a JSON frame"},
                    )
                    return
                try:
                    message = json.loads(payload.decode("utf-8"))
                    if not isinstance(message, dict):
                        raise ValueError("not an object")
                except ValueError:
                    self._count("frame_errors")
                    await self._reply(
                        writer, {"type": "error", "message": "bad JSON frame"}
                    )
                    return
                try:
                    keep_open = await self._dispatch(conn, message, reader, writer)
                except (ConnectionError, OSError):
                    return
                except asyncio.CancelledError:
                    # Server shutdown cancels handlers parked on long-poll
                    # waits; the client sees a closed connection, which its
                    # reconnect loop already handles.
                    return
                if not keep_open:
                    return
        finally:
            self._cleanup_connection(conn)
            self._count("disconnects")
            if tracer.enabled:
                tracer.event("service.disconnect", conn=conn.conn_id)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError lands here when the server itself is
                # shutting down mid-close; swallowing it at the very end
                # of the handler is safe (nothing left to unwind).
                pass

    async def _reply(
        self,
        writer: asyncio.StreamWriter,
        message: Dict[str, Any],
        payload: Optional[bytes] = None,
    ) -> None:
        if payload is not None:
            message = dict(message)
            message["binary"] = True
        writer.write(encode_json_frame(message))
        if payload is not None:
            writer.write(encode_frame(KIND_BYTES, payload))
        await writer.drain()

    async def _dispatch(
        self,
        conn: _Connection,
        message: Dict[str, Any],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Handle one request; returns False to close the connection."""
        mtype = message.get("type")
        if mtype == "hello":
            conn.role = str(message.get("role", "client"))
            conn.peer = str(message.get("peer", conn.conn_id))
            await self._reply(
                writer,
                {
                    "type": "welcome",
                    "format": PROTOCOL_FORMAT,
                    "conn": conn.conn_id,
                },
            )
        elif mtype == "ping":
            await self._reply(writer, {"type": "pong"})
        elif mtype == "submit":
            await self._handle_submit(conn, message, writer)
        elif mtype == "wait":
            await self._handle_wait(conn, message, writer)
        elif mtype == "lease":
            await self._handle_lease(conn, message, writer)
        elif mtype == "job_spec":
            await self._handle_job_spec(message, writer)
        elif mtype == "complete":
            await self._handle_complete(conn, message, writer)
        elif mtype == "renew":
            await self._handle_renew(message, writer)
        elif mtype == "fail":
            await self._handle_fail(conn, message, writer)
        elif mtype == "cache_put":
            return await self._handle_cache_put(message, reader, writer)
        elif mtype == "cache_get":
            await self._handle_cache_get(message, writer)
        elif mtype == "stats":
            await self._reply(
                writer, {"type": "stats", "stats": self.stats_snapshot()}
            )
        else:
            await self._reply(
                writer,
                {"type": "error", "message": f"unknown request type {mtype!r}"},
            )
        return True

    # ------------------------------------------------------------- submit
    async def _handle_submit(
        self,
        conn: _Connection,
        message: Dict[str, Any],
        writer: asyncio.StreamWriter,
    ) -> None:
        live_owned = sum(1 for job_id in conn.jobs if job_id in self._jobs)
        if self._closing or len(self._jobs) >= self.max_jobs:
            self._count("jobs.rejected")
            await self._reply(
                writer,
                {
                    "type": "rejected",
                    "reason": "closing" if self._closing else "busy",
                    "retry_after": self.retry_after,
                },
            )
            return
        if live_owned >= self.max_jobs_per_client:
            self._count("jobs.rejected")
            await self._reply(
                writer,
                {
                    "type": "rejected",
                    "reason": "client_busy",
                    "retry_after": self.retry_after,
                },
            )
            return
        try:
            spec = ScenarioSpec.from_json_dict(message["spec"])
        except (KeyError, TypeError, ValueError) as exc:
            await self._reply(
                writer, {"type": "error", "message": f"bad spec: {exc}"}
            )
            return
        self._job_counter += 1
        job_id = f"J{self._job_counter}"
        loop = asyncio.get_running_loop()
        started = time.monotonic()
        schedule, det_hashes = await loop.run_in_executor(
            None, _schedule_and_hash, spec
        )
        lease_timeout = float(message.get("lease_timeout") or self.lease_timeout)
        granularity = message.get("granularity") or self.granularity

        # The defer decision, coordinator build, and router registration
        # must be atomic with respect to *other submits*: the executor
        # await inside would otherwise let a concurrent submit read the
        # same (pre-registration) ``_inflight`` and lease duplicate
        # leaves.  Completions still interleave freely — the reconcile
        # loop below absorbs results that land mid-construction.
        async with self._submit_lock:
            defer = {
                task
                for task, digest in det_hashes.items()
                if digest in self._session_results or digest in self._inflight
            }

            def _build() -> Coordinator:
                return Coordinator(
                    spec,
                    tasks=schedule,
                    workers_hint=self.workers_hint,
                    granularity=granularity,
                    cache=self.cache,
                    lease_timeout=lease_timeout,
                    deferred=defer,
                    transport_label="tcp",
                    metrics=self._metrics,
                )

            try:
                coordinator = await loop.run_in_executor(None, _build)
            except (ValueError, OSError) as exc:
                await self._reply(
                    writer, {"type": "error", "message": f"submit failed: {exc}"}
                )
                return
            job = _Job(job_id, coordinator, conn.conn_id, det_hashes, started)
            injected = 0
            for task in coordinator.deferred_tasks:
                digest = det_hashes[task]
                memo = self._session_results.get(digest)
                if memo is not None:
                    if coordinator.inject_result(task, memo):
                        injected += 1
                        self._count("injected")
                    continue
                owner = self._inflight.get(digest)
                if owner is not None and owner in self._jobs:
                    self._waiters.setdefault(digest, []).append((job_id, task))
                else:
                    # The in-flight owner died while we were constructing.
                    coordinator.requeue_deferred([task])
                    self._inflight[digest] = job_id
            for task in coordinator.scheduled_tasks:
                digest = det_hashes.get(task)
                if digest is not None and digest not in self._inflight:
                    self._inflight[digest] = job_id
            self._jobs[job_id] = job
            conn.jobs.add(job_id)
        self._count("jobs.submitted")
        self._metrics.observe(
            "service.submit_seconds", time.monotonic() - started
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "service.submit",
                job=job_id,
                scheduled=len(coordinator.scheduled_tasks),
                deferred=len(coordinator.deferred_tasks),
            )
        if coordinator.done:
            self._finish_job(job)
        self._notify_work()
        await self._reply(
            writer,
            {
                "type": "accepted",
                "job": job_id,
                "tasks": len(schedule),
                "scheduled": len(coordinator.scheduled_tasks),
                "cache_hits": coordinator.stats["cache_hits"],
                "deferred": len(coordinator.deferred_tasks),
                "injected": injected,
                "granularity": coordinator.granularity,
            },
        )

    def _finish_job(self, job: _Job) -> None:
        if not job.done_event.is_set():
            job.done_event.set()
            self._count("jobs.completed")
            self._metrics.observe(
                "service.job_seconds", time.monotonic() - job.submitted_at
            )

    # --------------------------------------------------------------- wait
    async def _handle_wait(
        self,
        conn: _Connection,
        message: Dict[str, Any],
        writer: asyncio.StreamWriter,
    ) -> None:
        job = self._jobs.get(str(message.get("job")))
        if job is None:
            await self._reply(
                writer, {"type": "error", "message": "unknown job"}
            )
            return
        slice_seconds = min(
            float(message.get("timeout", MAX_WAIT_SLICE)), MAX_WAIT_SLICE
        )
        try:
            await asyncio.wait_for(job.done_event.wait(), timeout=slice_seconds)
        except asyncio.TimeoutError:
            await self._reply(writer, {"type": "pending", "job": job.job_id})
            return
        results = job.coordinator.results()
        stats = job.coordinator.stats
        # The job is over: release it (its inflight entries resolved on
        # completion; anything left promotes to a waiter or is dropped).
        self._release_job(job.job_id)
        conn.jobs.discard(job.job_id)
        await self._reply(
            writer,
            {
                "type": "done",
                "job": job.job_id,
                "results": [result.to_json_dict() for result in results],
                "stats": stats,
                "granularity": job.coordinator.granularity,
            },
        )

    # -------------------------------------------------------------- lease
    def _try_grant(
        self, conn: _Connection, worker: str
    ) -> Optional[Dict[str, Any]]:
        jobs = list(self._jobs.items())
        if not jobs:
            return None
        count = len(jobs)
        for offset in range(count):
            job_id, job = jobs[(self._lease_cursor + offset) % count]
            lease = job.coordinator.request_lease(worker)
            if lease is None:
                continue
            self._lease_cursor = (self._lease_cursor + offset + 1) % count
            conn.held.add((job_id, lease.lease_id))
            self._count("leases.granted")
            return {
                "type": "granted",
                "job": job_id,
                "lease": lease.lease_id,
                "deadline": lease.deadline,
                "attempt": lease.attempt,
                "tasks": [task.to_json_dict() for task in lease.tasks],
            }
        return None

    async def _handle_lease(
        self,
        conn: _Connection,
        message: Dict[str, Any],
        writer: asyncio.StreamWriter,
    ) -> None:
        worker = str(message.get("worker") or conn.peer)
        wait = min(float(message.get("wait", 0.0)), MAX_LEASE_WAIT)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + wait
        while True:
            grant = self._try_grant(conn, worker)
            if grant is not None:
                await self._reply(writer, grant)
                return
            remaining = deadline - loop.time()
            if remaining <= 0 or self._work_event is None:
                self._count("leases.idle")
                await self._reply(
                    writer, {"type": "idle", "jobs": len(self._jobs)}
                )
                return
            self._work_event.clear()
            grant = self._try_grant(conn, worker)  # re-check after clear
            if grant is not None:
                await self._reply(writer, grant)
                return
            try:
                await asyncio.wait_for(
                    self._work_event.wait(), timeout=remaining
                )
            except asyncio.TimeoutError:
                pass

    async def _handle_job_spec(
        self, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        job = self._jobs.get(str(message.get("job")))
        if job is None:
            await self._reply(writer, {"type": "error", "message": "unknown job"})
            return
        await self._reply(
            writer,
            {
                "type": "spec",
                "job": job.job_id,
                "spec": job.coordinator.spec.to_json_dict(),
            },
        )

    # ----------------------------------------------------------- complete
    async def _handle_complete(
        self,
        conn: _Connection,
        message: Dict[str, Any],
        writer: asyncio.StreamWriter,
    ) -> None:
        job_id = str(message.get("job"))
        lease_id = str(message.get("lease"))
        job = self._jobs.get(job_id)
        conn.held.discard((job_id, lease_id))
        if job is None:
            # The owning client left mid-run; the work is wasted but the
            # worker is fine — tell it so it can move on.
            await self._reply(
                writer, {"type": "completed", "accepted": False, "job_gone": True}
            )
            return
        try:
            results = [
                TaskResult.from_json_dict(entry)
                for entry in message.get("results", ())
            ]
        except (KeyError, TypeError, ValueError) as exc:
            await self._reply(
                writer, {"type": "error", "message": f"bad results: {exc}"}
            )
            return
        loop = asyncio.get_running_loop()
        try:
            # complete_lease validates coverage and writes the shared
            # cache; run it off-loop so cache IO never stalls the server.
            accepted = await loop.run_in_executor(
                None, job.coordinator.complete_lease, lease_id, results
            )
        except LeaseValidationError as exc:
            await self._reply(
                writer,
                {"type": "error", "message": str(exc), "validation": True},
            )
            return
        self._publish_results(job, results)
        if job.coordinator.done:
            self._finish_job(job)
        self._notify_work()
        await self._reply(writer, {"type": "completed", "accepted": accepted})

    def _publish_results(self, job: _Job, results: Sequence[TaskResult]) -> None:
        """Feed completed leaves to the memo, waiters, and inflight table."""
        for result in results:
            digest = job.det_hashes.get(result.task)
            if digest is None:
                continue  # non-deterministic leaf: never shared
            if digest not in self._session_results:
                self._session_results[digest] = result
            self._inflight.pop(digest, None)
            for waiter_id, task in self._waiters.pop(digest, ()):  # noqa: B020
                waiter = self._jobs.get(waiter_id)
                if waiter is None:
                    continue
                if waiter.coordinator.inject_result(task, result):
                    self._count("injected")
                if waiter.coordinator.done:
                    self._finish_job(waiter)

    async def _handle_renew(
        self, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        job = self._jobs.get(str(message.get("job")))
        renewed = (
            job is not None
            and job.coordinator.renew_lease(str(message.get("lease")))
        )
        await self._reply(writer, {"type": "renewed", "ok": bool(renewed)})

    async def _handle_fail(
        self,
        conn: _Connection,
        message: Dict[str, Any],
        writer: asyncio.StreamWriter,
    ) -> None:
        job_id = str(message.get("job"))
        lease_id = str(message.get("lease"))
        conn.held.discard((job_id, lease_id))
        job = self._jobs.get(job_id)
        if job is not None:
            try:
                job.coordinator.fail_lease(lease_id)
            except LeaseValidationError:
                pass
            self._notify_work()
        await self._reply(writer, {"type": "failed", "ok": job is not None})

    # -------------------------------------------------------- cache bytes
    async def _handle_cache_put(
        self,
        message: Dict[str, Any],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """``cache_put`` + following bytes frame → shared raw-bytes tier."""
        try:
            kind, payload = await _read_frame(reader, self.max_frame_bytes)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return False
        except FrameError:
            self._count("frame_errors")
            await self._reply(writer, {"type": "error", "message": "bad frame"})
            return False
        if kind != KIND_BYTES:
            await self._reply(
                writer,
                {"type": "error", "message": "cache_put expects a bytes frame"},
            )
            return False
        key = str(message.get("key", ""))
        if self.cache is None or not key:
            await self._reply(writer, {"type": "cache_stored", "stored": False})
            return True
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(
                None, self.cache.put_raw_bytes, key, payload
            )
        except (ValueError, OSError) as exc:
            await self._reply(
                writer, {"type": "error", "message": f"cache_put failed: {exc}"}
            )
            return True
        self._count("cache.bytes_put")
        self._metrics.add("service.cache.bytes_in", len(payload))
        await self._reply(writer, {"type": "cache_stored", "stored": True})
        return True

    async def _handle_cache_get(
        self, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        key = str(message.get("key", ""))
        payload: Optional[bytes] = None
        if self.cache is not None and key:
            loop = asyncio.get_running_loop()
            try:
                payload = await loop.run_in_executor(
                    None, self.cache.get_raw_bytes, key
                )
            except (ValueError, OSError):
                payload = None
        if payload is None:
            self._count("cache.bytes_miss")
            await self._reply(writer, {"type": "cache_miss", "key": key})
        else:
            self._count("cache.bytes_hit")
            self._metrics.add("service.cache.bytes_out", len(payload))
            await self._reply(
                writer, {"type": "cache_hit", "key": key}, payload=payload
            )

    # ------------------------------------------------------------ cleanup
    def _release_job(self, job_id: str) -> None:
        """Drop a job, promoting its in-flight claims to waiting jobs."""
        job = self._jobs.pop(job_id, None)
        if job is None:
            return
        for digest, owner in list(self._inflight.items()):
            if owner != job_id:
                continue
            del self._inflight[digest]
            queue = self._waiters.get(digest)
            while queue:
                waiter_id, task = queue.pop(0)
                waiter = self._jobs.get(waiter_id)
                if waiter is None:
                    continue
                if waiter.coordinator.requeue_deferred([task]):
                    self._inflight[digest] = waiter_id
                break
            if not self._waiters.get(digest):
                self._waiters.pop(digest, None)
        for digest in list(self._waiters):
            queue = [
                entry for entry in self._waiters[digest] if entry[0] != job_id
            ]
            if queue:
                self._waiters[digest] = queue
            else:
                del self._waiters[digest]

    def _cleanup_connection(self, conn: _Connection) -> None:
        """Fail held leases and abort owned jobs of a dropped connection."""
        for job_id, lease_id in list(conn.held):
            job = self._jobs.get(job_id)
            if job is None:
                continue
            try:
                job.coordinator.fail_lease(lease_id)
            except LeaseValidationError:
                pass
        conn.held.clear()
        for job_id in list(conn.jobs):
            job = self._jobs.get(job_id)
            if job is None:
                continue
            if not job.done_event.is_set():
                self._count("jobs.aborted")
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.event("service.job.aborted", job=job_id)
            self._release_job(job_id)
        conn.jobs.clear()
        self._notify_work()

    # -------------------------------------------------------------- serve
    async def _sweep_loop(self) -> None:
        """Surface lease expiries even while no worker is asking."""
        interval = max(0.05, min(self.lease_timeout / 4.0, 5.0))
        while True:
            await asyncio.sleep(interval)
            reclaimed = 0
            for job in list(self._jobs.values()):
                reclaimed += job.coordinator.reclaim_expired()
            if reclaimed:
                self._notify_work()

    async def _serve_main(
        self,
        host: str,
        port: int,
        started: "SyncFuture[Tuple[str, int]]",
    ) -> None:
        loop = asyncio.get_running_loop()
        self._work_event = asyncio.Event()
        self._stop_future: asyncio.Future = loop.create_future()
        try:
            server = await asyncio.start_server(
                self._handle_connection, host, port
            )
        except OSError as exc:
            started.set_exception(exc)
            return
        sockname = server.sockets[0].getsockname()
        sweeper = asyncio.create_task(self._sweep_loop())
        started.set_result((sockname[0], sockname[1]))
        try:
            async with server:
                await self._stop_future
        finally:
            self._closing = True
            sweeper.cancel()

    def request_stop(self) -> None:
        """Thread-safe stop trigger (the handle calls this)."""
        loop = getattr(self, "_loop", None)
        if loop is None:
            return

        def _stop() -> None:
            if not self._stop_future.done():
                self._stop_future.set_result(None)

        loop.call_soon_threadsafe(_stop)


class ServiceHandle:
    """A running service: its address and a stop switch.

    Usable as a context manager::

        with start_service(port=0) as handle:
            results, info = submit_scenario(handle.address, spec)
    """

    def __init__(
        self, service: LeaseService, address: Tuple[str, int], thread: threading.Thread
    ) -> None:
        self.service = service
        self.address = address
        self._thread = thread

    @property
    def host(self) -> str:
        return self.address[0]

    @property
    def port(self) -> int:
        return self.address[1]

    def stop(self, timeout: float = 10.0) -> None:
        """Stop accepting work, close connections, join the loop thread."""
        self.service.request_stop()
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def start_service(
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs: Any,
) -> ServiceHandle:
    """Start a :class:`LeaseService` on a daemon thread; returns its handle.

    ``port=0`` binds an ephemeral port — read it back from
    ``handle.address``.  Keyword arguments are forwarded to
    :class:`LeaseService`.
    """
    service = LeaseService(**kwargs)
    started: "SyncFuture[Tuple[str, int]]" = SyncFuture()

    def _run() -> None:
        loop = asyncio.new_event_loop()
        service._loop = loop
        try:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(service._serve_main(host, port, started))
            # Give cancelled handler tasks one final cycle to unwind.
            pending = [
                task for task in asyncio.all_tasks(loop) if not task.done()
            ]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    thread = threading.Thread(target=_run, name="repro-lease-service", daemon=True)
    thread.start()
    address = started.result(timeout=30.0)
    return ServiceHandle(service, address, thread)


def _schedule_and_hash(
    spec: ScenarioSpec,
) -> Tuple[List[TaskSpec], Dict[TaskSpec, str]]:
    """A spec's schedule plus the provenance hash of each deterministic leaf."""
    schedule = schedule_tasks(spec)
    det_hashes = {
        task: task_provenance_hash(spec, task)
        for task in schedule
        if task_is_deterministic(spec, task)
    }
    return schedule, det_hashes


# ---------------------------------------------------------------------------
# Submit clients
# ---------------------------------------------------------------------------
class ServiceClient:
    """Synchronous submit/wait/cache client for one service connection."""

    def __init__(
        self,
        address: Tuple[str, int],
        timeout: float = 60.0,
        client_id: Optional[str] = None,
    ) -> None:
        self.address = (address[0], int(address[1]))
        self._frames = connect(
            self.address, timeout=timeout, role="client", peer_id=client_id
        )

    def close(self) -> None:
        self._frames.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def submit(
        self,
        spec: ScenarioSpec,
        granularity: Optional[str] = None,
        lease_timeout: Optional[float] = None,
        timeout: Optional[float] = 120.0,
    ) -> Dict[str, Any]:
        """Submit a scenario, retrying (with backoff) while the server is busy.

        Returns the ``accepted`` reply (job id + dedup accounting).
        Raises :class:`ServiceBusyError` when admission control still
        refuses at the deadline.
        """
        message: Dict[str, Any] = {"type": "submit", "spec": spec.to_json_dict()}
        if granularity is not None:
            message["granularity"] = granularity
        if lease_timeout is not None:
            message["lease_timeout"] = lease_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        backoff = ExponentialBackoff(0.02, 1.0)
        while True:
            reply, _ = self._frames.request(message)
            if reply.get("type") == "accepted":
                return reply
            if reply.get("type") != "rejected":
                raise ServiceError(f"unexpected submit reply: {reply!r}")
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceBusyError(
                    f"service at {self.address} still busy after {timeout}s "
                    f"({reply.get('reason')})"
                )
            time.sleep(max(float(reply.get("retry_after", 0.0)), backoff.next()))

    def wait(
        self, job: str, timeout: Optional[float] = None, slice_seconds: float = 5.0
    ) -> Tuple[List[TaskResult], Dict[str, Any]]:
        """Block until ``job`` finishes; returns (results, stats)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            reply, _ = self._frames.request(
                {"type": "wait", "job": job, "timeout": slice_seconds}
            )
            if reply.get("type") == "done":
                results = [
                    TaskResult.from_json_dict(entry) for entry in reply["results"]
                ]
                return results, reply.get("stats", {})
            if reply.get("type") != "pending":
                raise ServiceError(f"unexpected wait reply: {reply!r}")
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"job {job} not done after {timeout}s")

    def run(
        self,
        spec: ScenarioSpec,
        granularity: Optional[str] = None,
        lease_timeout: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[List[TaskResult], Dict[str, Any]]:
        """Submit and wait; returns (results, submit-info + job stats)."""
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("service.client.run", host=self.address[0]):
                return self._run(spec, granularity, lease_timeout, timeout)
        return self._run(spec, granularity, lease_timeout, timeout)

    def _run(
        self,
        spec: ScenarioSpec,
        granularity: Optional[str],
        lease_timeout: Optional[float],
        timeout: Optional[float],
    ) -> Tuple[List[TaskResult], Dict[str, Any]]:
        info = self.submit(
            spec, granularity=granularity, lease_timeout=lease_timeout,
            timeout=timeout,
        )
        results, stats = self.wait(info["job"], timeout=timeout)
        info = dict(info)
        info["stats"] = stats
        return results, info

    def cache_put_bytes(self, key: str, payload: bytes) -> bool:
        """Store opaque bytes (e.g. packed SubsetEffects) in the shared cache."""
        reply, _ = self._frames.request(
            {"type": "cache_put", "key": key}, payload=payload
        )
        return bool(reply.get("stored"))

    def cache_get_bytes(self, key: str) -> Optional[bytes]:
        """Fetch opaque bytes from the shared cache (``None`` on miss)."""
        reply, data = self._frames.request({"type": "cache_get", "key": key})
        if reply.get("type") == "cache_hit":
            return data
        return None

    def server_stats(self) -> Dict[str, Any]:
        reply, _ = self._frames.request({"type": "stats"})
        return reply.get("stats", {})


def submit_scenario(
    address: Tuple[str, int],
    spec: ScenarioSpec,
    granularity: Optional[str] = None,
    lease_timeout: Optional[float] = None,
    timeout: Optional[float] = None,
    client_id: Optional[str] = None,
) -> Tuple[List[TaskResult], Dict[str, Any]]:
    """One-shot submit+wait against a running service.

    Returns ``(task results in schedule order, info)`` where ``info``
    carries the job id, dedup accounting (``scheduled`` / ``cache_hits``
    / ``deferred`` / ``injected``), and the job's coordinator stats.
    """
    with ServiceClient(address, client_id=client_id) as client:
        return client.run(
            spec,
            granularity=granularity,
            lease_timeout=lease_timeout,
            timeout=timeout,
        )


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------
class RemoteLeaseTransport(LeaseTransport):
    """Worker-side lease endpoint over one TCP connection.

    Lease ids are ``<job>/<lease>`` composites so one transport can hold
    leases of many jobs at once.  Job specs are fetched once and cached.
    ``wait_for_work`` long-polls the server (bounded), stashing a granted
    lease for the next ``request_lease`` call, so idle workers cost one
    parked connection instead of a poll storm.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        worker_id: Optional[str] = None,
        timeout: float = 60.0,
    ) -> None:
        self.worker_id = (
            worker_id or f"tcp-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        )
        self._frames = connect(
            (address[0], int(address[1])),
            timeout=timeout,
            role="worker",
            peer_id=self.worker_id,
        )
        self._specs: Dict[str, ScenarioSpec] = {}
        self._prefetched: Optional[Lease] = None
        self._lease_jobs: Dict[str, str] = {}
        self._idle_jobs = 1  # assume live until the server says otherwise

    def close(self) -> None:
        self._frames.close()

    # -- plumbing
    def _request_lease_rpc(self, worker_id: str, wait: float) -> Optional[Lease]:
        reply, _ = self._frames.request(
            {"type": "lease", "worker": worker_id, "wait": wait}
        )
        if reply.get("type") == "idle":
            self._idle_jobs = int(reply.get("jobs", 0))
            return None
        if reply.get("type") != "granted":
            raise ServiceError(f"unexpected lease reply: {reply!r}")
        job_id = str(reply["job"])
        lease_id = f"{job_id}/{reply['lease']}"
        tasks = tuple(
            TaskSpec.from_json_dict(entry) for entry in reply["tasks"]
        )
        self._lease_jobs[lease_id] = job_id
        return Lease(
            lease_id=lease_id,
            worker_id=worker_id,
            tasks=tasks,
            deadline=float(reply.get("deadline", 0.0)),
            attempt=int(reply.get("attempt", 1)),
        )

    def _split(self, lease_id: str) -> Tuple[str, str]:
        job_id, _, remote_id = lease_id.partition("/")
        if not remote_id:
            raise LeaseValidationError(f"malformed lease id {lease_id!r}")
        return job_id, remote_id

    # -- LeaseTransport
    def request_lease(self, worker_id: str) -> Optional[Lease]:
        if self._prefetched is not None:
            lease, self._prefetched = self._prefetched, None
            return lease
        return self._request_lease_rpc(worker_id, wait=0.0)

    def complete_lease(
        self, lease_id: str, results: Sequence[TaskResult]
    ) -> bool:
        job_id, remote_id = self._split(lease_id)
        reply, _ = self._frames.request(
            {
                "type": "complete",
                "job": job_id,
                "lease": remote_id,
                "results": [result.to_json_dict() for result in results],
            }
        )
        self._lease_jobs.pop(lease_id, None)
        if reply.get("type") != "completed":
            raise ServiceError(f"unexpected complete reply: {reply!r}")
        return bool(reply.get("accepted"))

    def renew_lease(self, lease_id: str) -> bool:
        job_id, remote_id = self._split(lease_id)
        reply, _ = self._frames.request(
            {"type": "renew", "job": job_id, "lease": remote_id}
        )
        return bool(reply.get("ok"))

    def fail_lease(self, lease_id: str) -> None:
        job_id, remote_id = self._split(lease_id)
        self._lease_jobs.pop(lease_id, None)
        self._frames.request({"type": "fail", "job": job_id, "lease": remote_id})

    def wait_for_work(self, timeout: float) -> bool:
        lease = self._request_lease_rpc(
            self.worker_id, wait=min(max(timeout, 0.0), MAX_LEASE_WAIT)
        )
        if lease is not None:
            self._prefetched = lease
        return self.done

    @property
    def done(self) -> bool:
        """No live jobs on the server (as of the last idle reply)."""
        return self._prefetched is None and self._idle_jobs == 0

    def spec_for_lease(self, lease: Lease) -> ScenarioSpec:
        job_id = self._lease_jobs.get(lease.lease_id)
        if job_id is None:
            job_id, _ = self._split(lease.lease_id)
        spec = self._specs.get(job_id)
        if spec is None:
            reply, _ = self._frames.request({"type": "job_spec", "job": job_id})
            if reply.get("type") != "spec":
                raise ServiceError(f"unexpected job_spec reply: {reply!r}")
            spec = ScenarioSpec.from_json_dict(reply["spec"])
            self._specs[job_id] = spec
        return spec


def _service_worker_loop(
    address: Tuple[str, int],
    worker_id: str,
    stop: threading.Event,
    max_leases: Optional[int],
    poll: float,
    poll_cap: float,
    reconnect_initial: float,
    reconnect_cap: float,
    drain: bool,
    executor: Optional[Executor],
    renew_interval: Optional[float],
    on_lease: Optional[Callable[[Lease], None]],
    counters: Dict[str, int],
) -> None:
    """One persistent worker thread: attach, serve, reconnect on failure."""
    reconnect = ExponentialBackoff(reconnect_initial, reconnect_cap)
    completed = 0
    while not stop.is_set() and (max_leases is None or completed < max_leases):
        try:
            transport = RemoteLeaseTransport(address, worker_id=worker_id)
        except (OSError, ConnectionError, ServiceError):
            counters["reconnects"] = counters.get("reconnects", 0) + 1
            if stop.wait(reconnect.next()):
                return
            continue
        reconnect.reset()
        idle = ExponentialBackoff(poll, poll_cap)
        try:
            while not stop.is_set() and (
                max_leases is None or completed < max_leases
            ):
                lease = transport.request_lease(worker_id)
                if lease is None:
                    if drain and transport.done:
                        return
                    # Long-poll server-side: the connection parks on the
                    # server's work event instead of spinning here.
                    transport.wait_for_work(idle.next())
                    continue
                idle.reset()
                if on_lease is not None:
                    # The fault-injection seam: raising here simulates a
                    # worker dying between claim and result — the socket
                    # drops (see the ``finally``) and the server fails the
                    # lease immediately, requeueing its group.
                    try:
                        on_lease(lease)
                    except BaseException:
                        counters["died"] = counters.get("died", 0) + 1
                        return
                spec = transport.spec_for_lease(lease)
                renewer = (
                    LeaseRenewer(
                        _remote_renew(transport, lease.lease_id), renew_interval
                    )
                    if renew_interval is not None
                    else None
                )
                try:
                    if renewer is not None:
                        renewer.start()
                    if executor is not None:
                        results, snapshot = executor.submit(
                            _execute_task_group_metered, spec, list(lease.tasks)
                        ).result()
                        global_metrics().merge_snapshot(snapshot)
                    else:
                        results = _execute_task_group(spec, list(lease.tasks))
                finally:
                    if renewer is not None:
                        renewer.stop()
                        counters["renewals"] = (
                            counters.get("renewals", 0) + renewer.renewals
                        )
                transport.complete_lease(lease.lease_id, results)
                completed += 1
                counters["leases"] = counters.get("leases", 0) + 1
        except (OSError, ConnectionError, FrameError, ServiceError, EOFError):
            counters["reconnects"] = counters.get("reconnects", 0) + 1
            if stop.wait(reconnect.next()):
                return
        finally:
            transport.close()


def _remote_renew(transport: RemoteLeaseTransport, lease_id: str):
    """Bind one remote lease's renewal to a heartbeat callable."""
    return lambda: transport.renew_lease(lease_id)


def _default_signal_actions() -> None:
    """Pool initializer: give SIGTERM and SIGINT their interpreter defaults.

    A forked pool process inherits the handlers a caller installed to stop
    the worker loops (the ``work`` subcommand does); in the pool process
    they would only set its own copy of the stop event, so it could no
    longer be terminated by a signal once its parent is gone.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)


def run_service_worker(
    address: Tuple[str, int],
    workers: int = 1,
    stop: Optional[threading.Event] = None,
    max_leases: Optional[int] = None,
    poll: float = 0.05,
    poll_cap: Optional[float] = 2.0,
    reconnect_initial: float = 0.1,
    reconnect_cap: float = 5.0,
    drain: bool = False,
    use_processes: bool = False,
    renew_interval: Optional[float] = None,
    on_lease: Optional[Callable[[Lease], None]] = None,
    worker_id: Optional[str] = None,
) -> Dict[str, int]:
    """Attach a persistent worker pool to a service; blocks until stopped.

    Starts ``workers`` threads, each with its own connection, executing
    leases in-thread (or on a shared process pool with
    ``use_processes=True``).  Workers reconnect with jittered exponential
    backoff when the server goes away and park on server-side long-polls
    while idle — attach/detach at any time, in any order.

    Returns the counter dict (``leases``, ``reconnects``, ``renewals``,
    ``died`` — all keys always present).
    ``drain=True`` exits once the server reports zero live jobs (tests,
    benchmarks); the default serves until ``stop`` is set or
    ``max_leases`` leases completed *per worker*.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if poll_cap is None:
        poll_cap = max(poll, poll * 32.0)
    stop = stop if stop is not None else threading.Event()
    prefix = worker_id or f"tcp-{os.getpid()}-{uuid.uuid4().hex[:4]}"
    per_thread: List[Dict[str, int]] = [{} for _ in range(workers)]
    executor: Optional[Executor] = None
    pool: Optional[ProcessPoolExecutor] = None
    if use_processes:
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_default_signal_actions
        )
        executor = pool
    threads = [
        threading.Thread(
            target=_service_worker_loop,
            args=(
                (address[0], int(address[1])),
                f"{prefix}-{index}",
                stop,
                max_leases,
                poll,
                poll_cap,
                reconnect_initial,
                reconnect_cap,
                drain,
                executor,
                renew_interval,
                on_lease,
                per_thread[index],
            ),
            name=f"repro-service-worker-{index}",
            daemon=True,
        )
        for index in range(workers)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    counters: Dict[str, int] = {
        "leases": 0, "reconnects": 0, "renewals": 0, "died": 0
    }
    for partial in per_thread:
        for key, value in partial.items():
            counters[key] = counters.get(key, 0) + value
    return counters
