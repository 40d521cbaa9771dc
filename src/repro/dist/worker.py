"""Local workers driving a :class:`~repro.dist.coordinator.Coordinator`.

A :class:`Worker` is a thread in the coordinator's process that pulls
leases and executes them — in-process for a single worker, or by
submitting the lease's task group to a shared ``ProcessPoolExecutor`` so
that leases run truly in parallel.  :func:`run_coordinated` wires the
standard topology together (coordinator + N workers + pool); it is the one
in-process dispatcher behind :func:`repro.bench.runner.run_scenario` and
:func:`repro.bench.tasks.run_shard`.

Every worker :func:`run_coordinated` starts heartbeats its lease while it
executes, so a healthy lease is never reclaimed however long its leaves
run; expiry only ever reclaims the leases of workers that stopped.

Fault model: a worker that raises mid-lease simply stops completing it —
its thread records the error and exits, the lease expires, and the
coordinator reassigns the group to a surviving worker.  Tests inject
exactly this through the ``on_lease`` hook.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence

from repro.bench.scenario import ScenarioSpec
from repro.bench.tasks import (
    TaskResult,
    TaskSpec,
    _execute_task_group,
    _execute_task_group_metered,
)
from repro.dist.cache import TaskCache
from repro.dist.coordinator import DEFAULT_LEASE_TIMEOUT, Coordinator, Lease
from repro.dist.transport import LeaseRenewer, LeaseTransport
from repro.obs import METRICS_OUT_ENV_VAR, get_tracer, global_metrics
from repro.obs.dashboard import MetricsPublisher


#: Heartbeats per lease timeout: a :func:`run_coordinated` worker renews its
#: lease every ``lease_timeout / RENEWALS_PER_LEASE_TIMEOUT`` seconds, so a
#: healthy lease survives one missed heartbeat.
RENEWALS_PER_LEASE_TIMEOUT = 3


def _renew_callback(transport: "LeaseTransport", lease_id: str):
    """Bind one lease's renewal to a zero-argument heartbeat callable."""
    return lambda: transport.renew_lease(lease_id)

# ----------------------------------------------------- shared process pool
# One persistent ProcessPoolExecutor shared by successive run_coordinated
# calls: at micro scale the per-run fork + warm-up of a fresh pool used to
# exceed the work itself, which is exactly the regression BENCH_dp.json
# recorded for the coordinator backend.  The pool is replaced (after a
# deterministic shutdown) when a caller needs more workers, torn down on
# worker-thread error paths, and reaped at interpreter exit.
_POOL_LOCK = threading.Lock()
_SHARED_POOL: Optional[ProcessPoolExecutor] = None
_SHARED_POOL_WORKERS = 0


def shared_process_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent process pool, grown to at least ``workers`` workers."""
    global _SHARED_POOL, _SHARED_POOL_WORKERS
    with _POOL_LOCK:
        if _SHARED_POOL is None or _SHARED_POOL_WORKERS < workers:
            if _SHARED_POOL is not None:
                _SHARED_POOL.shutdown(wait=True, cancel_futures=True)
            _SHARED_POOL = ProcessPoolExecutor(max_workers=workers)
            _SHARED_POOL_WORKERS = workers
        return _SHARED_POOL


def shutdown_shared_pool() -> None:
    """Deterministically shut the shared pool down (idempotent).

    Called on every ``run_coordinated`` error path — a raised worker error
    must not strand pool processes — and registered via ``atexit`` for
    normal interpreter shutdown.
    """
    global _SHARED_POOL, _SHARED_POOL_WORKERS
    with _POOL_LOCK:
        if _SHARED_POOL is not None:
            _SHARED_POOL.shutdown(wait=True, cancel_futures=True)
            _SHARED_POOL = None
            _SHARED_POOL_WORKERS = 0


atexit.register(shutdown_shared_pool)


class Worker(threading.Thread):
    """One lease-pulling worker thread.

    Drains any :class:`~repro.dist.transport.LeaseTransport` — the
    in-memory :class:`Coordinator` or the TCP service's
    :class:`~repro.dist.service.RemoteLeaseTransport` — the loop only
    speaks the transport's message vocabulary.

    Parameters
    ----------
    worker_id:
        Identifier recorded on every lease this worker holds.
    transport:
        The lease transport to pull leases from (historically always a
        :class:`Coordinator`).
    executor:
        Optional executor; when given, lease groups are submitted to it
        (one lease = one submission) instead of executing on this thread.
    poll:
        Seconds to wait between queue checks when no lease is pending.
    on_lease:
        Optional hook called with every granted :class:`Lease` before
        execution — the fault-injection seam used by the tests (raising
        here simulates a worker dying mid-lease).
    renew_interval:
        Optional heartbeat period in seconds: while a lease executes, a
        :class:`~repro.dist.transport.LeaseRenewer` thread extends its
        deadline every that-many seconds, so lease timeouts can be much
        shorter than the slowest healthy lease.
    """

    def __init__(
        self,
        worker_id: str,
        transport: "LeaseTransport",
        executor: Optional[Executor] = None,
        poll: float = 0.05,
        on_lease: Optional[Callable[[Lease], None]] = None,
        renew_interval: Optional[float] = None,
    ) -> None:
        super().__init__(name=f"repro-dist-{worker_id}", daemon=True)
        self.worker_id = worker_id
        self.error: Optional[BaseException] = None
        self.completed_leases = 0
        self._transport = transport
        self._executor = executor
        self._poll = poll
        self._on_lease = on_lease
        self._renew_interval = renew_interval

    def run(self) -> None:  # pragma: no cover - thin wrapper around drain()
        try:
            self.drain()
        except BaseException as exc:
            self.error = exc

    def drain(self) -> int:
        """Pull and execute leases until the transport is done.

        Returns the number of leases this worker completed.  Runs on the
        calling thread — ``start()`` runs it on the worker thread instead.
        """
        transport = self._transport
        while True:
            lease = transport.request_lease(self.worker_id)
            if lease is None:
                if transport.done:
                    return self.completed_leases
                transport.wait_for_work(self._poll)
                continue
            if self._on_lease is not None:
                self._on_lease(lease)
            try:
                spec = transport.spec_for_lease(lease)
                renewer = (
                    LeaseRenewer(
                        _renew_callback(transport, lease.lease_id),
                        self._renew_interval,
                    )
                    if self._renew_interval is not None
                    else None
                )
                try:
                    if renewer is not None:
                        renewer.start()
                    tracer = get_tracer()
                    if tracer.enabled:
                        with tracer.span(
                            "worker.lease",
                            lease_id=lease.lease_id,
                            worker=self.worker_id,
                            tasks=len(lease.tasks),
                        ):
                            results = self._execute(spec, list(lease.tasks))
                    else:
                        results = self._execute(spec, list(lease.tasks))
                finally:
                    if renewer is not None:
                        renewer.stop()
                transport.complete_lease(lease.lease_id, results)
            except BaseException:
                # An execution failure hands the lease back immediately
                # instead of waiting out the lease timeout.  Deliberately
                # *not* done for ``on_lease`` errors above: that hook
                # simulates a worker dying silently, and the tests pin the
                # resulting expiry/reassignment behaviour.
                try:
                    transport.fail_lease(lease.lease_id)
                except Exception:
                    pass
                raise
            self.completed_leases += 1

    def _execute(
        self, spec: ScenarioSpec, tasks: List[TaskSpec]
    ) -> List[TaskResult]:
        if self._executor is None:
            return _execute_task_group(spec, tasks)
        # Process-pool dispatch ships the worker process's metrics snapshot
        # back piggybacked on the lease results; folding is deterministic
        # (order-independent merges), so driver totals match a sequential
        # run no matter which lease lands first.
        results, snapshot = self._executor.submit(
            _execute_task_group_metered, spec, tasks
        ).result()
        global_metrics().merge_snapshot(snapshot)
        return results


def run_coordinated(
    spec: ScenarioSpec,
    workers: int = 1,
    granularity: Optional[str] = None,
    cache: Optional[TaskCache] = None,
    tasks: Optional[Sequence[TaskSpec]] = None,
) -> Coordinator:
    """Execute a scenario's schedule through a coordinator with local workers.

    ``tasks`` restricts the run to a subset of the schedule (a ``--shard``
    slice); by default the whole schedule runs.  ``workers == 1`` drains
    the queue on the calling thread (no pool); ``workers > 1`` starts that
    many worker threads sharing the persistent :func:`shared_process_pool`.
    The pool outlives the call, so repeated micro-scale runs pay the fork +
    warm-up cost once; every error path shuts it down deterministically
    before raising.  Each worker renews its lease every
    ``1/RENEWALS_PER_LEASE_TIMEOUT`` of the lease timeout while executing.
    Returns the finished coordinator; call ``results()`` for the task
    results in schedule order.  Raises the first worker error when the run
    could not finish.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    lease_timeout = DEFAULT_LEASE_TIMEOUT
    renew_interval = lease_timeout / RENEWALS_PER_LEASE_TIMEOUT
    coordinator = Coordinator(
        spec,
        tasks=tasks,
        workers_hint=workers,
        granularity=granularity,
        cache=cache,
        lease_timeout=lease_timeout,
        metrics=global_metrics(),
    )
    # A live dashboard (``repro top``) tails the file named by
    # REPRO_METRICS_OUT; publish the global registry there during the run.
    publisher: Optional[MetricsPublisher] = None
    metrics_path = os.environ.get(METRICS_OUT_ENV_VAR)
    if metrics_path:
        publisher = MetricsPublisher(global_metrics(), metrics_path).start()
    try:
        if workers == 1:
            Worker("worker-0", coordinator, renew_interval=renew_interval).drain()
        else:
            try:
                pool = shared_process_pool(workers)
                threads = [
                    Worker(
                        f"worker-{index}",
                        coordinator,
                        executor=pool,
                        renew_interval=renew_interval,
                    )
                    for index in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            except BaseException:
                shutdown_shared_pool()
                raise
            if not coordinator.done:
                shutdown_shared_pool()
                errors = [
                    thread.error for thread in threads if thread.error is not None
                ]
                if errors:
                    raise errors[0]
                raise RuntimeError("coordinator run ended with incomplete tasks")
    finally:
        if publisher is not None:
            publisher.stop()
    return coordinator
