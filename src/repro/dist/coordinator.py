"""The coordinator: dynamic, fault-tolerant scheduling of the task graph.

A :class:`Coordinator` owns one scenario's pending leaf tasks and hands
them out as time-limited **leases** (one lease = one group of tasks under
the resolved granularity — whole cells or single leaves, chosen by the
adaptive policy of :func:`repro.bench.tasks.resolve_granularity`).  The
lease lifecycle is the whole fault-tolerance story:

``pending --request_lease--> leased --complete_lease--> done``

* a lease that is not completed before its deadline is **reclaimed**: the
  group returns to the front of the queue and the next requesting worker
  re-executes it (a dead worker therefore delays its lease by at most the
  lease timeout);
* a **late** completion of a reclaimed lease is accepted if the group has
  not been completed by someone else yet — leaves are pure, so whichever
  copy arrives first is *the* result;
* a **duplicate** completion (the group is already done) is ignored;
* a **corrupt** completion (results that do not cover the lease's tasks
  exactly) is rejected with :class:`LeaseValidationError` and the group is
  requeued, so a malfunctioning worker cannot poison the run;
* when the queue drains while a **straggler** still holds a multi-task
  (cell-granularity) lease, the straggler's incomplete tasks are **split**
  into single-task groups and leased to the idle requesters — the tail of
  a run is no longer bounded by the slowest cell.  The original lease stays
  valid: results are reconciled per task, whichever copy lands first wins,
  and every other copy is ignored.

Because execution is at-least-once over pure leaves and the reduce
(:func:`repro.bench.runner.reduce_task_results`) is order-insensitive, the
scenario result is bit-identical to a sequential run on step-driven specs
no matter how many leases expire, duplicate, or arrive late.

A :class:`~repro.dist.cache.TaskCache` may be attached: cache hits are
resolved at construction time and never enter the queue — a warm cache
re-run of a figure variant leases zero DP-reference leaves.

All public methods are thread-safe; the clock is injectable for tests.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bench.scenario import ScenarioSpec
from repro.bench.tasks import (
    TaskResult,
    TaskSpec,
    _group_by_cell,
    resolve_granularity,
    schedule_tasks,
    task_is_deterministic,
)
from repro.dist.cache import TaskCache
from repro.dist.transport import Lease, LeaseTransport
from repro.obs import get_tracer
from repro.obs.metrics import Metrics

#: Legacy names of the lifecycle counters, exposed verbatim by
#: :attr:`Coordinator.stats`; each is metric ``coordinator.<name>``.
_STAT_KEYS = (
    "cache_hits",
    "scheduled",
    "completed",
    "reassignments",
    "late_completions",
    "duplicates",
    "rejected",
    "splits",
    "failed_leases",
    "renewals",
    "deferred",
    "injected",
)

#: Default lease lifetime in seconds.  Generous — reassignment exists to
#: survive dead workers, not to race slow ones; a reclaimed-but-alive
#: worker's late result is still accepted.
DEFAULT_LEASE_TIMEOUT = 300.0


class LeaseValidationError(ValueError):
    """A completion did not match its lease (unknown id or wrong tasks)."""


__all__ = [
    "Coordinator",
    "DEFAULT_LEASE_TIMEOUT",
    "Lease",
    "LeaseValidationError",
]


class _Group:
    """Internal scheduling unit: one lease-sized group of tasks."""

    __slots__ = (
        "group_id", "tasks", "state", "attempts", "current_lease_id", "split_into",
    )

    def __init__(self, group_id: int, tasks: Tuple[TaskSpec, ...]) -> None:
        self.group_id = group_id
        self.tasks = tasks
        # "pending" | "leased" | "done" | "split" (a straggler whose
        # incomplete tasks were re-queued as single-task groups).
        self.state = "pending"
        self.attempts = 0
        self.current_lease_id: Optional[str] = None
        #: Group ids of the single-task groups this group was split into.
        self.split_into: List[int] = []


class Coordinator(LeaseTransport):
    """Dynamic scheduler of one scenario's task graph.

    Parameters
    ----------
    spec:
        The scenario whose schedule is executed.
    tasks:
        Optional explicit task list (defaults to the full schedule);
        results are returned in this order.
    workers_hint:
        Expected worker count — input to the adaptive lease-sizing policy
        (it does not limit how many workers may actually connect).
    granularity:
        Lease size: ``"cell"``, ``"case"``, or ``"auto"`` (default: the
        spec's granularity).
    cache:
        Optional :class:`TaskCache`; hits skip the queue entirely and
        newly computed deterministic results are written back.
    lease_timeout:
        Seconds before an uncompleted lease is reclaimed.
    clock:
        Monotonic time source (injectable for tests).
    split_stragglers:
        When True (the default), an idle lease request against a drained
        queue splits the largest outstanding multi-task lease into
        single-task leases (see the module docstring).  Execution stays
        at-least-once over pure leaves, so results are unchanged.
    metrics:
        Optional shared :class:`~repro.obs.metrics.Metrics` registry
        (e.g. :func:`repro.obs.global_metrics`) that lifecycle counters
        and the ``coordinator.lease_seconds`` latency histogram are
        mirrored into, so a live dashboard can tail them mid-run.  The
        coordinator always keeps a private registry as well — the
        :attr:`stats` view reads that one, so per-instance counts stay
        exact even when many coordinators share one sink.
    deferred:
        Optional set of scheduled tasks to **withhold from the queue**:
        they count toward :attr:`done` but are never leased.  The owner
        (e.g. the multi-tenant dedup router in
        :mod:`repro.dist.service`) completes them out-of-band via
        :meth:`inject_result` — or re-queues them with
        :meth:`requeue_deferred` when the out-of-band source dies.
        Tasks already resolved by the cache are ignored.
    transport_label:
        Short label of the wire this coordinator's leases travel over
        (``"memory"`` or ``"tcp"``).  Lifecycle counters and the
        lease-latency histogram are mirrored into the shared registry
        under *both* the unlabelled name (``coordinator.completed``) and
        the per-transport name (``coordinator.completed.tcp``), so
        ``top`` and the dashboard can tell in-process and TCP runs apart.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        tasks: Optional[Sequence[TaskSpec]] = None,
        workers_hint: int = 1,
        granularity: Optional[str] = None,
        cache: Optional[TaskCache] = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        clock: Callable[[], float] = time.monotonic,
        split_stragglers: bool = True,
        metrics: Optional[Metrics] = None,
        deferred: Optional[Iterable[TaskSpec]] = None,
        transport_label: str = "memory",
    ) -> None:
        if workers_hint < 1:
            raise ValueError("workers_hint must be at least 1")
        if lease_timeout <= 0:
            raise ValueError("lease timeout must be positive")
        self._spec = spec
        self._schedule: List[TaskSpec] = (
            list(tasks) if tasks is not None else schedule_tasks(spec)
        )
        self._schedule_set: Set[TaskSpec] = set(self._schedule)
        self._cache = cache
        self._lease_timeout = lease_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._completed: Dict[TaskSpec, TaskResult] = {}
        self._split_stragglers = split_stragglers
        self._transport_label = transport_label
        # Private registry (source of truth for the legacy ``stats`` view)
        # plus the optional shared sink every count is mirrored into.
        self._metrics = Metrics()
        self._shared_metrics = metrics
        #: Grant instants of live leases (for the latency histogram).
        self._grant_times: Dict[str, float] = {}

        if cache is not None:
            hits, pending_tasks = cache.partition(spec, self._schedule)
            self._completed.update(hits)
            if hits:
                self._count("cache_hits", len(hits))
        else:
            pending_tasks = list(self._schedule)

        deferred_set = set(deferred) if deferred is not None else set()
        # Ordered set of withheld tasks, resolved by injection/requeue.
        self._deferred: Dict[TaskSpec, None] = dict.fromkeys(
            task for task in pending_tasks if task in deferred_set
        )
        if self._deferred:
            pending_tasks = [
                task for task in pending_tasks if task not in self._deferred
            ]
            self._count("deferred", len(self._deferred))
        self._scheduled_tasks: Tuple[TaskSpec, ...] = tuple(pending_tasks)
        if pending_tasks:
            self._count("scheduled", len(pending_tasks))

        requested = granularity if granularity is not None else spec.granularity
        self._granularity = resolve_granularity(requested, pending_tasks, workers_hint)
        if self._granularity == "cell":
            grouped = _group_by_cell(pending_tasks)
        else:
            grouped = [[task] for task in pending_tasks]
        self._groups: List[_Group] = [
            _Group(index, tuple(group)) for index, group in enumerate(grouped)
        ]
        self._pending: Deque[int] = deque(group.group_id for group in self._groups)
        self._leases: Dict[str, int] = {}
        self._deadlines: Dict[str, float] = {}

    # ------------------------------------------------------------ telemetry
    def _count(self, key: str, value: int = 1) -> None:
        """Bump lifecycle counter ``key`` (private + shared registries).

        The shared sink additionally gets a per-transport twin
        (``coordinator.<key>.<transport_label>``) so concurrent in-process
        and TCP runs stay distinguishable in ``top`` and the dashboard.
        """
        self._metrics.add(f"coordinator.{key}", value)
        if self._shared_metrics is not None:
            self._shared_metrics.add(f"coordinator.{key}", value)
            self._shared_metrics.add(
                f"coordinator.{key}.{self._transport_label}", value
            )

    def _observe_lease_latency(self, lease_id: str, now: float) -> None:
        """Record grant→completion latency of a finishing lease."""
        granted = self._grant_times.pop(lease_id, None)
        if granted is None:
            return
        elapsed = now - granted
        self._metrics.observe("coordinator.lease_seconds", elapsed)
        if self._shared_metrics is not None:
            self._shared_metrics.observe("coordinator.lease_seconds", elapsed)
            self._shared_metrics.observe(
                f"coordinator.lease_seconds.{self._transport_label}", elapsed
            )

    # ------------------------------------------------------------ inspection
    @property
    def spec(self) -> ScenarioSpec:
        """The scenario being executed."""
        return self._spec

    @property
    def granularity(self) -> str:
        """The resolved lease granularity (``"cell"`` or ``"case"``)."""
        return self._granularity

    @property
    def scheduled_tasks(self) -> Tuple[TaskSpec, ...]:
        """Tasks that entered the queue (not cache-served, not deferred)."""
        return self._scheduled_tasks

    @property
    def deferred_tasks(self) -> Tuple[TaskSpec, ...]:
        """Tasks withheld from the queue, awaiting :meth:`inject_result`."""
        with self._lock:
            return tuple(self._deferred)

    def spec_for_lease(self, lease: Lease) -> ScenarioSpec:
        """The scenario spec every lease of this coordinator belongs to."""
        return self._spec

    @property
    def stats(self) -> Dict[str, int]:
        """Lifecycle counters, legacy dict shape (a thin view).

        Since the :mod:`repro.obs` consolidation the counters live in a
        :class:`~repro.obs.metrics.Metrics` registry (see
        :attr:`metrics`); this property rebuilds the historical
        ``{"cache_hits": ..., "scheduled": ..., ...}`` dict from it so
        existing callers and tests observe identical values.
        """
        with self._lock:
            return {
                key: self._metrics.counter(f"coordinator.{key}")
                for key in _STAT_KEYS
            }

    @property
    def metrics(self) -> Metrics:
        """This coordinator's private metrics registry.

        Counters are named ``coordinator.<stat>``; lease latencies land in
        the ``coordinator.lease_seconds`` histogram.
        """
        return self._metrics

    @property
    def done(self) -> bool:
        """Have all scheduled tasks been completed?"""
        with self._lock:
            return len(self._completed) == len(self._schedule)

    @property
    def pending_count(self) -> int:
        """Number of groups waiting for a lease."""
        with self._lock:
            return len(self._pending)

    @property
    def outstanding_count(self) -> int:
        """Number of currently leased groups."""
        with self._lock:
            return sum(1 for group in self._groups if group.state == "leased")

    # ------------------------------------------------------- lease lifecycle
    def _reclaim_expired_locked(self, now: float) -> None:
        for group in self._groups:
            if group.state != "leased" or group.current_lease_id is None:
                continue
            deadline = self._deadlines.get(group.current_lease_id)
            if deadline is not None and deadline <= now:
                expired_lease_id = group.current_lease_id
                group.state = "pending"
                group.current_lease_id = None
                self._pending.appendleft(group.group_id)
                self._count("reassignments")
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.event(
                        "coordinator.lease.expired",
                        lease_id=expired_lease_id,
                        group=group.group_id,
                        tasks=len(group.tasks),
                    )
                self._work_available.notify_all()

    def _split_straggler_locked(self) -> bool:
        """Split the largest outstanding multi-task lease into case leases.

        Called when the pending queue is empty but leased cell-granularity
        groups are still outstanding: their not-yet-completed tasks are
        re-queued as single-task groups so idle workers can share the tail.
        The original lease remains valid — results are reconciled per task.
        Returns True when a group was split.
        """
        straggler: Optional[_Group] = None
        for group in self._groups:
            if group.state != "leased" or len(group.tasks) < 2:
                continue
            if straggler is None or len(group.tasks) > len(straggler.tasks):
                straggler = group
        if straggler is None:
            return False
        remaining = [
            task for task in straggler.tasks if task not in self._completed
        ]
        if not remaining:
            return False
        straggler.state = "split"
        for task in remaining:
            sub_group = _Group(len(self._groups), (task,))
            self._groups.append(sub_group)
            straggler.split_into.append(sub_group.group_id)
            self._pending.append(sub_group.group_id)
        self._count("splits")
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "coordinator.lease.split",
                lease_id=straggler.current_lease_id,
                group=straggler.group_id,
                requeued=len(remaining),
            )
        self._work_available.notify_all()
        return True

    def reclaim_expired(self) -> int:
        """Reclaim every expired lease now; returns the number reclaimed.

        :meth:`request_lease` does this implicitly, but a transport that
        grants leases on demand (e.g. the TCP service's sweeper) needs an
        explicit tick so expiries surface even while no worker is asking.
        """
        with self._lock:
            before = self._metrics.counter("coordinator.reassignments")
            self._reclaim_expired_locked(self._clock())
            return self._metrics.counter("coordinator.reassignments") - before

    def request_lease(self, worker_id: str) -> Optional[Lease]:
        """Grant the next pending group to ``worker_id``.

        Reclaims expired leases first.  When nothing is pending but a
        multi-task lease is still outstanding, that straggler is split into
        single-task leases (work stealing) and the first one is granted.
        Returns ``None`` when no work can be produced (the caller should
        :meth:`wait_for_work` and distinguish a drained queue from a
        finished run via :attr:`done`).
        """
        now = self._clock()
        with self._lock:
            self._reclaim_expired_locked(now)
            if not self._pending and self._split_stragglers:
                self._split_straggler_locked()
            if not self._pending:
                return None
            group = self._groups[self._pending.popleft()]
            group.attempts += 1
            lease_id = f"L{group.group_id}.{group.attempts}"
            group.state = "leased"
            group.current_lease_id = lease_id
            lease = Lease(
                lease_id=lease_id,
                worker_id=worker_id,
                tasks=group.tasks,
                deadline=now + self._lease_timeout,
                attempt=group.attempts,
            )
            self._leases[lease_id] = group.group_id
            self._deadlines[lease_id] = lease.deadline
            self._grant_times[lease_id] = now
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "coordinator.lease.claimed",
                    lease_id=lease_id,
                    worker=worker_id,
                    tasks=len(group.tasks),
                    attempt=group.attempts,
                )
            return lease

    def complete_lease(
        self, lease_id: str, results: Sequence[TaskResult]
    ) -> bool:
        """Record the results of a lease.

        Results are reconciled **per task**: whichever lease delivers a
        task's result first wins (leaves are pure), every later copy is
        ignored.  Returns ``True`` when at least one new task result was
        recorded, ``False`` for a full duplicate (every task already
        completed — by a reclaimed lease's other copy, or by the split
        leases of a straggler).  Raises :class:`LeaseValidationError` when
        the lease id is unknown or the results do not cover the lease's
        tasks exactly; in the latter case the group is requeued so the run
        still finishes.
        """
        with self._lock:
            group_id = self._leases.get(lease_id)
            if group_id is None:
                raise LeaseValidationError(f"unknown lease id {lease_id!r}")
            group = self._groups[group_id]
            by_task = {result.task: result for result in results}
            if len(by_task) != len(results) or set(by_task) != set(group.tasks):
                self._count("rejected")
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.event(
                        "coordinator.lease.rejected",
                        lease_id=lease_id,
                        group=group.group_id,
                        results=len(results),
                        tasks=len(group.tasks),
                    )
                if group.current_lease_id == lease_id and group.state == "leased":
                    group.state = "pending"
                    group.current_lease_id = None
                    self._pending.appendleft(group.group_id)
                    self._work_available.notify_all()
                raise LeaseValidationError(
                    f"lease {lease_id!r}: results do not cover the leased tasks "
                    f"(got {len(results)} result(s) for {len(group.tasks)} task(s))"
                )
            new_tasks = [
                task for task in group.tasks if task not in self._completed
            ]
            if not new_tasks:
                if group.state not in ("done", "split"):
                    group.state = "done"
                    group.current_lease_id = None
                self._count("duplicates")
                self._grant_times.pop(lease_id, None)
                return False
            if group.current_lease_id != lease_id and group.state == "leased":
                # A reclaimed lease finishing after all: accept it (the
                # leaves are pure); the requeued copy is cancelled below.
                self._count("late_completions")
            if group.state == "pending":
                # The group was reclaimed and requeued; this completion
                # makes the requeued copy unnecessary.
                self._pending.remove(group.group_id)
            for task in new_tasks:
                self._completed[task] = by_task[task]
            self._count("completed", len(new_tasks))
            self._observe_lease_latency(lease_id, self._clock())
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "coordinator.lease.completed",
                    lease_id=lease_id,
                    group=group.group_id,
                    new_tasks=len(new_tasks),
                )
            group.state = "done"
            group.current_lease_id = None
            self._cancel_covered_groups_locked(group)
            if self._cache is not None:
                for task in new_tasks:
                    if task_is_deterministic(self._spec, task):
                        self._cache.put(self._spec, by_task[task])
            self._work_available.notify_all()
            return True

    def _cancel_covered_groups_locked(self, completed_group: _Group) -> None:
        """Drop pending groups whose tasks the completed lease covered.

        After a straggler split, a task may live in two groups: the split
        original and its single-task twin.  Whichever completes first marks
        the other side done (a pending twin leaves the queue; a leased twin
        simply becomes a duplicate on delivery).
        """
        for sub_id in completed_group.split_into:
            sub_group = self._groups[sub_id]
            if sub_group.state == "pending" and all(
                task in self._completed for task in sub_group.tasks
            ):
                sub_group.state = "done"
                self._pending.remove(sub_group.group_id)

    def renew_lease(self, lease_id: str) -> bool:
        """Heartbeat: push a live lease's deadline out by the lease timeout.

        Returns ``True`` when the lease was still current (its holder keeps
        it for another full timeout window), ``False`` when it was already
        completed, reclaimed, or unknown — renewing late is benign, the
        worker just loses the extension and races the requeued copy like
        any late completion.  Successful renewals count as ``renewals`` in
        :attr:`stats`/metrics.
        """
        with self._lock:
            group_id = self._leases.get(lease_id)
            if group_id is None:
                return False
            group = self._groups[group_id]
            if group.current_lease_id != lease_id or group.state != "leased":
                return False
            now = self._clock()
            deadline = self._deadlines.get(lease_id)
            if deadline is not None and deadline <= now:
                # Expired but not yet reclaimed: reclaim rather than revive,
                # so renewal cannot resurrect a lease another worker may
                # already have been granted a copy of.
                self._reclaim_expired_locked(now)
                return False
            self._deadlines[lease_id] = now + self._lease_timeout
            self._count("renewals")
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "coordinator.lease.renewed",
                    lease_id=lease_id,
                    group=group.group_id,
                    deadline=self._deadlines[lease_id],
                )
            return True

    def inject_result(self, task: TaskSpec, result: TaskResult) -> bool:
        """Complete one task out-of-band (no lease involved).

        The multi-tenant service uses this to resolve **deferred** tasks
        from another tenant's identical leaf (same provenance hash) or
        from the server-lifetime memo.  Any scheduled task can be
        injected; pending groups whose tasks are all now complete are
        cancelled (their queue entries dropped), mirroring the straggler
        reconciliation.  Returns ``True`` when the task was newly
        completed, ``False`` when it already had a result.  Raises
        :class:`LeaseValidationError` for a task outside the schedule.
        """
        if result.task != task:
            raise LeaseValidationError("injected result does not match task")
        with self._lock:
            if task not in self._schedule_set:
                raise LeaseValidationError(
                    "injected task is not part of this coordinator's schedule"
                )
            if task in self._completed:
                return False
            self._completed[task] = result
            self._deferred.pop(task, None)
            self._count("injected")
            # Cancel pending groups the injection just fully covered.
            for group in self._groups:
                if group.state == "pending" and all(
                    t in self._completed for t in group.tasks
                ):
                    group.state = "done"
                    self._pending.remove(group.group_id)
            if self._cache is not None and task_is_deterministic(self._spec, task):
                self._cache.put(self._spec, result)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event("coordinator.result.injected")
            self._work_available.notify_all()
            return True

    def requeue_deferred(self, tasks: Iterable[TaskSpec]) -> int:
        """Promote deferred tasks back into the lease queue.

        The service calls this when the out-of-band source of a deferred
        task dies (its owning tenant disconnected mid-run): each still
        uncompleted deferred task becomes a fresh single-task group at the
        back of the queue.  Returns the number of tasks requeued.
        """
        with self._lock:
            promoted: List[TaskSpec] = []
            for task in tasks:
                if task not in self._deferred or task in self._completed:
                    continue
                del self._deferred[task]
                group = _Group(len(self._groups), (task,))
                self._groups.append(group)
                self._pending.append(group.group_id)
                promoted.append(task)
            if promoted:
                self._count("scheduled", len(promoted))
                self._scheduled_tasks = self._scheduled_tasks + tuple(promoted)
                self._work_available.notify_all()
            return len(promoted)

    def fail_lease(self, lease_id: str) -> None:
        """Return a lease to the queue immediately (a worker giving up).

        The explicit-failure twin of lease expiry: workers whose execution
        raises hand the group back right away instead of letting the
        timeout clock run (``failed_leases`` counts these separately from
        timeout ``reassignments``, which also increments).
        """
        with self._lock:
            group_id = self._leases.get(lease_id)
            if group_id is None:
                raise LeaseValidationError(f"unknown lease id {lease_id!r}")
            group = self._groups[group_id]
            if group.current_lease_id != lease_id or group.state != "leased":
                return
            group.state = "pending"
            group.current_lease_id = None
            self._pending.appendleft(group.group_id)
            self._count("reassignments")
            self._count("failed_leases")
            self._grant_times.pop(lease_id, None)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "coordinator.lease.failed",
                    lease_id=lease_id,
                    group=group.group_id,
                    tasks=len(group.tasks),
                )
            self._work_available.notify_all()

    def wait_for_work(self, timeout: float) -> bool:
        """Block until work may be available (or ``timeout`` elapses).

        Wakes early on completions and requeues; always returns after at
        most ``timeout`` seconds so callers can re-check expiries against
        the injected clock.  Returns :attr:`done` at the time of waking.
        """
        with self._lock:
            if not self._pending and len(self._completed) < len(self._schedule):
                self._work_available.wait(timeout)
            return len(self._completed) == len(self._schedule)

    # ------------------------------------------------------------- results
    def results(self) -> List[TaskResult]:
        """All task results in schedule order (requires :attr:`done`)."""
        with self._lock:
            if len(self._completed) != len(self._schedule):
                missing = len(self._schedule) - len(self._completed)
                raise RuntimeError(
                    f"coordinator is not done: {missing} task(s) incomplete"
                )
            return [self._completed[task] for task in self._schedule]
