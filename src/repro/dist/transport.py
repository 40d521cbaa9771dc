"""The lease transport interface: one lifecycle, many wires.

The lease lifecycle (``pending → leased → done`` with expiry, late
completions, duplicates, validation, and straggler splits — see
:mod:`repro.dist.coordinator`) travels over two wires:

* :class:`~repro.dist.coordinator.Coordinator` — in-memory, same-process
  threads (every :func:`~repro.dist.worker.run_coordinated` run);
* :class:`~repro.dist.service.RemoteLeaseTransport` — length-prefixed
  JSON frames over a TCP connection to a :class:`~repro.dist.service.
  LeaseService`.

:class:`LeaseTransport` is the explicit contract both implement, so the
generic worker loop (:class:`repro.dist.worker.Worker`) can drain either.  The messages are deliberately tiny:

====================  ====================================================
``request_lease``     claim the next group of tasks (or ``None``)
``complete_lease``    deliver results; ``False`` for a full duplicate
``renew_lease``       heartbeat: extend the deadline of a live lease
``fail_lease``        give a lease back immediately (worker giving up)
``wait_for_work``     block until work may be available
``done``              has every scheduled task completed?
``spec_for_lease``    the :class:`ScenarioSpec` a lease's tasks belong to
====================  ====================================================

Because execution is at-least-once over pure leaves with per-task
reconciliation, *any* implementation that delivers these messages — no
matter how lossy, slow, or duplicated the wire — yields results
bit-identical to a sequential run on step-driven specs.

The module also hosts the shared idle-loop helpers: the jittered
exponential backoff used by every polling/reconnect loop, and the
heartbeat thread that renews a lease while a long task executes.
"""

from __future__ import annotations

import abc
import random
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.bench.scenario import ScenarioSpec
from repro.bench.tasks import TaskResult, TaskSpec


@dataclass(frozen=True)
class Lease:
    """One granted lease: a task group, its holder, and its deadline."""

    lease_id: str
    worker_id: str
    tasks: Tuple[TaskSpec, ...]
    deadline: float
    attempt: int


class LeaseTransport(abc.ABC):
    """Abstract lease lifecycle endpoint a worker loop drains.

    Implementations must be safe to call from multiple threads: the
    heartbeat renewer (:class:`LeaseRenewer`) calls :meth:`renew_lease`
    concurrently with the executing thread.
    """

    @abc.abstractmethod
    def request_lease(self, worker_id: str) -> Optional[Lease]:
        """Claim the next pending task group, or ``None`` when idle."""

    @abc.abstractmethod
    def complete_lease(
        self, lease_id: str, results: Sequence[TaskResult]
    ) -> bool:
        """Deliver a lease's results.

        Returns ``True`` when at least one new task result was recorded,
        ``False`` for a full duplicate.  May raise
        :class:`~repro.dist.coordinator.LeaseValidationError` when the
        results do not cover the leased tasks.
        """

    @abc.abstractmethod
    def renew_lease(self, lease_id: str) -> bool:
        """Extend a live lease's deadline (heartbeat).

        Returns ``True`` when the lease was still current and its
        deadline was pushed out; ``False`` when it was already
        reclaimed, completed, or unknown (the worker should finish the
        work anyway — a late completion is still accepted if nobody
        else delivered first).
        """

    @abc.abstractmethod
    def fail_lease(self, lease_id: str) -> None:
        """Return a lease to the queue immediately (worker giving up)."""

    @abc.abstractmethod
    def wait_for_work(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds until work may be available.

        Returns :attr:`done` at the time of waking.
        """

    @property
    @abc.abstractmethod
    def done(self) -> bool:
        """Have all currently scheduled tasks been completed?"""

    @abc.abstractmethod
    def spec_for_lease(self, lease: Lease) -> ScenarioSpec:
        """The scenario spec that ``lease``'s tasks belong to."""


class ExponentialBackoff:
    """Jittered exponential backoff for idle-poll and reconnect loops.

    Successive :meth:`next` calls return ``initial``, ``2*initial``,
    ``4*initial``, ... capped at ``cap``, each multiplied by a uniform
    jitter in ``[1-jitter, 1+jitter]`` so a fleet of idle workers does
    not hammer the server in lockstep.  Call
    :meth:`reset` whenever progress is made.

    Jitter only perturbs *sleep scheduling*; task results are unaffected
    (leaves are pure and the reduce is order-insensitive), so using a
    non-seeded RNG here cannot break bit-identity.
    """

    def __init__(
        self,
        initial: float,
        cap: float,
        factor: float = 2.0,
        jitter: float = 0.25,
        rng: Optional[random.Random] = None,
    ) -> None:
        if initial <= 0:
            raise ValueError("initial delay must be positive")
        if cap < initial:
            raise ValueError("cap must be >= initial delay")
        if factor < 1.0:
            raise ValueError("factor must be >= 1")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self._initial = initial
        self._cap = cap
        self._factor = factor
        self._jitter = jitter
        self._rng = rng if rng is not None else random.Random()
        self._current = initial

    @property
    def current(self) -> float:
        """The un-jittered delay the next :meth:`next` call is based on."""
        return self._current

    def next(self) -> float:
        """Return the next (jittered) delay and advance the schedule."""
        base = self._current
        self._current = min(self._cap, self._current * self._factor)
        if self._jitter:
            base *= 1.0 + self._jitter * (2.0 * self._rng.random() - 1.0)
        return base

    def reset(self) -> None:
        """Drop back to the initial delay (progress was made)."""
        self._current = self._initial


class LeaseRenewer:
    """Daemon thread that heartbeats a lease while a task executes.

    Calls ``renew()`` every ``interval`` seconds until stopped (or until
    a renewal reports the lease is no longer current — at that point the
    lease has been reclaimed and further heartbeats are pointless; the
    worker still completes, and per-task reconciliation accepts the late
    result if it arrives first).  Use as a context manager around the
    execution of one lease::

        with LeaseRenewer(lambda: transport.renew_lease(lease_id), 5.0):
            results = execute(lease.tasks)
        transport.complete_lease(lease_id, results)

    ``renew`` runs on the renewer thread, so the transport's
    ``renew_lease`` must be thread-safe (all in-tree transports are).
    Exceptions from ``renew`` stop the heartbeat silently — a broken
    wire surfaces on the completion attempt, with better context.
    """

    def __init__(self, renew: Callable[[], bool], interval: float) -> None:
        if interval <= 0:
            raise ValueError("renew interval must be positive")
        self._renew = renew
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="lease-renewer", daemon=True
        )
        #: Number of successful renewals performed (for tests/telemetry).
        self.renewals = 0

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                if not self._renew():
                    return
            except Exception:
                return
            self.renewals += 1

    def start(self) -> "LeaseRenewer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "LeaseRenewer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
