"""Distributed execution of the benchmark task graph.

Every scenario schedule executes through one mechanism: a lease
coordinator handing out groups of pure leaf tasks to workers.

* :class:`~repro.dist.coordinator.Coordinator` holds the pending task queue
  and hands out time-limited **leases**; expired leases are reassigned, late
  or duplicate completions are reconciled (leaves are pure, so at-least-once
  execution still yields exactly-once results);
* :mod:`~repro.dist.worker` is the in-process dispatcher —
  :func:`~repro.dist.worker.run_coordinated` drains a coordinator on the
  calling thread or with worker threads on a shared process pool, and is
  what :func:`repro.bench.runner.run_scenario` and ``--shard`` runs call;
* :class:`~repro.dist.transport.LeaseTransport` is the explicit interface
  of that lifecycle — claim/complete/renew/fail as messages — with two
  wires: in-memory (the coordinator itself) and TCP
  (:mod:`repro.dist.service`);
* :mod:`~repro.dist.service` is **optimization as a service**: a
  long-lived asyncio TCP server multiplexing many tenants' jobs (one
  coordinator each) over persistent worker pools, with admission control
  and a shared cache so concurrent clients never execute the same
  deterministic leaf twice;
* :class:`~repro.dist.cache.TaskCache` is a content-addressed store of leaf
  results keyed by provenance hash
  (:func:`repro.bench.tasks.task_provenance_hash`), so deterministic leaves
  — above all the DP(1.01) reference frontiers — are computed once and
  reused across figure variants, re-runs, and tenants.

On step-driven specs every worker count, granularity, cache state and
wire is bit-identical to the sequential oracle — each leaf executed in
schedule order and reduced (pinned by ``tests/test_dist.py`` and
``tests/test_service.py``).
"""

from repro.dist.cache import TaskCache
from repro.dist.coordinator import Coordinator, Lease, LeaseValidationError
from repro.dist.dp import (
    DPLevelResult,
    DPLevelTask,
    compute_dp_level,
    dp_provenance_signature,
    dp_subset_key,
)
from repro.dist.service import (
    LeaseService,
    RemoteLeaseTransport,
    ServiceClient,
    ServiceHandle,
    run_service_worker,
    start_service,
    submit_scenario,
)
from repro.dist.transport import ExponentialBackoff, LeaseRenewer, LeaseTransport
from repro.dist.worker import Worker, run_coordinated

__all__ = [
    "Coordinator",
    "Lease",
    "LeaseValidationError",
    "LeaseTransport",
    "LeaseRenewer",
    "ExponentialBackoff",
    "TaskCache",
    "Worker",
    "run_coordinated",
    "LeaseService",
    "ServiceClient",
    "ServiceHandle",
    "RemoteLeaseTransport",
    "start_service",
    "submit_scenario",
    "run_service_worker",
    "DPLevelTask",
    "DPLevelResult",
    "compute_dp_level",
    "dp_provenance_signature",
    "dp_subset_key",
]
