"""Service benchmark: the multi-tenant TCP lease service.

Measures what "optimization as a service" does on a step-driven workload
with one persistent worker pool attached over TCP:

* ``saturation`` — jobs/s of a warm multi-tenant service as concurrent
  clients grow (1..MAX_CLIENTS); records where throughput saturates.
* ``dedup`` — cross-client dedup ratio: N tenants submitting the same
  figure concurrently lease zero duplicate deterministic leaves.
* ``bit_identical`` — a service run with an injected mid-lease
  disconnect *and* a worker death still reduces to cells bit-identical
  to executing every leaf in schedule order.

Results are written to ``BENCH_service.json`` in the repository root.
Run as a script (``python benchmarks/bench_service.py``) or via pytest.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List

from repro.bench.runner import reduce_task_results
from repro.bench.scenario import ScenarioScale, ScenarioSpec
from repro.bench.tasks import _execute_task_group, schedule_tasks
from repro.dist.service import (
    RemoteLeaseTransport,
    ServiceClient,
    run_service_worker,
    start_service,
    submit_scenario,
)
from repro.obs.metrics import Metrics
from repro.query.join_graph import GraphShape

#: Repository root (this file lives in benchmarks/).
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SERVICE_RESULT_PATH = os.path.join(_REPO_ROOT, "BENCH_service.json")

WORKERS = 4
MAX_CLIENTS = 12
CLIENT_SWEEP = (1, 2, 4, 8, MAX_CLIENTS)
JOBS_PER_CLIENT = 8
SEED = 11


def _spec(seed: int = SEED) -> ScenarioSpec:
    """The step-driven smoke workload (12 deterministic leaves)."""
    return ScenarioSpec(
        name="bench-service",
        description="lease service benchmark workload",
        graph_shapes=(GraphShape.CHAIN, GraphShape.STAR),
        table_counts=(4,),
        num_metrics=2,
        algorithms=("RandomSampling", "RMQ"),
        num_test_cases=2,
        step_checkpoints=(2, 4),
        reference_algorithm="DP(1.01)",
        seed=seed,
        scale=ScenarioScale.SMOKE,
    )


# ---------------------------------------------------------------------------
# Saturation: concurrent clients against a warm multi-tenant service
# ---------------------------------------------------------------------------
def _bench_saturation() -> Dict[str, object]:
    handle = start_service(port=0, metrics=Metrics(), max_jobs=256)
    stop = threading.Event()
    pool = threading.Thread(
        target=run_service_worker,
        args=(handle.address,),
        kwargs=dict(workers=WORKERS, stop=stop, poll=0.02, poll_cap=0.2),
        daemon=True,
    )
    pool.start()
    spec = _spec()
    try:
        # Cold run executes every leaf once; everything after is served
        # from the session memo — the sweep measures the service path
        # itself (admission, dedup router, result injection, transport).
        submit_scenario(handle.address, spec, timeout=120.0)
        sweep: List[Dict[str, float]] = []
        for clients in CLIENT_SWEEP:
            def tenant(name: str) -> None:
                with ServiceClient(handle.address, client_id=name) as client:
                    for _ in range(JOBS_PER_CLIENT):
                        client.run(spec, timeout=60.0)

            threads = [
                threading.Thread(target=tenant, args=(f"c{clients}-{i}",))
                for i in range(clients)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            sweep.append(
                {
                    "clients": clients,
                    "jobs_per_second": clients * JOBS_PER_CLIENT / elapsed,
                }
            )
    finally:
        stop.set()
        pool.join(timeout=30.0)
        handle.stop()
    best = max(sweep, key=lambda entry: entry["jobs_per_second"])
    return {
        "jobs_per_client": JOBS_PER_CLIENT,
        "sweep": sweep,
        "saturation_clients": best["clients"],
        "peak_jobs_per_second": best["jobs_per_second"],
    }


# ---------------------------------------------------------------------------
# Cross-client dedup ratio
# ---------------------------------------------------------------------------
def _bench_dedup() -> Dict[str, float]:
    handle = start_service(port=0, metrics=Metrics())
    stop = threading.Event()
    pool = threading.Thread(
        target=run_service_worker,
        args=(handle.address,),
        kwargs=dict(workers=WORKERS, stop=stop, poll=0.02, poll_cap=0.2),
        daemon=True,
    )
    pool.start()
    spec = _spec()
    tenants = 5
    infos: List[Dict[str, object]] = []
    try:
        def tenant(name: str) -> None:
            _, info = submit_scenario(
                handle.address, spec, timeout=120.0, client_id=name
            )
            infos.append(info)

        threads = [
            threading.Thread(target=tenant, args=(f"tenant-{i}",))
            for i in range(tenants)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        stop.set()
        pool.join(timeout=30.0)
        handle.stop()
    total = len(schedule_tasks(spec))
    scheduled = sum(int(info["scheduled"]) for info in infos)
    requested = tenants * total
    return {
        "tenants": tenants,
        "leaves_per_job": total,
        "leaves_requested": requested,
        "leaves_executed": scheduled,
        "duplicate_leases": scheduled - total,
        "dedup_ratio": 1.0 - scheduled / requested,
    }


# ---------------------------------------------------------------------------
# Bit-identity under injected faults
# ---------------------------------------------------------------------------
def _bench_bit_identity() -> bool:
    spec = _spec()
    sequential = reduce_task_results(
        spec, _execute_task_group(spec, schedule_tasks(spec))
    )
    handle = start_service(port=0, metrics=Metrics(), lease_timeout=30.0)
    died = threading.Event()

    def die_once(lease) -> None:
        if not died.is_set():
            died.set()
            raise RuntimeError("injected worker death")

    try:
        with ServiceClient(handle.address) as client:
            info = client.submit(spec, timeout=60.0)
            # Fault one: a worker claims a lease, then its connection
            # drops mid-lease (abrupt close, no fail message).
            rogue = RemoteLeaseTransport(handle.address, worker_id="rogue")
            assert rogue.request_lease("rogue") is not None
            rogue.close()
            # Fault two: a pool worker dies between claim and result.
            stop = threading.Event()
            pool = threading.Thread(
                target=run_service_worker,
                args=(handle.address,),
                kwargs=dict(
                    workers=2, stop=stop, poll=0.02, poll_cap=0.2,
                    on_lease=die_once,
                ),
                daemon=True,
            )
            pool.start()
            try:
                results, _ = client.wait(info["job"], timeout=120.0)
            finally:
                stop.set()
                pool.join(timeout=30.0)
    finally:
        handle.stop()
    return reduce_task_results(spec, results) == sequential


def run_benchmark(write_json: bool = True) -> Dict[str, object]:
    """Run every section; return (and persist) the combined results."""
    results: Dict[str, object] = {
        "workers": WORKERS,
        "saturation": _bench_saturation(),
        "dedup": _bench_dedup(),
        "bit_identical": _bench_bit_identity(),
    }
    if write_json:
        with open(SERVICE_RESULT_PATH, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return results


def test_service_benchmark() -> None:
    """Pytest entry point: enforce the acceptance bars."""
    results = run_benchmark()
    assert results["dedup"]["duplicate_leases"] == 0, results
    assert results["dedup"]["dedup_ratio"] >= 0.5, results
    assert results["bit_identical"] is True, results
    clients = [entry["clients"] for entry in results["saturation"]["sweep"]]
    assert max(clients) >= 8, results


def main() -> None:
    results = run_benchmark()
    for entry in results["saturation"]["sweep"]:
        print(
            f"saturation          {entry['clients']:3d} client(s): "
            f"{entry['jobs_per_second']:8.1f} jobs/s"
        )
    dedup = results["dedup"]
    print(
        f"dedup               {dedup['tenants']} tenants, "
        f"{dedup['duplicate_leases']} duplicate lease(s), "
        f"ratio {dedup['dedup_ratio']:.2f}"
    )
    print(f"bit identical       {results['bit_identical']}")
    print(f"results written to {SERVICE_RESULT_PATH}")


if __name__ == "__main__":
    main()
