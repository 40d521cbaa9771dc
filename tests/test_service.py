"""Tests for the TCP lease service (repro.dist.service).

The headline property mirrors ``tests/test_dist.py``: every service-backed
run — through dropped connections, half-written frames, worker death
between claim and result, duplicate and late completions — reduces to
output bit-identical to the sequential oracle of ``tests/conftest.py``.  On top of that the
service adds multi-tenant guarantees: concurrent clients lease zero
duplicate deterministic leaves, admission control bounds live jobs, and
heartbeat renewal keeps slow-but-healthy leases from being reclaimed.
"""

import contextlib
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bench.runner import reduce_task_results
from repro.bench.scenario import ScenarioScale, ScenarioSpec
from repro.bench.tasks import _execute_task_group, schedule_tasks
from repro.dist import TaskCache
from repro.dist.coordinator import Coordinator, LeaseValidationError
from repro.dist.service import (
    KIND_BYTES,
    KIND_JSON,
    MAX_FRAME_BYTES,
    _HEADER,
    FrameError,
    RemoteLeaseTransport,
    ServiceBusyError,
    ServiceClient,
    connect,
    encode_frame,
    encode_json_frame,
    run_service_worker,
    start_service,
    submit_scenario,
)
from repro.dist.shm import SubsetEffects
from repro.dist.transport import ExponentialBackoff, LeaseRenewer
from repro.obs.metrics import Metrics
from repro.query.join_graph import GraphShape


@pytest.fixture(scope="module")
def step_spec():
    """Step-driven smoke spec with DP-reference leaves (all deterministic)."""
    return ScenarioSpec(
        name="service-smoke",
        description="lease service determinism smoke spec",
        graph_shapes=(GraphShape.CHAIN, GraphShape.STAR),
        table_counts=(4,),
        num_metrics=2,
        algorithms=("RandomSampling", "RMQ"),
        num_test_cases=2,
        step_checkpoints=(2, 4),
        reference_algorithm="DP(1.01)",
        seed=11,
        scale=ScenarioScale.SMOKE,
    )


@contextlib.contextmanager
def service(**kwargs):
    """A service on an ephemeral port with an isolated metrics registry."""
    kwargs.setdefault("metrics", Metrics())
    handle = start_service(host="127.0.0.1", port=0, **kwargs)
    try:
        yield handle
    finally:
        handle.stop()


@contextlib.contextmanager
def worker_pool(address, workers=1, **kwargs):
    """Persistent attached workers, stopped (and joined) on exit."""
    stop = threading.Event()
    counters = {}

    def main():
        counters.update(
            run_service_worker(
                address, workers=workers, stop=stop, poll=0.02, poll_cap=0.2,
                **kwargs,
            )
        )

    thread = threading.Thread(target=main, daemon=True)
    thread.start()
    try:
        yield counters
    finally:
        stop.set()
        thread.join(timeout=30.0)
        assert not thread.is_alive()


def assert_bit_identical(step_spec, sequential_result, results):
    assert reduce_task_results(step_spec, results) == sequential_result.cells


# ---------------------------------------------------------------------------
# Frame codec and backoff/renewer primitives
# ---------------------------------------------------------------------------
class TestFramePrimitives:
    def test_frame_round_trip(self):
        frame = encode_frame(KIND_BYTES, b"abc")
        length, kind = _HEADER.unpack(frame[: _HEADER.size])
        assert (length, kind) == (3, KIND_BYTES)
        assert frame[_HEADER.size :] == b"abc"

    def test_json_frame_is_compact(self):
        frame = encode_json_frame({"type": "hello"})
        assert frame[_HEADER.size :] == b'{"type":"hello"}'

    def test_oversized_frame_refused_at_encode(self):
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame(KIND_JSON, b"\x00" * (MAX_FRAME_BYTES + 1))


class TestExponentialBackoff:
    def test_growth_is_capped(self):
        backoff = ExponentialBackoff(0.1, 1.0, jitter=0.0)
        delays = [backoff.next() for _ in range(6)]
        assert delays == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]

    def test_reset_returns_to_initial(self):
        backoff = ExponentialBackoff(0.1, 1.0, jitter=0.0)
        for _ in range(4):
            backoff.next()
        backoff.reset()
        assert backoff.next() == pytest.approx(0.1)

    def test_jitter_stays_within_band(self):
        backoff = ExponentialBackoff(0.5, 8.0, jitter=0.25)
        for _ in range(50):
            base = backoff.current
            delay = backoff.next()
            assert base * 0.75 <= delay <= base * 1.25

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ExponentialBackoff(0.0, 1.0)
        with pytest.raises(ValueError):
            ExponentialBackoff(1.0, 0.5)


class TestLeaseRenewer:
    def test_counts_heartbeats_and_stops(self):
        beats = []
        with LeaseRenewer(lambda: beats.append(1) or True, 0.02) as renewer:
            time.sleep(0.15)
        assert renewer.renewals == len(beats) >= 2
        settled = renewer.renewals
        time.sleep(0.06)
        assert renewer.renewals == settled  # no beats after stop

    def test_stops_when_renewal_is_refused(self):
        calls = []
        renewer = LeaseRenewer(lambda: calls.append(1) or False, 0.01)
        renewer.start()
        time.sleep(0.1)
        renewer.stop()
        assert len(calls) == 1  # a False heartbeat ends the thread


# ---------------------------------------------------------------------------
# Bit-identity of service-backed runs
# ---------------------------------------------------------------------------
class TestServiceBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_sequential(self, step_spec, sequential_result, workers):
        with service() as handle:
            with worker_pool(handle.address, workers=workers) as counters:
                results, info = submit_scenario(
                    handle.address, step_spec, timeout=60.0
                )
            assert_bit_identical(step_spec, sequential_result, results)
            assert info["scheduled"] == len(schedule_tasks(step_spec))
            assert info["stats"]["completed"] == info["scheduled"]
            assert counters["leases"] >= 1

    def test_results_arrive_in_schedule_order(self, step_spec, sequential_result):
        with service() as handle:
            with worker_pool(handle.address, workers=2):
                results, _ = submit_scenario(
                    handle.address, step_spec, timeout=60.0
                )
        assert [r.task for r in results] == list(schedule_tasks(step_spec))


# ---------------------------------------------------------------------------
# Multi-tenant dedup: concurrent clients share deterministic leaves
# ---------------------------------------------------------------------------
class TestMultiTenantDedup:
    def test_second_client_leases_zero_tasks(self, step_spec, sequential_result):
        with service() as handle:
            with worker_pool(handle.address, workers=2):
                first, info1 = submit_scenario(
                    handle.address, step_spec, timeout=60.0, client_id="tenant-a"
                )
                second, info2 = submit_scenario(
                    handle.address, step_spec, timeout=60.0, client_id="tenant-b"
                )
            assert_bit_identical(step_spec, sequential_result, first)
            assert_bit_identical(step_spec, sequential_result, second)
            total = len(schedule_tasks(step_spec))
            assert info1["scheduled"] == total
            # Every leaf of the repeat tenant is served from the session
            # memo: zero leases, zero executions.
            assert info2["scheduled"] == 0
            assert info2["injected"] == total
            with ServiceClient(handle.address) as client:
                stats = client.server_stats()
            assert stats["session_results"] == total

    def test_concurrent_clients_execute_each_leaf_once(
        self, step_spec, sequential_result
    ):
        metrics = Metrics()
        with service(metrics=metrics) as handle:
            with worker_pool(handle.address, workers=2):
                outputs = {}

                def tenant(name):
                    outputs[name] = submit_scenario(
                        handle.address, step_spec, timeout=60.0, client_id=name
                    )

                threads = [
                    threading.Thread(target=tenant, args=(f"tenant-{i}",))
                    for i in range(3)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
            assert len(outputs) == 3
            total = len(schedule_tasks(step_spec))
            for results, _ in outputs.values():
                assert_bit_identical(step_spec, sequential_result, results)
            # Across all tenants each deterministic leaf was scheduled for
            # execution exactly once; overlapping submissions deferred to
            # the in-flight owner instead of re-leasing.
            scheduled = sum(info["scheduled"] for _, info in outputs.values())
            shared = sum(
                info["deferred"] + info["injected"]
                for _, info in outputs.values()
            )
            assert scheduled == total
            assert shared == 2 * total
            assert metrics.counter("coordinator.completed.tcp") == total

    def test_dead_owner_promotes_deferred_to_survivor(
        self, step_spec, sequential_result
    ):
        # Tenant A submits and dies before any lease completes; tenant B's
        # deferred leaves (waiting on A's in-flight executions) must be
        # promoted into B's own queue, not starve.
        with service() as handle:
            client_a = ServiceClient(handle.address, client_id="doomed")
            client_a.submit(step_spec, timeout=10.0)
            with ServiceClient(handle.address, client_id="survivor") as client_b:
                info_b = client_b.submit(step_spec, timeout=10.0)
                assert info_b["scheduled"] == 0
                assert info_b["deferred"] == len(schedule_tasks(step_spec))
                client_a.close()  # owner dies; B inherits the work
                with worker_pool(handle.address, workers=2):
                    results, _ = client_b.wait(info_b["job"], timeout=60.0)
            assert_bit_identical(step_spec, sequential_result, results)


# ---------------------------------------------------------------------------
# Transport fault injection
# ---------------------------------------------------------------------------
class TestTransportFaults:
    def test_dropped_connection_mid_lease(self, step_spec, sequential_result):
        with service(lease_timeout=30.0) as handle:
            with ServiceClient(handle.address) as client:
                info = client.submit(step_spec, timeout=10.0)
                # A worker claims a lease, then its connection drops hard.
                rogue = RemoteLeaseTransport(handle.address, worker_id="rogue")
                lease = rogue.request_lease("rogue")
                assert lease is not None
                rogue.close()
                # The server fails the held lease immediately (no 30s
                # timeout wait) and requeues it for healthy workers.
                with worker_pool(handle.address, workers=2):
                    results, stats = client.wait(info["job"], timeout=60.0)
            assert_bit_identical(step_spec, sequential_result, results)
            assert stats["failed_leases"] >= 1
            assert stats["reassignments"] >= 1

    def test_worker_death_between_claim_and_result(
        self, step_spec, sequential_result
    ):
        died = threading.Event()

        def die_once(lease):
            if not died.is_set():
                died.set()
                raise RuntimeError("simulated worker death")

        with service(lease_timeout=30.0) as handle:
            with ServiceClient(handle.address) as client:
                info = client.submit(step_spec, timeout=10.0)
                with worker_pool(
                    handle.address, workers=2, on_lease=die_once
                ) as counters:
                    results, stats = client.wait(info["job"], timeout=60.0)
            assert counters["died"] == 1
            assert stats["reassignments"] >= 1
            assert_bit_identical(step_spec, sequential_result, results)

    def test_duplicate_and_late_completions(self, step_spec, sequential_result):
        with service(lease_timeout=0.4) as handle:
            with ServiceClient(handle.address) as client:
                info = client.submit(step_spec, timeout=10.0)
                slow = RemoteLeaseTransport(handle.address, worker_id="slow")
                lease = slow.request_lease("slow")
                assert lease is not None
                spec = slow.spec_for_lease(lease)
                payload = _execute_task_group(spec, list(lease.tasks))
                # A second worker drains every *other* group properly...
                fast = RemoteLeaseTransport(handle.address, worker_id="fast")
                while (other := fast.request_lease("fast")) is not None:
                    fast.complete_lease(
                        other.lease_id,
                        _execute_task_group(
                            fast.spec_for_lease(other), list(other.tasks)
                        ),
                    )
                # ...then sits out the lease timeout so the sweeper
                # reclaims the held group and hands it to the re-claimant.
                deadline = time.monotonic() + 10.0
                release = None
                while release is None and time.monotonic() < deadline:
                    time.sleep(0.1)
                    release = fast.request_lease("fast")
                assert release is not None
                assert set(release.tasks) == set(lease.tasks)
                # The original worker's completion is *late* but first:
                # accepted.  The re-claimant's is a duplicate: dropped.
                assert slow.complete_lease(lease.lease_id, payload) is True
                assert fast.complete_lease(release.lease_id, payload) is False
                slow.close()
                results, stats = client.wait(info["job"], timeout=60.0)
                fast.close()
            assert stats["late_completions"] >= 1
            assert stats["duplicates"] >= 1
            assert_bit_identical(step_spec, sequential_result, results)

    def test_corrupt_completion_rejected_over_tcp(self, step_spec):
        with service() as handle:
            with ServiceClient(handle.address) as client:
                client.submit(step_spec, timeout=10.0)
                worker = RemoteLeaseTransport(handle.address, worker_id="liar")
                lease = worker.request_lease("liar")
                assert lease is not None
                spec = worker.spec_for_lease(lease)
                # Results that do not cover the leased tasks: the server
                # must reject the completion and keep the lease requeued.
                wrong = _execute_task_group(spec, [lease.tasks[0]])
                with pytest.raises(LeaseValidationError):
                    worker.complete_lease(lease.lease_id, wrong[:1] * 2)
                worker.close()

    def test_half_written_and_garbage_frames(self, step_spec):
        metrics = Metrics()
        with service(metrics=metrics) as handle:
            # A connection that dies mid-header.
            raw = socket.create_connection(handle.address, timeout=5.0)
            raw.sendall(_HEADER.pack(100, KIND_JSON)[:3])
            raw.close()
            # A full frame of non-JSON bytes after a valid handshake.
            frames = connect(handle.address)
            frames.send_raw(encode_frame(KIND_JSON, b"\xff\xfenot json"))
            kind, payload = frames._recv_frame()
            assert kind == KIND_JSON and b"bad JSON" in payload
            frames.close()
            # A bytes frame where a JSON frame is required.
            frames = connect(handle.address)
            frames.send_raw(encode_frame(KIND_BYTES, b"zzz"))
            kind, payload = frames._recv_frame()
            assert b"expected a JSON frame" in payload
            frames.close()
            # A header announcing an over-cap payload (never sent).
            frames = connect(handle.address)
            frames.send_raw(_HEADER.pack(MAX_FRAME_BYTES + 1, KIND_JSON))
            kind, payload = frames._recv_frame()
            assert b"bad frame" in payload
            frames.close()
            # An unknown frame kind.
            frames = connect(handle.address)
            frames.send_raw(struct.pack(">IB", 1, 7) + b"x")
            kind, payload = frames._recv_frame()
            assert b"bad frame" in payload
            frames.close()
            assert metrics.counter("service.frame_errors") >= 4
            # The server survived all of it: a real submission still works.
            with ServiceClient(handle.address) as client:
                info = client.submit(step_spec, timeout=10.0)
                assert info["scheduled"] == len(schedule_tasks(step_spec))


# ---------------------------------------------------------------------------
# Heartbeat renewal
# ---------------------------------------------------------------------------
class TestHeartbeatRenewal:
    def test_renewal_outlives_short_lease_timeout(
        self, step_spec, sequential_result, monkeypatch
    ):
        # Make every lease slower than the lease timeout: without
        # heartbeats each one would be reclaimed and re-executed.
        import repro.dist.service as service_module

        real = service_module._execute_task_group

        def slow_execute(spec, tasks):
            time.sleep(0.5)
            return real(spec, tasks)

        monkeypatch.setattr(service_module, "_execute_task_group", slow_execute)
        with service(lease_timeout=0.3) as handle:
            with worker_pool(
                handle.address, workers=2, renew_interval=0.05
            ) as counters:
                results, info = submit_scenario(
                    handle.address,
                    step_spec,
                    granularity="cell",
                    timeout=60.0,
                )
            assert_bit_identical(step_spec, sequential_result, results)
            assert counters["renewals"] >= 1
            assert info["stats"]["renewals"] >= 1
            assert info["stats"]["reassignments"] == 0

    def test_renew_rpc_refuses_unknown_lease(self, step_spec):
        with service() as handle:
            with ServiceClient(handle.address) as client:
                info = client.submit(step_spec, timeout=10.0)
                worker = RemoteLeaseTransport(handle.address, worker_id="w")
                lease = worker.request_lease("w")
                assert worker.renew_lease(lease.lease_id) is True
                assert (
                    worker.renew_lease(f"{info['job']}/lease-bogus") is False
                )
                worker.close()


# ---------------------------------------------------------------------------
# Admission control and backpressure
# ---------------------------------------------------------------------------
class TestBackpressure:
    def test_busy_server_rejects_with_retry_hint(self, step_spec):
        with service(max_jobs=1, retry_after=0.07) as handle:
            with ServiceClient(handle.address, client_id="a") as first:
                first.submit(step_spec, timeout=10.0)
                with ServiceClient(handle.address, client_id="b") as second:
                    reply, _ = second._frames.request(
                        {"type": "submit", "spec": step_spec.to_json_dict()}
                    )
                    assert reply["type"] == "rejected"
                    assert reply["reason"] == "busy"
                    assert reply["retry_after"] == pytest.approx(0.07)
                    with pytest.raises(ServiceBusyError):
                        second.submit(step_spec, timeout=0.3)

    def test_per_client_job_cap(self, step_spec):
        with service(max_jobs=64, max_jobs_per_client=1) as handle:
            with ServiceClient(handle.address, client_id="greedy") as client:
                client.submit(step_spec, timeout=10.0)
                reply, _ = client._frames.request(
                    {"type": "submit", "spec": step_spec.to_json_dict()}
                )
                assert reply["type"] == "rejected"
                assert reply["reason"] == "client_busy"

    def test_submit_retry_succeeds_once_capacity_frees(
        self, step_spec, sequential_result
    ):
        with service(max_jobs=1) as handle:
            with worker_pool(handle.address, workers=2):
                order = []

                def tenant(name):
                    results, _ = submit_scenario(
                        handle.address, step_spec, timeout=60.0, client_id=name
                    )
                    order.append((name, results))

                threads = [
                    threading.Thread(target=tenant, args=(f"t{i}",))
                    for i in range(3)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
            assert len(order) == 3
            for _, results in order:
                assert_bit_identical(step_spec, sequential_result, results)


# ---------------------------------------------------------------------------
# Shared cache: JSON results across restarts, bytes RPC for packed effects
# ---------------------------------------------------------------------------
class TestSharedCache:
    def test_warm_cache_run_leases_nothing(
        self, step_spec, sequential_result, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        with service(cache=TaskCache(cache_dir)) as handle:
            with worker_pool(handle.address, workers=2):
                _, info1 = submit_scenario(
                    handle.address, step_spec, timeout=60.0
                )
            assert info1["cache_hits"] == 0
        # A *new* service process over the same cache directory: every
        # deterministic leaf is a cache hit, no workers needed at all.
        with service(cache=TaskCache(cache_dir)) as handle:
            results, info2 = submit_scenario(
                handle.address, step_spec, timeout=60.0
            )
            assert info2["cache_hits"] == len(schedule_tasks(step_spec))
            assert info2["scheduled"] == 0
            assert_bit_identical(step_spec, sequential_result, results)

    def test_packed_effects_bytes_round_trip(self, tmp_path):
        effects = SubsetEffects.from_split_effects(
            [(3, [(1, 2, 0, 8.0, (1.5, float("inf")))]), (2, [])],
            num_metrics=2,
        )
        payload = effects.to_bytes()
        with service(cache=TaskCache(str(tmp_path / "cache"))) as handle:
            with ServiceClient(handle.address) as client:
                assert client.cache_get_bytes("dp:deadbeef") is None
                assert client.cache_put_bytes("dp:deadbeef", payload) is True
                fetched = client.cache_get_bytes("dp:deadbeef")
        assert fetched == payload
        decoded = SubsetEffects.from_bytes(fetched, num_metrics=2)
        assert np.array_equal(decoded.counts, effects.counts)
        assert np.array_equal(decoded.rows, effects.rows)

    def test_bytes_rpc_without_cache_is_a_miss(self):
        with service() as handle:
            with ServiceClient(handle.address) as client:
                assert client.cache_put_bytes("k", b"v") is False
                assert client.cache_get_bytes("k") is None


class FakeClock:
    """Settable monotonic clock for lease-expiry tests."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Coordinator primitives behind the router: deferred / inject / renew
# ---------------------------------------------------------------------------
class TestCoordinatorDeferredAndRenew:
    def test_deferred_tasks_are_withheld_then_injected(self, step_spec):
        import repro.bench.tasks as tasks_module

        tasks = schedule_tasks(step_spec)
        withheld = tasks[0]
        coordinator = Coordinator(step_spec, deferred=[withheld])
        assert withheld in coordinator.deferred_tasks
        leased = []
        while (lease := coordinator.request_lease("w")) is not None:
            leased.extend(lease.tasks)
            coordinator.complete_lease(
                lease.lease_id,
                _execute_task_group(step_spec, list(lease.tasks)),
            )
        assert withheld not in leased
        assert not coordinator.done
        result = tasks_module.execute_task(step_spec, withheld)
        assert coordinator.inject_result(withheld, result) is True
        assert coordinator.inject_result(withheld, result) is False  # dup
        assert coordinator.done
        assert coordinator.stats["injected"] == 1

    def test_inject_validates_task_identity(self, step_spec):
        import repro.bench.tasks as tasks_module

        tasks = schedule_tasks(step_spec)
        coordinator = Coordinator(step_spec, deferred=[tasks[0]])
        foreign = tasks_module.execute_task(step_spec, tasks[1])
        with pytest.raises(LeaseValidationError):
            coordinator.inject_result(tasks[0], foreign)

    def test_requeue_deferred_promotes_to_queue(self, step_spec):
        tasks = schedule_tasks(step_spec)
        coordinator = Coordinator(step_spec, deferred=list(tasks))
        assert coordinator.request_lease("w") is None  # everything withheld
        assert coordinator.requeue_deferred([tasks[0], tasks[1]]) == 2
        granted = coordinator.request_lease("w")
        assert granted is not None
        assert set(granted.tasks) <= {tasks[0], tasks[1]}

    def test_renew_extends_deadline(self, step_spec):
        clock = FakeClock()
        coordinator = Coordinator(step_spec, lease_timeout=10.0, clock=clock)
        lease = coordinator.request_lease("w")
        clock.advance(9.0)
        assert coordinator.renew_lease(lease.lease_id) is True
        clock.advance(9.0)  # past the original deadline, inside the renewed
        assert coordinator.reclaim_expired() == 0
        clock.advance(2.0)
        assert coordinator.reclaim_expired() == 1
        assert coordinator.renew_lease(lease.lease_id) is False
        assert coordinator.stats["renewals"] == 1


# ---------------------------------------------------------------------------
# The ``work`` subcommand as a process
# ---------------------------------------------------------------------------
def _child_pids(parent: int) -> list:
    """PIDs whose parent is ``parent`` (read from /proc)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == parent:
            children.append(int(entry))
    return children


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _wait_gone(pids, timeout: float) -> list:
    """The PIDs of ``pids`` still running after up to ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    alive = [pid for pid in pids if _running(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if _running(pid)]
    return alive


@contextlib.contextmanager
def _work_process(spec):
    """A ``work --attach --workers 2`` process whose pool has run one job.

    Yields ``(process, pool_pids)``; the process and any pool process still
    running are killed on exit.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    pool = []
    with service() as handle:
        host, port = handle.address
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro.bench.cli", "work",
             "--attach", f"{host}:{port}", "--workers", "2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            with ServiceClient(handle.address) as client:
                job = client.submit(spec)["job"]
                client.wait(job, timeout=120.0)
            pool = _child_pids(worker.pid)
            assert pool, "the job should have forked the worker pool"
            yield worker, pool
        finally:
            if worker.poll() is None:
                worker.kill()
            for pid in pool:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            # Only now: pool processes hold the output pipes open too.
            worker.communicate()


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads PIDs from /proc")
class TestWorkSubcommandSignals:
    def test_sigterm_exits_cleanly_and_stops_pool_processes(self, step_spec):
        with _work_process(step_spec) as (worker, pool):
            worker.send_signal(signal.SIGTERM)
            _, stderr = worker.communicate(timeout=60.0)
            assert worker.returncode == 0, stderr.decode(errors="replace")
            assert _wait_gone(pool, timeout=10.0) == []

    def test_pool_processes_end_on_sigterm_after_parent_is_killed(self, step_spec):
        # The pool must not inherit the parent's stop-on-signal handlers: an
        # orphaned pool process (parent SIGKILLed, e.g. by the OOM killer)
        # has to end on a plain SIGTERM.
        with _work_process(step_spec) as (worker, pool):
            worker.kill()
            worker.wait(timeout=60.0)
            for pid in pool:
                if _running(pid):
                    os.kill(pid, signal.SIGTERM)
            assert _wait_gone(pool, timeout=10.0) == []
