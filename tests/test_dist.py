"""Tests for the distributed coordinator subsystem (repro.dist).

The headline property: on step-driven specs, ``run_scenario`` produces
output bit-identical to the sequential oracle (``tests/conftest.py``) with
1, 2, and 4 workers — through worker death, corrupted completions,
duplicate completions, and warm-cache runs that execute zero DP-reference
leaves.
"""

import dataclasses
import os
import time

import pytest

import repro.bench.tasks as tasks_module
from repro.bench.runner import reduce_task_results, run_scenario
from repro.bench.scenario import ScenarioScale, ScenarioSpec
from repro.bench.tasks import (
    ROLE_REFERENCE,
    clear_reference_memo,
    reference_memo_size,
    schedule_tasks,
    task_is_deterministic,
    task_provenance_hash,
)
from repro.dist import TaskCache, Worker, run_coordinated
from repro.dist.coordinator import Coordinator, LeaseValidationError
from repro.query.join_graph import GraphShape


@pytest.fixture(scope="module")
def step_spec():
    """Step-driven smoke spec with DP-reference leaves (all deterministic)."""
    return ScenarioSpec(
        name="dist-smoke",
        description="coordinator determinism smoke spec",
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


class FakeClock:
    """Settable monotonic clock for lease-expiry tests."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Provenance hashes and the determinism gate
# ---------------------------------------------------------------------------
class TestProvenanceHash:
    def test_hash_is_stable_and_distinct_per_task(self, step_spec):
        tasks = schedule_tasks(step_spec)
        hashes = [task_provenance_hash(step_spec, task) for task in tasks]
        assert hashes == [task_provenance_hash(step_spec, task) for task in tasks]
        assert len(set(hashes)) == len(hashes)

    def test_reference_hash_ignores_variant_only_fields(self, step_spec):
        # A figure variant with different algorithms / step checkpoints /
        # name shares its reference leaves — their hashes must not move.
        variant = dataclasses.replace(
            step_spec,
            name="dist-smoke-variant",
            algorithms=("RandomSampling",),
            step_checkpoints=(3, 6),
        )
        for task in schedule_tasks(step_spec):
            if task.role == ROLE_REFERENCE:
                assert task_provenance_hash(step_spec, task) == task_provenance_hash(
                    variant, task
                )

    def test_algorithm_hash_tracks_execution_fields(self, step_spec):
        task = next(
            task
            for task in schedule_tasks(step_spec)
            if task.role != ROLE_REFERENCE
        )
        changed = dataclasses.replace(step_spec, step_checkpoints=(3, 6))
        assert task_provenance_hash(step_spec, task) != task_provenance_hash(
            changed, task
        )
        reseeded = dataclasses.replace(step_spec, seed=step_spec.seed + 1)
        assert task_provenance_hash(step_spec, task) != task_provenance_hash(
            reseeded, task
        )

    def test_determinism_gate(self, step_spec):
        tasks = schedule_tasks(step_spec)
        assert all(task_is_deterministic(step_spec, task) for task in tasks)
        wall_clock = dataclasses.replace(
            step_spec, step_checkpoints=None, reference_time_budget=0.5
        )
        assert not any(task_is_deterministic(wall_clock, task) for task in tasks)


# ---------------------------------------------------------------------------
# TaskCache
# ---------------------------------------------------------------------------
class TestTaskCache:
    def test_miss_then_hit_round_trip(self, step_spec, tmp_path):
        cache = TaskCache(os.fspath(tmp_path / "cache"))
        task = schedule_tasks(step_spec)[0]
        assert cache.get(step_spec, task) is None
        result = tasks_module.execute_task(step_spec, task)
        cache.put(step_spec, result)
        assert cache.get(step_spec, task) == result
        assert cache.stats == {"hits": 1, "misses": 1, "stores": 1, "evictions": 0}
        assert len(cache) == 1

    def test_non_deterministic_results_refused(self, step_spec, tmp_path):
        cache = TaskCache(os.fspath(tmp_path / "cache"))
        wall_clock = dataclasses.replace(
            step_spec,
            step_checkpoints=None,
            time_budget=0.05,
            checkpoints=(0.05,),
            reference_algorithm=None,
        )
        task = schedule_tasks(wall_clock)[0]
        result = tasks_module.execute_task(wall_clock, task)
        with pytest.raises(ValueError, match="non-deterministic"):
            cache.put(wall_clock, result)
        assert cache.get(wall_clock, task) is None

    def test_corrupted_entry_is_a_miss(self, step_spec, tmp_path):
        cache = TaskCache(os.fspath(tmp_path / "cache"))
        task = schedule_tasks(step_spec)[0]
        key = cache.put(step_spec, tasks_module.execute_task(step_spec, task))
        entry = tmp_path / "cache" / key[:2] / f"{key}.json"
        entry.write_text("{not json")
        assert cache.get(step_spec, task) is None

    def test_cross_variant_reference_reuse(self, step_spec, tmp_path):
        cache = TaskCache(os.fspath(tmp_path / "cache"))
        reference = next(
            task
            for task in schedule_tasks(step_spec)
            if task.role == ROLE_REFERENCE
        )
        cache.put(step_spec, tasks_module.execute_task(step_spec, reference))
        variant = dataclasses.replace(
            step_spec, name="variant", algorithms=("RandomSampling",)
        )
        assert cache.get(variant, reference) is not None


class TestTaskCacheEviction:
    def _fill(self, cache, spec, count):
        """Store the first ``count`` leaf results; returns the tasks."""
        tasks = schedule_tasks(spec)[:count]
        for task in tasks:
            cache.put(spec, tasks_module.execute_task(spec, task))
        return tasks

    def _entry_size(self, spec, tmp_path):
        probe = TaskCache(os.fspath(tmp_path / "probe"))
        task = schedule_tasks(spec)[0]
        key = probe.put(spec, tasks_module.execute_task(spec, task))
        return os.path.getsize(probe._entry_path(key))

    def test_invalid_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            TaskCache(os.fspath(tmp_path / "cache"), max_bytes=0)

    def test_cap_enforced_after_puts(self, step_spec, tmp_path):
        entry_size = self._entry_size(step_spec, tmp_path)
        cap = int(entry_size * 2.5)  # room for two entries
        cache = TaskCache(os.fspath(tmp_path / "cache"), max_bytes=cap)
        self._fill(cache, step_spec, 5)
        assert cache.total_bytes() <= cap
        assert len(cache) < 5
        assert cache.stats["evictions"] >= 1

    def test_append_only_without_cap(self, step_spec, tmp_path):
        cache = TaskCache(os.fspath(tmp_path / "cache"))
        self._fill(cache, step_spec, 5)
        assert len(cache) == 5
        assert cache.stats["evictions"] == 0

    def test_least_recently_used_entry_evicted_first(self, step_spec, tmp_path):
        entry_size = self._entry_size(step_spec, tmp_path)
        cap = int(entry_size * 2.5)
        cache = TaskCache(os.fspath(tmp_path / "cache"), max_bytes=cap)
        tasks = schedule_tasks(step_spec)[:3]
        first, second, third = tasks
        now = 1_000_000_000.0
        for offset, task in enumerate((first, second)):
            key = cache.put(step_spec, tasks_module.execute_task(step_spec, task))
            os.utime(cache._entry_path(key), (now + offset, now + offset))
        # Touch the older entry through a hit: it becomes the most recent...
        hit_key = cache.put(step_spec, tasks_module.execute_task(step_spec, first))
        assert cache.get(step_spec, first) is not None
        os.utime(cache._entry_path(hit_key), (now + 5, now + 5))
        # ...so the third put evicts ``second``, not ``first``.
        cache.put(step_spec, tasks_module.execute_task(step_spec, third))
        assert cache.get(step_spec, first) is not None
        assert cache.get(step_spec, third) is not None
        assert cache.get(step_spec, second) is None

    def test_warm_hit_after_eviction_recomputes_and_restores(
        self, step_spec, tmp_path
    ):
        entry_size = self._entry_size(step_spec, tmp_path)
        cache = TaskCache(
            os.fspath(tmp_path / "cache"), max_bytes=int(entry_size * 1.5)
        )
        tasks = self._fill(cache, step_spec, 2)  # the second put evicts the first
        evicted = tasks[0]
        assert cache.get(step_spec, evicted) is None  # ordinary miss
        result = tasks_module.execute_task(step_spec, evicted)
        cache.put(step_spec, result)  # recomputed and restored...
        assert cache.get(step_spec, evicted) == result  # ...warm again
        assert cache.total_bytes() <= int(entry_size * 1.5)

    def test_capped_run_scenario_still_bit_identical(
        self, step_spec, sequential_result, tmp_path
    ):
        entry_size = self._entry_size(step_spec, tmp_path)
        cache = TaskCache(
            os.fspath(tmp_path / "cache"), max_bytes=int(entry_size * 1.5)
        )
        result = run_scenario(step_spec, workers=1, cache=cache)
        assert result.cells == sequential_result.cells
        assert cache.total_bytes() <= int(entry_size * 1.5)


# ---------------------------------------------------------------------------
# Coordinator lease lifecycle (fake clock, no threads)
# ---------------------------------------------------------------------------
class TestCoordinatorLifecycle:
    def _coordinator(self, spec, **kwargs):
        kwargs.setdefault("clock", FakeClock())
        kwargs.setdefault("lease_timeout", 10.0)
        return Coordinator(spec, **kwargs)

    def _drain(self, coordinator, worker_id="w0"):
        while True:
            lease = coordinator.request_lease(worker_id)
            if lease is None:
                break
            results = [
                tasks_module.execute_task(coordinator.spec, task)
                for task in lease.tasks
            ]
            coordinator.complete_lease(lease.lease_id, results)

    def test_drain_produces_sequential_results(self, step_spec, sequential_result):
        coordinator = self._coordinator(step_spec)
        self._drain(coordinator)
        assert coordinator.done
        cells = reduce_task_results(step_spec, coordinator.results())
        assert cells == sequential_result.cells

    def test_results_before_done_rejected(self, step_spec):
        coordinator = self._coordinator(step_spec)
        with pytest.raises(RuntimeError, match="not done"):
            coordinator.results()

    def test_expired_lease_is_reassigned(self, step_spec, sequential_result):
        clock = FakeClock()
        coordinator = self._coordinator(step_spec, clock=clock, lease_timeout=5.0)
        dead = coordinator.request_lease("dead-worker")  # never completed
        assert dead is not None
        clock.advance(6.0)  # past the lease deadline
        self._drain(coordinator, "survivor")
        assert coordinator.done
        assert coordinator.stats["reassignments"] >= 1
        cells = reduce_task_results(step_spec, coordinator.results())
        assert cells == sequential_result.cells

    def test_late_completion_of_reclaimed_lease_accepted(self, step_spec):
        clock = FakeClock()
        coordinator = self._coordinator(step_spec, clock=clock, lease_timeout=5.0)
        slow = coordinator.request_lease("slow-worker")
        clock.advance(6.0)
        # The reclaim happens on the next request; the slow worker then
        # delivers anyway — pure leaves, so the result is accepted.
        next_lease = coordinator.request_lease("other")
        assert next_lease is not None
        results = [
            tasks_module.execute_task(step_spec, task) for task in slow.tasks
        ]
        assert coordinator.complete_lease(slow.lease_id, results) is True
        assert coordinator.stats["late_completions"] == 1
        self._drain(coordinator, "other")
        assert coordinator.done

    def test_duplicate_completion_ignored(self, step_spec, sequential_result):
        coordinator = self._coordinator(step_spec)
        lease = coordinator.request_lease("w0")
        results = [
            tasks_module.execute_task(step_spec, task) for task in lease.tasks
        ]
        assert coordinator.complete_lease(lease.lease_id, results) is True
        assert coordinator.complete_lease(lease.lease_id, results) is False
        assert coordinator.stats["duplicates"] == 1
        self._drain(coordinator)
        cells = reduce_task_results(step_spec, coordinator.results())
        assert cells == sequential_result.cells

    def test_corrupt_completion_rejected_and_requeued(
        self, step_spec, sequential_result
    ):
        coordinator = self._coordinator(step_spec)
        lease = coordinator.request_lease("bad-worker")
        partial = [
            tasks_module.execute_task(step_spec, task)
            for task in lease.tasks[:-1]  # drop one task: partial shard
        ]
        with pytest.raises(LeaseValidationError, match="do not cover"):
            coordinator.complete_lease(lease.lease_id, partial)
        assert coordinator.stats["rejected"] == 1
        # The group is immediately leaseable again and the run completes.
        self._drain(coordinator, "good-worker")
        assert coordinator.done
        cells = reduce_task_results(step_spec, coordinator.results())
        assert cells == sequential_result.cells

    def test_wrong_task_completion_rejected(self, step_spec):
        coordinator = self._coordinator(step_spec, granularity="case")
        lease_a = coordinator.request_lease("w0")
        lease_b = coordinator.request_lease("w0")
        swapped = [
            tasks_module.execute_task(step_spec, task) for task in lease_b.tasks
        ]
        with pytest.raises(LeaseValidationError):
            coordinator.complete_lease(lease_a.lease_id, swapped)

    def test_unknown_lease_rejected(self, step_spec):
        coordinator = self._coordinator(step_spec)
        with pytest.raises(LeaseValidationError, match="unknown lease"):
            coordinator.complete_lease("L999.1", [])

    def test_fail_lease_requeues_immediately(self, step_spec):
        coordinator = self._coordinator(step_spec)
        before = coordinator.pending_count
        lease = coordinator.request_lease("w0")
        assert coordinator.pending_count == before - 1
        coordinator.fail_lease(lease.lease_id)
        assert coordinator.pending_count == before
        stats = coordinator.stats
        assert stats["failed_leases"] == 1
        assert stats["reassignments"] == 1

    def test_adaptive_lease_sizing(self, step_spec):
        sequential = Coordinator(step_spec, workers_hint=1)
        assert sequential.granularity == "cell"
        parallel = Coordinator(step_spec, workers_hint=4)
        assert parallel.granularity == "case"


# ---------------------------------------------------------------------------
# Straggler splitting (work stealing at the tail of a run)
# ---------------------------------------------------------------------------
class TestStragglerSplitting:
    def _cell_coordinator(self, spec, **kwargs):
        kwargs.setdefault("clock", FakeClock())
        kwargs.setdefault("lease_timeout", 1000.0)  # expiry never helps here
        kwargs.setdefault("granularity", "cell")
        return Coordinator(spec, **kwargs)

    def test_idle_request_splits_straggler_cell(self, step_spec, sequential_result):
        coordinator = self._cell_coordinator(step_spec)
        # A straggler claims the first cell and stalls; a second worker
        # drains the rest of the queue.
        straggler = coordinator.request_lease("straggler")
        assert straggler is not None and len(straggler.tasks) > 1
        self._drain_queue(coordinator, "helper")
        assert not coordinator.done  # the straggler's cell is missing
        # The helper asks again: the straggler's cell is split into
        # single-task leases it can execute immediately.
        stolen = coordinator.request_lease("helper")
        assert stolen is not None
        assert len(stolen.tasks) == 1
        assert stolen.tasks[0] in straggler.tasks
        assert coordinator.stats["splits"] == 1
        results = [tasks_module.execute_task(step_spec, task) for task in stolen.tasks]
        assert coordinator.complete_lease(stolen.lease_id, results) is True
        self._drain(coordinator, "helper")
        assert coordinator.done
        cells = reduce_task_results(step_spec, coordinator.results())
        assert cells == sequential_result.cells

    def test_late_straggler_completion_reconciled_per_task(
        self, step_spec, sequential_result
    ):
        coordinator = self._cell_coordinator(step_spec)
        straggler = coordinator.request_lease("straggler")
        self._drain_queue(coordinator, "helper")
        # Steal exactly one task of the straggler's cell...
        stolen = coordinator.request_lease("helper")
        results = [tasks_module.execute_task(step_spec, task) for task in stolen.tasks]
        assert coordinator.complete_lease(stolen.lease_id, results) is True
        # ...then the straggler delivers its whole cell after all: only the
        # not-yet-completed tasks are recorded, the stolen twin queue
        # entries are cancelled, and the run finishes without re-executing
        # anything.
        late = [
            tasks_module.execute_task(step_spec, task) for task in straggler.tasks
        ]
        assert coordinator.complete_lease(straggler.lease_id, late) is True
        assert coordinator.request_lease("helper") is None
        assert coordinator.done
        cells = reduce_task_results(step_spec, coordinator.results())
        assert cells == sequential_result.cells

    def test_split_twin_delivery_is_duplicate(self, step_spec):
        coordinator = self._cell_coordinator(step_spec)
        straggler = coordinator.request_lease("straggler")
        self._drain_queue(coordinator, "helper")
        stolen = coordinator.request_lease("helper")
        # The straggler finishes first; the helper's stolen copy becomes a
        # duplicate and is ignored.
        late = [
            tasks_module.execute_task(step_spec, task) for task in straggler.tasks
        ]
        assert coordinator.complete_lease(straggler.lease_id, late) is True
        results = [tasks_module.execute_task(step_spec, task) for task in stolen.tasks]
        assert coordinator.complete_lease(stolen.lease_id, results) is False
        assert coordinator.stats["duplicates"] == 1
        self._drain(coordinator, "helper")
        assert coordinator.done

    def test_splitting_can_be_disabled(self, step_spec):
        coordinator = self._cell_coordinator(step_spec, split_stragglers=False)
        straggler = coordinator.request_lease("straggler")
        assert straggler is not None
        self._drain_queue(coordinator, "helper")
        assert coordinator.request_lease("helper") is None
        assert coordinator.stats["splits"] == 0

    def test_split_run_bit_identical_with_threads(self, step_spec, sequential_result):
        # End-to-end: a worker that sits on its first cell forever forces
        # the survivor to steal through splits (expiry can't help — the
        # lease outlives the test), and the reduced result is still
        # bit-identical to the sequential run.
        coordinator = Coordinator(
            step_spec, workers_hint=2, granularity="cell", lease_timeout=1000.0
        )

        class _Death(RuntimeError):
            pass

        def die_on_first_lease(lease):
            raise _Death(f"worker died holding {lease.lease_id}")

        dying = Worker("dying", coordinator, on_lease=die_on_first_lease, poll=0.01)
        surviving = Worker("surviving", coordinator, poll=0.01)
        dying.start()
        surviving.start()
        dying.join(timeout=30)
        surviving.join(timeout=30)
        assert surviving.error is None
        assert coordinator.done
        assert coordinator.stats["splits"] >= 1
        assert coordinator.stats["reassignments"] == 0
        cells = reduce_task_results(step_spec, coordinator.results())
        assert cells == sequential_result.cells

    def _drain(self, coordinator, worker_id):
        while True:
            lease = coordinator.request_lease(worker_id)
            if lease is None:
                break
            results = [
                tasks_module.execute_task(coordinator.spec, task)
                for task in lease.tasks
            ]
            coordinator.complete_lease(lease.lease_id, results)

    def _drain_queue(self, coordinator, worker_id):
        """Execute only what is already queued (stops before stealing)."""
        while coordinator.pending_count:
            lease = coordinator.request_lease(worker_id)
            results = [
                tasks_module.execute_task(coordinator.spec, task)
                for task in lease.tasks
            ]
            coordinator.complete_lease(lease.lease_id, results)


# ---------------------------------------------------------------------------
# Coordinator backend end-to-end (bit-identity incl. worker death)
# ---------------------------------------------------------------------------
class TestCoordinatorBackend:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_to_sequential(self, step_spec, sequential_result, workers):
        result = run_scenario(step_spec, workers=workers)
        assert result.cells == sequential_result.cells

    def test_worker_death_mid_lease(self, step_spec, sequential_result):
        # One worker dies on its first lease; the lease expires and the
        # surviving worker finishes the run with identical output.
        coordinator = Coordinator(step_spec, workers_hint=2, lease_timeout=0.2)

        class _Death(RuntimeError):
            pass

        def die_on_first_lease(lease):
            raise _Death(f"worker died holding {lease.lease_id}")

        dying = Worker("dying", coordinator, on_lease=die_on_first_lease, poll=0.01)
        surviving = Worker("surviving", coordinator, poll=0.01)
        dying.start()
        surviving.start()
        dying.join(timeout=30)
        surviving.join(timeout=30)
        assert isinstance(dying.error, _Death)
        assert surviving.error is None
        assert coordinator.done
        # The survivor takes over either by lease expiry (reassignment) or
        # by stealing the dead worker's cell through a straggler split.
        stats = coordinator.stats
        assert stats["reassignments"] + stats["splits"] >= 1
        cells = reduce_task_results(step_spec, coordinator.results())
        assert cells == sequential_result.cells


class TestLeaseRenewal:
    def test_slow_leaf_keeps_its_lease(
        self, step_spec, sequential_result, tmp_path, monkeypatch
    ):
        # A healthy worker on a leaf that outlives the lease timeout must
        # heartbeat its lease: without renewal the idle second worker
        # reclaims it and executes the leaf a second time.
        import repro.dist.worker as worker_module

        schedule = schedule_tasks(step_spec)
        slow_task = schedule[0]
        log = tmp_path / "executed.log"
        real_execute = tasks_module.execute_task

        def logged_execute(spec, task, cost_model=None):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(task.task_id + "\n")
            if task == slow_task:
                time.sleep(2.0)
            return real_execute(spec, task, cost_model=cost_model)

        monkeypatch.setattr(worker_module, "DEFAULT_LEASE_TIMEOUT", 0.6)
        monkeypatch.setattr(tasks_module, "execute_task", logged_execute)
        # Pool processes fork from this one and so inherit the patch; the
        # pool is torn down again so later tests get unpatched workers.
        worker_module.shutdown_shared_pool()
        try:
            coordinator = run_coordinated(step_spec, workers=2, granularity="case")
        finally:
            worker_module.shutdown_shared_pool()
        stats = coordinator.stats
        assert stats["reassignments"] == 0
        assert stats["renewals"] >= 1
        executed = log.read_text(encoding="utf-8").split()
        assert sorted(executed) == sorted(task.task_id for task in schedule)
        cells = reduce_task_results(step_spec, coordinator.results())
        assert cells == sequential_result.cells


# ---------------------------------------------------------------------------
# Warm cache: zero DP-reference leaves executed
# ---------------------------------------------------------------------------
class TestWarmCache:
    def test_cold_run_populates_cache(self, step_spec, sequential_result, tmp_path):
        cache = TaskCache(os.fspath(tmp_path / "cache"))
        result = run_scenario(step_spec, workers=1, cache=cache)
        assert result.cells == sequential_result.cells
        assert len(cache) == len(schedule_tasks(step_spec))

    def test_warm_rerun_executes_zero_reference_leaves(
        self, step_spec, sequential_oracle, tmp_path, monkeypatch
    ):
        cache_dir = os.fspath(tmp_path / "cache")
        run_scenario(step_spec, workers=1, cache=TaskCache(cache_dir))
        # A variant of the figure (different algorithm set) shares the
        # DP-reference leaves.  With the reference computation rigged to
        # explode, only cache hits can complete the warm run.
        variant = dataclasses.replace(
            step_spec, name="dist-smoke-variant", algorithms=("RandomSampling",)
        )
        variant_sequential = sequential_oracle(variant)
        clear_reference_memo()

        def boom(*args, **kwargs):
            raise AssertionError("DP reference leaf executed despite warm cache")

        monkeypatch.setattr(tasks_module, "dp_reference_frontier", boom)
        coordinator = run_coordinated(variant, workers=1, cache=TaskCache(cache_dir))
        assert coordinator.stats["cache_hits"] >= (
            variant.num_cells * variant.num_test_cases
        )
        assert not any(
            task.role == ROLE_REFERENCE for task in coordinator.scheduled_tasks
        )
        cells = reduce_task_results(variant, coordinator.results())
        assert cells == variant_sequential.cells

    def test_local_backend_also_uses_cache(self, step_spec, sequential_result, tmp_path):
        cache = TaskCache(os.fspath(tmp_path / "cache"))
        first = run_scenario(step_spec, workers=1, cache=cache)
        assert first.cells == sequential_result.cells
        warm = TaskCache(os.fspath(tmp_path / "cache"))
        second = run_scenario(step_spec, workers=1, cache=warm)
        assert second.cells == sequential_result.cells
        assert warm.stats["hits"] == len(schedule_tasks(step_spec))
        assert warm.stats["stores"] == 0


# ---------------------------------------------------------------------------
# In-process reference memo (non-coordinator satellite)
# ---------------------------------------------------------------------------
class TestReferenceMemo:
    def test_plain_run_scenario_memoizes_reference_leaves(
        self, step_spec, monkeypatch
    ):
        clear_reference_memo()
        baseline = run_scenario(step_spec, workers=1)
        expected_refs = step_spec.num_cells * step_spec.num_test_cases
        assert reference_memo_size() == expected_refs

        def boom(*args, **kwargs):
            raise AssertionError("DP reference recomputed despite memo")

        monkeypatch.setattr(tasks_module, "dp_reference_frontier", boom)
        variant = dataclasses.replace(
            step_spec, name="memo-variant", step_checkpoints=(2, 3)
        )
        rerun = run_scenario(variant, workers=1)
        for cell in rerun.cells:
            assert cell.checkpoints == (2.0, 3.0)

    def test_wall_clock_references_are_not_memoized(self, step_spec):
        clear_reference_memo()
        wall_clock = dataclasses.replace(
            step_spec,
            step_checkpoints=None,
            time_budget=0.05,
            checkpoints=(0.05,),
            reference_time_budget=0.5,
        )
        run_scenario(wall_clock, workers=1)
        assert reference_memo_size() == 0

    def test_clear_reference_memo_reports_size(self, step_spec):
        clear_reference_memo()
        run_scenario(step_spec, workers=1)
        assert clear_reference_memo() == (
            step_spec.num_cells * step_spec.num_test_cases
        )
        assert reference_memo_size() == 0
