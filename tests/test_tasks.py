"""Tests for the benchmark task graph (repro.bench.tasks).

The headline property — pinned by ``TestShardDeterminism`` — is that a
step-driven scenario produces bit-identical results however it is executed:
on one worker or several, at ``cell`` or ``case`` granularity, or as shards
serialized to JSON and merged later — always equal to the sequential oracle
of ``tests/conftest.py``.
"""

import dataclasses
import json
import os

import pytest

from repro.bench.anytime import CheckpointRecord
from repro.bench.runner import merge_shards, reduce_task_results, run_scenario
from repro.bench.scenario import ScenarioScale, ScenarioSpec
from repro.bench.tasks import (
    ROLE_ALGORITHM,
    ROLE_REFERENCE,
    TaskResult,
    TaskSpec,
    SHARD_FORMAT,
    execute_task,
    load_shards,
    resolve_granularity,
    run_shard,
    schedule_tasks,
    shard_tasks,
    write_shard,
)
from repro.query.join_graph import GraphShape


@pytest.fixture(scope="module")
def step_spec():
    """Deterministic step-driven smoke spec (two cells, two algorithms)."""
    return ScenarioSpec(
        name="tasks-smoke",
        description="task graph determinism smoke spec",
        graph_shapes=(GraphShape.CHAIN, GraphShape.STAR),
        table_counts=(4,),
        num_metrics=2,
        algorithms=("RandomSampling", "RMQ"),
        num_test_cases=2,
        step_checkpoints=(2, 4),
        seed=11,
        scale=ScenarioScale.SMOKE,
    )


@pytest.fixture(scope="module")
def reference_spec():
    """Step-driven spec with a DP reference task per test case."""
    return ScenarioSpec(
        name="tasks-reference",
        description="task graph spec with reference tasks",
        graph_shapes=(GraphShape.CHAIN,),
        table_counts=(4,),
        num_metrics=2,
        algorithms=("RandomSampling",),
        num_test_cases=2,
        step_checkpoints=(2, 3),
        reference_algorithm="DP(1.01)",
        seed=13,
        scale=ScenarioScale.SMOKE,
    )


class TestSchedule:
    def test_one_task_per_cell_case_algorithm(self, step_spec):
        tasks = schedule_tasks(step_spec)
        expected = (
            step_spec.num_cells
            * step_spec.num_test_cases
            * len(step_spec.algorithms)
        )
        assert len(tasks) == expected
        assert all(task.role == ROLE_ALGORITHM for task in tasks)

    def test_reference_tasks_scheduled_per_case(self, reference_spec):
        tasks = schedule_tasks(reference_spec)
        references = [task for task in tasks if task.role == ROLE_REFERENCE]
        assert len(references) == reference_spec.num_cells * reference_spec.num_test_cases
        assert all(task.algorithm == "DP(1.01)" for task in references)

    def test_schedule_is_deterministic(self, step_spec):
        assert schedule_tasks(step_spec) == schedule_tasks(step_spec)

    def test_invalid_role_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec(
                role="mystery",
                shape=GraphShape.CHAIN,
                num_tables=4,
                case_index=0,
                algorithm="RMQ",
            )


class TestSharding:
    def test_shards_partition_the_schedule(self, step_spec):
        tasks = schedule_tasks(step_spec)
        for count in (1, 2, 3):
            shards = [shard_tasks(tasks, index, count) for index in range(count)]
            merged = [task for shard in shards for task in shard]
            assert sorted(merged, key=tasks.index) == tasks
            seen = set()
            for shard in shards:
                for task in shard:
                    assert task not in seen
                    seen.add(task)

    def test_invalid_shard_designators_rejected(self, step_spec):
        tasks = schedule_tasks(step_spec)
        with pytest.raises(ValueError):
            shard_tasks(tasks, 0, 0)
        with pytest.raises(ValueError):
            shard_tasks(tasks, 2, 2)
        with pytest.raises(ValueError):
            shard_tasks(tasks, -1, 2)


class TestSerialization:
    def test_task_spec_round_trip(self, step_spec):
        for task in schedule_tasks(step_spec):
            assert TaskSpec.from_json_dict(task.to_json_dict()) == task

    def test_task_result_round_trip_is_bit_exact(self, step_spec):
        task = schedule_tasks(step_spec)[0]
        result = execute_task(step_spec, task)
        recovered = TaskResult.from_json_dict(
            json.loads(json.dumps(result.to_json_dict()))
        )
        assert recovered == result

    def test_spec_round_trip(self, step_spec, reference_spec):
        for spec in (step_spec, reference_spec):
            assert ScenarioSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_infinite_costs_survive_round_trip(self):
        record = CheckpointRecord(
            checkpoint=1.0,
            elapsed=0.5,
            steps=1,
            frontier_costs=((float("inf"), 2.0),),
        )
        result = TaskResult(
            task=TaskSpec(
                role=ROLE_ALGORITHM,
                shape=GraphShape.CHAIN,
                num_tables=4,
                case_index=0,
                algorithm="RMQ",
            ),
            records=(record,),
        )
        recovered = TaskResult.from_json_dict(
            json.loads(json.dumps(result.to_json_dict()))
        )
        assert recovered == result


class TestShardDeterminism:
    """Oracle == parallel run at any granularity == shard merge, bit-for-bit."""

    def test_case_granularity_parallel_matches_sequential(
        self, step_spec, sequential_result
    ):
        parallel = run_scenario(step_spec, workers=4, granularity="case")
        assert parallel.cells == sequential_result.cells

    def test_cell_granularity_parallel_matches_sequential(
        self, step_spec, sequential_result
    ):
        parallel = run_scenario(step_spec, workers=2, granularity="cell")
        assert parallel.cells == sequential_result.cells

    def test_two_shard_merge_matches_sequential(
        self, step_spec, sequential_result, tmp_path
    ):
        paths = []
        for index in range(2):
            path = os.fspath(tmp_path / f"shard{index}.json")
            write_shard(path, step_spec, index, 2, run_shard(step_spec, index, 2))
            paths.append(path)
        merged = merge_shards(paths)
        assert merged.spec == step_spec
        assert merged.cells == sequential_result.cells

    def test_reference_spec_merge_matches_sequential(
        self, reference_spec, sequential_oracle, tmp_path
    ):
        sequential = sequential_oracle(reference_spec)
        paths = []
        for index in range(2):
            path = os.fspath(tmp_path / f"ref-shard{index}.json")
            write_shard(
                path, reference_spec, index, 2, run_shard(reference_spec, index, 2)
            )
            paths.append(path)
        assert merge_shards(paths).cells == sequential.cells

    def test_reduce_is_order_insensitive(self, step_spec, sequential_result):
        results = [execute_task(step_spec, task) for task in schedule_tasks(step_spec)]
        reversed_reduce = reduce_task_results(step_spec, list(reversed(results)))
        assert reversed_reduce == sequential_result.cells


class TestMergeValidation:
    def _write(self, path, spec, index, count, results):
        write_shard(os.fspath(path), spec, index, count, results)
        return os.fspath(path)

    def test_missing_shard_rejected(self, step_spec, tmp_path):
        path = self._write(
            tmp_path / "only0.json", step_spec, 0, 2, run_shard(step_spec, 0, 2)
        )
        with pytest.raises(ValueError, match="missing shard indices"):
            load_shards([path])

    def test_duplicate_shard_rejected(self, step_spec, tmp_path):
        results = run_shard(step_spec, 0, 2)
        paths = [
            self._write(tmp_path / "a.json", step_spec, 0, 2, results),
            self._write(tmp_path / "b.json", step_spec, 0, 2, results),
        ]
        with pytest.raises(ValueError, match="duplicate shard index"):
            load_shards(paths)

    def test_mismatched_spec_rejected(self, step_spec, tmp_path):
        other_spec = dataclasses.replace(step_spec, seed=step_spec.seed + 1)
        paths = [
            self._write(tmp_path / "a.json", step_spec, 0, 2, run_shard(step_spec, 0, 2)),
            self._write(
                tmp_path / "b.json", other_spec, 1, 2, run_shard(other_spec, 1, 2)
            ),
        ]
        with pytest.raises(ValueError, match="spec differs"):
            load_shards(paths)

    def test_incomplete_coverage_rejected(self, step_spec, tmp_path):
        # Claim full coverage (one shard of one) but drop a task result.
        results = run_shard(step_spec, 0, 1)[:-1]
        path = self._write(tmp_path / "partial.json", step_spec, 0, 1, results)
        with pytest.raises(ValueError, match="do not cover the schedule"):
            load_shards([path])

    def test_non_shard_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match=f"not a {SHARD_FORMAT}"):
            load_shards([os.fspath(path)])

    def test_previous_shard_format_refused_by_name(self, step_spec, tmp_path):
        # A v2 shard embeds the retired ``backend`` spec field; it must be
        # refused by its format name, not by a misleading hash mismatch.
        path = os.fspath(tmp_path / "v2.json")
        write_shard(path, step_spec, 0, 1, run_shard(step_spec, 0, 1))
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["format"] = "repro-shard-v2"
        payload["spec"]["backend"] = "local"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match="not a repro-shard-v3 shard file"):
            load_shards([path])

    def test_tampered_spec_rejected_by_provenance_hash(self, step_spec, tmp_path):
        # Editing the embedded spec after the run must be caught even though
        # the file is otherwise self-consistent.
        path = os.fspath(tmp_path / "tampered.json")
        write_shard(path, step_spec, 0, 1, run_shard(step_spec, 0, 1))
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["spec"]["seed"] = payload["spec"]["seed"] + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match="provenance hash mismatch"):
            load_shards([path])

    def test_missing_spec_hash_rejected(self, step_spec, tmp_path):
        path = os.fspath(tmp_path / "nohash.json")
        write_shard(path, step_spec, 0, 1, run_shard(step_spec, 0, 1))
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        del payload["spec_hash"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match="no spec provenance hash"):
            load_shards([path])

    def test_empty_path_list_rejected(self):
        with pytest.raises(ValueError):
            load_shards([])


class TestAutoGranularity:
    """'auto' picks cell vs. case from the task-count/worker ratio."""

    def test_explicit_granularities_pass_through(self, step_spec):
        tasks = schedule_tasks(step_spec)
        assert resolve_granularity("cell", tasks, 8) == "cell"
        assert resolve_granularity("case", tasks, 1) == "case"

    def test_auto_is_cell_for_sequential_runs(self, step_spec):
        assert resolve_granularity("auto", schedule_tasks(step_spec), 1) == "cell"

    def test_auto_switches_on_group_to_worker_ratio(self, step_spec):
        # The smoke spec has two cells: plenty of groups for no one, so any
        # multi-worker run should prefer within-cell parallelism.
        tasks = schedule_tasks(step_spec)
        assert resolve_granularity("auto", tasks, 2) == "case"
        many_cells = dataclasses.replace(
            step_spec, table_counts=tuple(range(4, 4 + 8))
        )
        wide = schedule_tasks(many_cells)  # 2 shapes x 8 sizes = 16 groups
        assert resolve_granularity("auto", wide, 2) == "cell"
        assert resolve_granularity("auto", wide, 8) == "case"

    def test_unknown_granularity_rejected(self, step_spec):
        with pytest.raises(ValueError):
            resolve_granularity("query", schedule_tasks(step_spec), 2)

    def test_auto_execution_matches_sequential(self, step_spec, sequential_result):
        parallel = run_scenario(step_spec, workers=2, granularity="auto")
        assert parallel.cells == sequential_result.cells


class TestProvenance:
    def test_records_carry_steps_and_elapsed(self, step_spec):
        result = execute_task(step_spec, schedule_tasks(step_spec)[0])
        assert result.steps == step_spec.step_checkpoints[-1]
        assert result.elapsed >= 0.0
        assert result.task.task_id.startswith("algorithm:")

    def test_provenance_report_lists_every_task(self, step_spec):
        from repro.bench.reporting import format_task_provenance

        results = [
            execute_task(step_spec, task) for task in schedule_tasks(step_spec)[:3]
        ]
        report = format_task_provenance(results)
        assert "Task provenance (3 tasks):" in report
        for result in results:
            assert result.task.task_id in report
