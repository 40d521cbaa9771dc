"""Tests for repro.bench.anytime (checkpointed evaluation)."""

import random

import pytest

from repro.baselines.random_sampling import RandomSamplingOptimizer
from repro.bench.anytime import CheckpointRecord, evaluate_anytime, evaluate_steps
from repro.baselines.dp import ArenaDPOptimizer


@pytest.fixture
def sampler(chain_model):
    return RandomSamplingOptimizer(chain_model, rng=random.Random(1), plans_per_step=2)


class TestEvaluateSteps:
    def test_records_match_checkpoints(self, sampler):
        records = evaluate_steps(sampler, [1, 3, 5])
        assert [record.checkpoint for record in records] == [1.0, 3.0, 5.0]
        assert [record.steps for record in records] == [1, 3, 5]

    def test_frontier_sizes_monotone_for_archiving_optimizer(self, sampler):
        records = evaluate_steps(sampler, [1, 5, 20])
        sizes = [record.frontier_size for record in records]
        assert sizes[0] >= 1
        # Not strictly monotone (archive can shrink via domination) but the
        # snapshots must always be non-empty once a step happened.
        assert all(size >= 1 for size in sizes)

    def test_finished_optimizer_stops_early(self, two_metric_model):
        dp = ArenaDPOptimizer(two_metric_model, alpha=2.0, tasks_per_step=10_000)
        records = evaluate_steps(dp, [1, 2, 100])
        assert dp.finished
        assert records[-1].frontier_size > 0

    def test_invalid_checkpoints_rejected(self, sampler):
        with pytest.raises(ValueError):
            evaluate_steps(sampler, [])
        with pytest.raises(ValueError):
            evaluate_steps(sampler, [5, 1])
        with pytest.raises(ValueError):
            evaluate_steps(sampler, [-1, 2])

    def test_record_fields(self, sampler):
        (record,) = evaluate_steps(sampler, [2])
        assert isinstance(record, CheckpointRecord)
        assert record.elapsed >= 0.0
        assert all(isinstance(cost, tuple) for cost in record.frontier_costs)


class TestEvaluateAnytime:
    def test_all_checkpoints_recorded(self, sampler):
        records = evaluate_anytime(sampler, [0.02, 0.05], time_budget=0.05)
        assert len(records) == 2
        assert records[0].checkpoint == pytest.approx(0.02)
        assert records[1].checkpoint == pytest.approx(0.05)

    def test_budget_defaults_to_last_checkpoint(self, sampler):
        records = evaluate_anytime(sampler, [0.02, 0.04])
        assert len(records) == 2
        assert sampler.statistics.steps >= 1

    def test_snapshots_taken_even_if_budget_tiny(self, sampler):
        records = evaluate_anytime(sampler, [0.001], time_budget=0.001)
        assert len(records) == 1

    def test_invalid_checkpoints_rejected(self, sampler):
        with pytest.raises(ValueError):
            evaluate_anytime(sampler, [])
        with pytest.raises(ValueError):
            evaluate_anytime(sampler, [0.2, 0.1])

    def test_later_checkpoints_have_at_least_as_many_steps(self, sampler):
        records = evaluate_anytime(sampler, [0.01, 0.03, 0.06], time_budget=0.06)
        steps = [record.steps for record in records]
        assert steps == sorted(steps)


class FakeClock:
    """Deterministic clock: returns scripted values, then repeats the last."""

    def __init__(self, values):
        self._values = list(values)

    def __call__(self):
        if len(self._values) > 1:
            return self._values.pop(0)
        return self._values[0]


class TestBudgetBoundary:
    """Regression tests: a checkpoint that falls exactly on the budget
    boundary is snapshotted exactly once — by the in-loop scan, never again
    by the post-loop flush."""

    def test_checkpoint_on_budget_boundary_snapshotted_once(self, sampler):
        # start=0.0; elapsed 0.0 (step), 1.0 (snapshot cp1, step),
        # 2.0 (snapshot cp2 == budget, stop).
        clock = FakeClock([0.0, 0.0, 1.0, 2.0])
        records = evaluate_anytime(sampler, [1.0, 2.0], time_budget=2.0, clock=clock)
        assert [record.checkpoint for record in records] == [1.0, 2.0]

    def test_budget_break_at_checkpoint_does_not_duplicate_flush(self, sampler):
        # Budget equals the first checkpoint: the tick at elapsed 1.0
        # snapshots cp1 and the budget stops the run; only cp2 is flushed.
        clock = FakeClock([0.0, 0.0, 1.0])
        records = evaluate_anytime(sampler, [1.0, 2.0], time_budget=1.0, clock=clock)
        assert [record.checkpoint for record in records] == [1.0, 2.0]
        # The flushed record reuses the elapsed of the final tick.
        assert records[1].elapsed == records[0].elapsed

    def test_all_checkpoints_unique_when_budget_is_last_checkpoint(self, sampler):
        clock = FakeClock([0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        records = evaluate_anytime(sampler, [1.0, 2.0, 3.0], clock=clock)
        checkpoints = [record.checkpoint for record in records]
        assert checkpoints == [1.0, 2.0, 3.0]
        assert len(set(checkpoints)) == len(checkpoints)

    def test_finished_optimizer_flushes_each_remaining_checkpoint_once(
        self, two_metric_model
    ):
        dp = ArenaDPOptimizer(two_metric_model, alpha=2.0, tasks_per_step=10_000)
        records = evaluate_anytime(dp, [10.0, 20.0], time_budget=30.0)
        assert dp.finished
        assert [record.checkpoint for record in records] == [10.0, 20.0]

    def test_finishing_step_still_snapshots_with_fresh_elapsed(self, two_metric_model):
        # A step that crosses a checkpoint *and* finishes the optimizer must
        # still be followed by one tick, so the snapshot carries the elapsed
        # measured after that step — not the stale pre-step value.
        dp = ArenaDPOptimizer(two_metric_model, alpha=2.0, tasks_per_step=10_000)
        clock = FakeClock([0.0, 0.5, 2.0])
        records = evaluate_anytime(dp, [1.0], time_budget=5.0, clock=clock)
        assert [record.checkpoint for record in records] == [1.0]
        assert records[0].elapsed == 2.0
