"""Tests for repro.bench.runner (scenario execution) and reporting.

These are integration-style tests of the harness; they use a deliberately
tiny scenario (one shape, one size, two fast algorithms, short budget) so the
whole module runs in a few seconds.
"""

import random

import pytest

from repro.bench.reporting import format_scenario_report, summarize_winners
from repro.bench.runner import (
    CellResult,
    build_optimizer,
    run_scenario,
    _median_over_cases,
    _reference_alpha,
)
from repro.bench.scenario import ScenarioScale, ScenarioSpec
from repro.baselines.nsga2 import NSGA2Optimizer
from repro.core.rmq import RMQOptimizer
from repro.query.join_graph import GraphShape


@pytest.fixture(scope="module")
def tiny_spec():
    return ScenarioSpec(
        name="tiny",
        description="tiny runner test scenario",
        graph_shapes=(GraphShape.CHAIN,),
        table_counts=(4,),
        num_metrics=2,
        algorithms=("RMQ", "RandomSampling"),
        num_test_cases=2,
        time_budget=0.1,
        checkpoints=(0.05, 0.1),
        seed=7,
        scale=ScenarioScale.SMOKE,
    )


@pytest.fixture(scope="module")
def tiny_result(tiny_spec):
    return run_scenario(tiny_spec)


class TestRunScenario:
    def test_one_cell_per_shape_size_algorithm(self, tiny_result, tiny_spec):
        assert len(tiny_result.cells) == tiny_spec.num_cells * len(tiny_spec.algorithms)

    def test_cell_lookup(self, tiny_result):
        cell = tiny_result.cell(GraphShape.CHAIN, 4, "RMQ")
        assert isinstance(cell, CellResult)
        assert cell.algorithm == "RMQ"
        with pytest.raises(KeyError):
            tiny_result.cell(GraphShape.STAR, 4, "RMQ")

    def test_errors_are_at_least_one(self, tiny_result):
        for cell in tiny_result.cells:
            for error in cell.median_errors:
                assert error >= 1.0

    def test_errors_never_increase_over_checkpoints(self, tiny_result):
        """Frontiers only grow within a run, so the median error is non-increasing."""
        for cell in tiny_result.cells:
            errors = list(cell.median_errors)
            for earlier, later in zip(errors, errors[1:]):
                assert later <= earlier * (1 + 1e-9)

    def test_final_error_property(self, tiny_result):
        for cell in tiny_result.cells:
            assert cell.final_error == cell.median_errors[-1]

    def test_final_errors_by_algorithm(self, tiny_result, tiny_spec):
        grouped = tiny_result.final_errors_by_algorithm()
        assert set(grouped) == set(tiny_spec.algorithms)
        assert all(len(values) == tiny_spec.num_cells for values in grouped.values())

    def test_reference_makes_at_least_one_algorithm_finite(self, tiny_result):
        """The reference is the union of all results, so the best final error
        per cell is finite (some algorithm covers its own contribution)."""
        finals = [
            tiny_result.cell(GraphShape.CHAIN, 4, algorithm).final_error
            for algorithm in tiny_result.spec.algorithms
        ]
        assert min(finals) < float("inf")

    def test_error_cap_applied(self):
        spec = ScenarioSpec(
            name="capped",
            description="error cap test",
            graph_shapes=(GraphShape.CHAIN,),
            table_counts=(4,),
            num_metrics=2,
            algorithms=("RandomSampling",),
            num_test_cases=1,
            time_budget=0.05,
            checkpoints=(0.05,),
            error_cap=1.0,
            seed=3,
        )
        result = run_scenario(spec)
        assert all(error <= 1.0 for cell in result.cells for error in cell.median_errors)


class TestBuildOptimizer:
    def test_nsga_population_from_spec(self, tiny_spec, chain_model):
        spec = tiny_spec.with_scale_overrides(nsga_population=8)
        optimizer = build_optimizer("NSGA-II", chain_model, random.Random(0), spec)
        assert isinstance(optimizer, NSGA2Optimizer)
        assert optimizer.population_size == 8

    def test_rmq_uses_compressed_schedule_at_reduced_scale(self, tiny_spec, chain_model):
        optimizer = build_optimizer("RMQ", chain_model, random.Random(0), tiny_spec)
        assert isinstance(optimizer, RMQOptimizer)
        # Compressed schedule decays much faster than the paper schedule.
        assert optimizer._approximator.schedule.alpha(100) < 25.0 * 0.99

    def test_rmq_uses_paper_schedule_at_paper_scale(self, tiny_spec, chain_model):
        spec = tiny_spec.with_scale_overrides(scale=ScenarioScale.PAPER)
        optimizer = build_optimizer("RMQ", chain_model, random.Random(0), spec)
        assert optimizer._approximator.schedule.alpha(100) == pytest.approx(25.0 * 0.99**4)

    def test_reference_alpha_parsing(self):
        assert _reference_alpha("DP(1.01)") == pytest.approx(1.01)
        assert _reference_alpha("DP(Infinity)") == float("inf")
        with pytest.raises(ValueError):
            _reference_alpha("NSGA-II")


class TestMedianOverCases:
    INF = float("inf")

    def test_all_finite(self):
        assert _median_over_cases([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]) == [3.0, 4.0]

    def test_all_infinite_column_reports_inf(self):
        assert _median_over_cases([[self.INF], [self.INF]]) == [self.INF]

    def test_mixed_column_inf_sorts_last(self):
        # Odd count: the middle of [1, 3, inf] is 3.
        assert _median_over_cases([[1.0], [self.INF], [3.0]]) == [3.0]

    def test_mixed_even_count_can_report_inf(self):
        # Even count: the median of [1, inf] is the mean, which is inf.
        assert _median_over_cases([[1.0], [self.INF]]) == [self.INF]

    def test_majority_infinite_reports_inf(self):
        assert _median_over_cases([[1.0], [self.INF], [self.INF]]) == [self.INF]

    def test_empty_input(self):
        assert _median_over_cases([]) == []


class TestParallelRunner:
    @pytest.fixture(scope="class")
    def deterministic_spec(self):
        """Step-driven spec: results must be identical for any worker count."""
        return ScenarioSpec(
            name="parallel",
            description="parallel determinism test scenario",
            graph_shapes=(GraphShape.CHAIN, GraphShape.STAR),
            table_counts=(4,),
            num_metrics=2,
            algorithms=("RandomSampling", "RMQ"),
            num_test_cases=2,
            step_checkpoints=(2, 4),
            seed=11,
            scale=ScenarioScale.SMOKE,
        )

    def test_workers_reproduce_sequential_results(
        self, deterministic_spec, sequential_oracle
    ):
        sequential = sequential_oracle(deterministic_spec)
        for workers in (1, 2):
            result = run_scenario(deterministic_spec, workers=workers)
            assert result.cells == sequential.cells

    def test_workers_from_spec(self, deterministic_spec, sequential_oracle):
        import dataclasses

        spec = dataclasses.replace(deterministic_spec, workers=2)
        assert run_scenario(spec).cells == sequential_oracle(deterministic_spec).cells

    def test_step_checkpoints_reported_as_checkpoint_values(self, deterministic_spec):
        result = run_scenario(deterministic_spec)
        for cell in result.cells:
            assert cell.checkpoints == (2.0, 4.0)

    def test_step_driven_report_labels_steps_not_seconds(self, deterministic_spec):
        report = format_scenario_report(run_scenario(deterministic_spec))
        assert "step=2  step=4" in report
        assert "budget=4 steps" in report
        # No wall-clock column labels (t=0.25s etc.) in a step-driven report.
        assert "t=0" not in report

    def test_invalid_worker_count_rejected(self, deterministic_spec):
        with pytest.raises(ValueError):
            run_scenario(deterministic_spec, workers=0)


class TestReporting:
    def test_report_mentions_all_algorithms_and_cells(self, tiny_result, tiny_spec):
        report = format_scenario_report(tiny_result)
        for algorithm in tiny_spec.algorithms:
            assert algorithm in report
        assert "Chain, 4 tables" in report
        assert "t=0.05s" in report

    def test_summarize_winners_counts(self, tiny_result):
        summary = summarize_winners(tiny_result)
        assert "Winners per cell" in summary
        assert "Win counts" in summary

    def test_report_formats_infinite_errors(self):
        spec = ScenarioSpec(
            name="inf",
            description="DP cannot finish on a larger query in 50 ms",
            graph_shapes=(GraphShape.CHAIN,),
            table_counts=(8,),
            num_metrics=2,
            algorithms=("DP(2)", "RandomSampling"),
            num_test_cases=1,
            time_budget=0.05,
            checkpoints=(0.05,),
            seed=5,
        )
        result = run_scenario(spec)
        report = format_scenario_report(result)
        assert "inf" in report
