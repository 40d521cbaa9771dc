"""Tests for repro.bench.scenario and repro.bench.figures (scenario specs)."""

import pytest

from repro.baselines import available_algorithms
from repro.bench import figures
from repro.bench.scenario import ScenarioScale, ScenarioSpec
from repro.query.catalog import job_sample_catalog
from repro.query.generator import CardinalityModel, SelectivityModel
from repro.query.join_graph import GraphShape


def _minimal_spec(**overrides):
    defaults = dict(
        name="unit",
        description="unit-test scenario",
        graph_shapes=(GraphShape.CHAIN,),
        table_counts=(4,),
        num_metrics=2,
        algorithms=("RMQ",),
        checkpoints=(0.1, 0.2),
        time_budget=0.2,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestScenarioSpecValidation:
    def test_valid_spec(self):
        spec = _minimal_spec()
        assert spec.num_cells == 1

    def test_empty_shapes_rejected(self):
        with pytest.raises(ValueError):
            _minimal_spec(graph_shapes=())

    def test_tiny_table_count_rejected(self):
        with pytest.raises(ValueError):
            _minimal_spec(table_counts=(1,))

    def test_bad_metric_count_rejected(self):
        with pytest.raises(ValueError):
            _minimal_spec(num_metrics=0)
        with pytest.raises(ValueError):
            _minimal_spec(num_metrics=4)

    def test_empty_algorithms_rejected(self):
        with pytest.raises(ValueError):
            _minimal_spec(algorithms=())

    def test_unsorted_checkpoints_rejected(self):
        with pytest.raises(ValueError):
            _minimal_spec(checkpoints=(0.2, 0.1))

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError):
            _minimal_spec(time_budget=0.0)

    def test_error_cap_below_one_rejected(self):
        with pytest.raises(ValueError):
            _minimal_spec(error_cap=0.5)

    def test_workers_default_is_sequential(self):
        assert _minimal_spec().workers == 1

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            _minimal_spec(workers=0)

    def test_step_checkpoints_accepted(self):
        spec = _minimal_spec(step_checkpoints=(2, 4, 8))
        assert spec.step_checkpoints == (2, 4, 8)

    def test_invalid_step_checkpoints_rejected(self):
        with pytest.raises(ValueError):
            _minimal_spec(step_checkpoints=())
        with pytest.raises(ValueError):
            _minimal_spec(step_checkpoints=(0, 2))
        with pytest.raises(ValueError):
            _minimal_spec(step_checkpoints=(4, 2))

    def test_granularity_accepted(self):
        assert _minimal_spec().granularity == "auto"
        assert _minimal_spec(granularity="cell").granularity == "cell"
        assert _minimal_spec(granularity="case").granularity == "case"

    def test_invalid_granularity_rejected(self):
        with pytest.raises(ValueError):
            _minimal_spec(granularity="query")

    def test_from_json_defaults_for_old_payloads(self):
        # Payloads written before the coordinator PR carry no granularity;
        # they must load with the old semantics.
        data = _minimal_spec().to_json_dict()
        del data["granularity"]
        spec = ScenarioSpec.from_json_dict(data)
        assert spec.granularity == "cell"

    def test_from_json_ignores_retired_backend_field(self):
        # Payloads written while specs carried an execution ``backend``
        # still load; the field no longer exists.
        spec = _minimal_spec()
        for backend in ("local", "coordinator"):
            data = {**spec.to_json_dict(), "backend": backend}
            assert ScenarioSpec.from_json_dict(data) == spec
        assert "backend" not in spec.to_json_dict()

    def test_json_round_trip(self):
        spec = _minimal_spec(step_checkpoints=(2, 4), granularity="case")
        assert ScenarioSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_from_json_defaults_for_pre_zoo_payloads(self):
        # Payloads written before the workload-zoo PR carry neither the
        # cardinality model nor a catalog; they must load unchanged.
        data = _minimal_spec().to_json_dict()
        del data["cardinality_model"]
        del data["catalog_json"]
        spec = ScenarioSpec.from_json_dict(data)
        assert spec.cardinality_model is CardinalityModel.UNIFORM
        assert spec.catalog_json is None

    def test_workload_zoo_fields_round_trip(self):
        import json

        catalog_json = json.dumps(job_sample_catalog().to_json_dict())
        spec = _minimal_spec(
            cardinality_model=CardinalityModel.ZIPF, catalog_json=catalog_json
        )
        assert ScenarioSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_invalid_catalog_json_rejected(self):
        with pytest.raises(ValueError, match="catalog_json"):
            _minimal_spec(catalog_json="{not json")
        with pytest.raises(ValueError, match="catalog_json"):
            _minimal_spec(catalog_json="[1, 2]")

    def test_with_scale_overrides(self):
        spec = _minimal_spec()
        modified = spec.with_scale_overrides(
            table_counts=(4, 6), num_test_cases=7, time_budget=1.0,
            checkpoints=(0.5, 1.0), nsga_population=10, scale=ScenarioScale.SMOKE,
        )
        assert modified.table_counts == (4, 6)
        assert modified.num_test_cases == 7
        assert modified.scale is ScenarioScale.SMOKE
        # The original is unchanged (frozen dataclass semantics).
        assert spec.table_counts == (4,)


class TestFigureSpecs:
    @pytest.mark.parametrize("figure_id", sorted(figures.FIGURE_SPECS))
    @pytest.mark.parametrize("scale", list(ScenarioScale))
    def test_all_specs_construct_at_all_scales(self, figure_id, scale):
        spec = figures.FIGURE_SPECS[figure_id](scale)
        assert spec.name == figure_id
        assert spec.scale is scale
        assert spec.checkpoints[-1] == pytest.approx(spec.time_budget)

    def test_algorithms_are_registered(self):
        registered = set(available_algorithms())
        for constructor in figures.FIGURE_SPECS.values():
            spec = constructor(ScenarioScale.SMOKE)
            assert set(spec.algorithms) <= registered
            if spec.reference_algorithm is not None:
                assert spec.reference_algorithm in registered

    def test_paper_scale_matches_paper_parameters(self):
        spec = figures.figure1_spec(ScenarioScale.PAPER)
        assert spec.table_counts == (10, 25, 50, 75, 100)
        assert spec.num_test_cases == 20
        assert spec.time_budget == pytest.approx(3.0)
        assert spec.nsga_population == 200
        assert spec.num_metrics == 2
        spec2 = figures.figure2_spec(ScenarioScale.PAPER)
        assert spec2.num_metrics == 3

    def test_minmax_figures_use_minmax_selectivities(self):
        assert figures.figure4_spec().selectivity_model is SelectivityModel.MINMAX
        assert figures.figure5_spec().selectivity_model is SelectivityModel.MINMAX
        assert figures.figure1_spec().selectivity_model is SelectivityModel.STEINBRUNN

    def test_long_budget_figures_cap_error(self):
        assert figures.figure6_spec().error_cap == pytest.approx(1e10)
        assert figures.figure7_spec().error_cap == pytest.approx(1e10)
        assert figures.figure6_spec(ScenarioScale.PAPER).time_budget == pytest.approx(30.0)

    def test_precise_figures_use_dp_reference(self):
        assert figures.figure8_spec().reference_algorithm == "DP(1.01)"
        assert figures.figure9_spec().reference_algorithm == "DP(1.01)"
        assert figures.figure8_spec(ScenarioScale.PAPER).table_counts == (4, 8)

    def test_ablation_specs_use_rmq_variants(self):
        spec = figures.ablation_rmq_spec()
        assert "RMQ" in spec.algorithms
        assert "RMQ-NoCache" in spec.algorithms
        alpha_spec = figures.ablation_alpha_spec()
        assert "RMQ-AlphaFixed1" in alpha_spec.algorithms

    def test_all_shapes_covered_by_grid_figures(self):
        spec = figures.figure1_spec()
        assert set(spec.graph_shapes) == {
            GraphShape.CHAIN,
            GraphShape.CYCLE,
            GraphShape.STAR,
        }
