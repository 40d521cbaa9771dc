"""Tests for repro.regress (fingerprints, archive, zoo, regress CLI)."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import repro.cost.model as cost_model_module
from repro.bench.cli import run as cli_run
from repro.cost.metrics import CostModelConfig
from repro.query.join_graph import GraphShape
from repro.regress import (
    ARCHIVE_FORMAT,
    Archive,
    ArchiveEntry,
    Coordinate,
    cost_row,
    diff_archives,
    fingerprint_rows,
    frontier_fingerprint,
    load_archive,
    run_coordinate,
    run_zoo,
    save_archive,
    zoo_coordinates,
)
from repro.regress.fingerprint import float_hex
from repro.regress.zoo import (
    ZOO_ALGORITHMS,
    ZOO_SHAPES,
    ZOO_STAT_MODELS,
    coordinate_inputs,
    coverage_summary,
    pin_run,
)

ARCHIVE_PATH = "tests/regression/archive.json"

# Finite and non-finite float64 values, NaN and ±inf included.
costs = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([0.0, -0.0, 1.0, float("inf"), float("-inf"), float("nan")]),
)
cost_vectors = st.lists(costs, min_size=1, max_size=4)
row_sets = st.lists(cost_vectors, min_size=1, max_size=6)


def _rows(vectors):
    return [cost_row(vector, shape=f"s{i}") for i, vector in enumerate(vectors)]


class TestFingerprintProperties:
    @settings(max_examples=100, deadline=None)
    @given(vectors=row_sets, seed=st.integers(0, 2**16))
    def test_insertion_order_invariance(self, vectors, seed):
        rows = _rows(vectors)
        shuffled = list(rows)
        random.Random(seed).shuffle(shuffled)
        assert fingerprint_rows(rows) == fingerprint_rows(shuffled)

    @settings(max_examples=100, deadline=None)
    @given(
        vectors=row_sets,
        data=st.data(),
        perturbed=costs,
    )
    def test_single_value_perturbation_changes_fingerprint(
        self, vectors, data, perturbed
    ):
        row_index = data.draw(st.integers(0, len(vectors) - 1))
        col_index = data.draw(st.integers(0, len(vectors[row_index]) - 1))
        original = vectors[row_index][col_index]
        # Skip only true no-ops: the identical bit pattern (NaN included).
        if float_hex(perturbed) == float_hex(original):
            return
        mutated = [list(vector) for vector in vectors]
        mutated[row_index][col_index] = perturbed
        assert fingerprint_rows(_rows(vectors)) != fingerprint_rows(_rows(mutated))

    @settings(max_examples=50, deadline=None)
    @given(vectors=row_sets)
    def test_fingerprint_is_deterministic(self, vectors):
        assert fingerprint_rows(_rows(vectors)) == fingerprint_rows(_rows(vectors))

    def test_nan_and_infinities_are_distinct_values(self):
        base = [1.0, 2.0]
        variants = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0]
        prints = {
            fingerprint_rows([cost_row([value] + base)]) for value in variants
        }
        assert len(prints) == len(variants)

    def test_all_nans_fingerprint_identically(self):
        quiet = float("nan")
        other = float("inf") - float("inf")  # another NaN
        assert fingerprint_rows([cost_row([quiet])]) == fingerprint_rows(
            [cost_row([other])]
        )

    def test_adjacent_float64_values_distinguished(self):
        import math

        value = 1.0
        neighbor = math.nextafter(value, 2.0)
        assert fingerprint_rows([cost_row([value])]) != fingerprint_rows(
            [cost_row([neighbor])]
        )

    def test_plan_shape_contributes(self):
        assert fingerprint_rows([cost_row([1.0], shape="aa")]) != fingerprint_rows(
            [cost_row([1.0], shape="bb")]
        )

    def test_duplicate_rows_are_counted(self):
        row = cost_row([1.0, 2.0], shape="s")
        assert fingerprint_rows([row]) != fingerprint_rows([row, row])


class TestFrontierFingerprints:
    def test_frontier_order_invariance(self):
        from repro.bench.scenario import ScenarioSpec
        from repro.bench.tasks import build_test_case
        from oracle.random_plans import RandomPlanGenerator

        spec = ScenarioSpec(
            name="fp", description="fp", graph_shapes=(GraphShape.CHAIN,),
            table_counts=(4,), num_metrics=2, algorithms=("RandomSampling",),
            step_checkpoints=(1,),
        )
        model = build_test_case(spec, GraphShape.CHAIN, 4, 0)
        generator = RandomPlanGenerator(model, random.Random(3))
        plans = generator.random_plans(5)
        assert frontier_fingerprint(plans) == frontier_fingerprint(
            list(reversed(plans))
        )


def _coordinate(index=0):
    return Coordinate(
        workload="chain-uniform",
        algorithm=f"Algo{index}",
        seed=1,
        alpha=None,
    )


def _entry(index=0, fingerprint=None):
    return ArchiveEntry(
        coordinate=_coordinate(index),
        fingerprint=fingerprint or ("ab" * 32),
        frontier_size=3,
    )


class TestArchive:
    def test_round_trip_via_file(self, tmp_path):
        archive = Archive([_entry(0), _entry(1, fingerprint="cd" * 32)])
        path = str(tmp_path / "archive.json")
        save_archive(archive, path)
        loaded = load_archive(path)
        assert len(loaded) == 2
        assert loaded.get(_coordinate(0)).fingerprint == "ab" * 32
        assert loaded.get(_coordinate(1)).fingerprint == "cd" * 32

    def test_entries_sorted_for_stable_diffs(self, tmp_path):
        path_a = str(tmp_path / "a.json")
        path_b = str(tmp_path / "b.json")
        save_archive(Archive([_entry(0), _entry(1)]), path_a)
        save_archive(Archive([_entry(1), _entry(0)]), path_b)
        assert open(path_a).read() == open(path_b).read()

    def test_wrong_format_rejected(self, tmp_path):
        path = str(tmp_path / "archive.json")
        path_obj = tmp_path / "archive.json"
        path_obj.write_text(json.dumps({"format": "other", "entries": []}))
        with pytest.raises(ValueError, match="format"):
            load_archive(path)

    def test_v1_archive_rejected_naming_its_format(self, tmp_path):
        # v1 coordinates carried a plan engine; they are never reinterpreted.
        path_obj = tmp_path / "archive.json"
        path_obj.write_text(
            json.dumps({"format": "repro-regress-archive-v1", "entries": []})
        )
        with pytest.raises(ValueError, match="repro-regress-archive-v1"):
            load_archive(str(path_obj))

    def test_invalid_json_rejected(self, tmp_path):
        path_obj = tmp_path / "archive.json"
        path_obj.write_text("{broken")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_archive(str(path_obj))

    def test_tampered_signature_rejected_not_skipped(self, tmp_path):
        path = str(tmp_path / "archive.json")
        save_archive(Archive([_entry(0)]), path)
        data = json.load(open(path))
        data["entries"][0]["coordinate"]["algorithm"] = "Edited"
        (tmp_path / "archive.json").write_text(json.dumps(data))
        with pytest.raises(ValueError, match="signature does not match"):
            load_archive(path)

    def test_truncated_entry_rejected(self, tmp_path):
        path = str(tmp_path / "archive.json")
        save_archive(Archive([_entry(0)]), path)
        data = json.load(open(path))
        del data["entries"][0]["fingerprint"]
        (tmp_path / "archive.json").write_text(json.dumps(data))
        with pytest.raises(ValueError, match="entry #0"):
            load_archive(path)

    def test_duplicate_coordinate_rejected(self, tmp_path):
        path = str(tmp_path / "archive.json")
        save_archive(Archive([_entry(0)]), path)
        data = json.load(open(path))
        data["entries"].append(data["entries"][0])
        (tmp_path / "archive.json").write_text(json.dumps(data))
        with pytest.raises(ValueError, match="twice"):
            load_archive(path)

    def test_diff_statuses(self):
        pinned = Archive([_entry(0), _entry(1), _entry(2)])
        fresh = Archive(
            [_entry(0), _entry(1, fingerprint="ef" * 32), _entry(3)]
        )
        diff = diff_archives(pinned, fresh)
        assert not diff.ok
        assert [c.algorithm for c in diff.matches] == ["Algo0"]
        assert [c.algorithm for c, _, _ in diff.mismatches] == ["Algo1"]
        assert [c.algorithm for c in diff.missing] == ["Algo2"]
        assert [c.algorithm for c in diff.unpinned] == ["Algo3"]

    def test_drift_report_names_exact_coordinate(self):
        pinned = Archive([_entry(0)])
        fresh = Archive([_entry(0, fingerprint="ef" * 32)])
        report = diff_archives(pinned, fresh).render()
        assert "MISMATCH" in report
        assert _coordinate(0).label in report


class TestZooGrid:
    def test_grid_dimensions_meet_coverage_floor(self):
        assert len(ZOO_SHAPES) >= 5
        assert len(ZOO_STAT_MODELS) >= 3
        assert len(ZOO_ALGORITHMS) >= 8
        coords = zoo_coordinates()
        assert len(coords) == (
            len(ZOO_SHAPES) * len(ZOO_STAT_MODELS) * len(ZOO_ALGORITHMS)
        )
        assert len({c.signature() for c in coords}) == len(coords)

    def test_run_coordinate_is_deterministic(self):
        coordinate = zoo_coordinates()[0]
        first = run_coordinate(coordinate)
        second = run_coordinate(coordinate)
        assert first.fingerprint == second.fingerprint
        assert first.frontier_size == second.frontier_size > 0

    def test_dp_coordinates_carry_alpha(self):
        for coordinate in zoo_coordinates():
            if coordinate.algorithm.startswith("DP("):
                assert coordinate.alpha == 2.0
            else:
                assert coordinate.alpha is None


class TestPinnedArchive:
    def test_pinned_archive_loads_with_full_zoo_coverage(self):
        archive = load_archive(ARCHIVE_PATH)
        coverage = coverage_summary(archive)
        assert coverage["shapes"] >= 5
        assert coverage["stat_models"] >= 3
        assert coverage["algorithms"] >= 8
        pinned = {entry.coordinate for entry in archive.entries()}
        assert all(coordinate in pinned for coordinate in zoo_coordinates())

    def test_sampled_coordinates_reproduce_pinned_fingerprints(self):
        # The full sweep is the CI `regress check` job; here a spread sample
        # re-proves reproducibility on every pytest run.
        archive = load_archive(ARCHIVE_PATH)
        sample = zoo_coordinates()[::27]
        for coordinate in sample:
            entry = run_coordinate(coordinate)
            pinned = archive.get(coordinate)
            assert pinned is not None, coordinate.label
            assert entry.fingerprint == pinned.fingerprint, coordinate.label

    def test_object_oracle_reproduces_every_pinned_fingerprint(self):
        # The pins hold for the object-plan oracle too: the same inputs run
        # through the paper's pseudocode over Plan trees, at every zoo
        # coordinate, fingerprint exactly as the library's arena runs do.
        archive = load_archive(ARCHIVE_PATH)
        drifted = []
        for coordinate in zoo_coordinates():
            spec, cost_model, rng = coordinate_inputs(coordinate)
            optimizer = oracle.build_optimizer(coordinate.algorithm, cost_model, rng, spec)
            entry = pin_run(coordinate, optimizer)
            pinned = archive.get(coordinate)
            if (entry.fingerprint, entry.frontier_size) != (
                pinned.fingerprint,
                pinned.frontier_size,
            ):
                drifted.append(coordinate.label)
        assert drifted == []

    def test_perturbed_cost_constant_fails_check_naming_coordinate(self):
        # The satellite requirement: an (intentionally wrong) change to a
        # cost constant must surface as drift at the exact coordinate.
        pinned = load_archive(ARCHIVE_PATH)
        coords = [c for c in zoo_coordinates() if c.workload == "star-minmax"][:4]
        with mock.patch.object(
            cost_model_module,
            "CostModelConfig",
            lambda: CostModelConfig(cpu_cost_per_row=0.002),
        ):
            fresh = run_zoo(coords)
        diff = diff_archives(pinned, fresh)
        assert not diff.ok
        drifted = {coordinate.label for coordinate, _, _ in diff.mismatches}
        assert any("star-minmax" in label for label in drifted)
        assert "star-minmax" in diff.render()


class TestRegressCli:
    @pytest.fixture
    def small_zoo(self, monkeypatch):
        subset = zoo_coordinates()[:6]
        monkeypatch.setattr(
            "repro.regress.zoo.zoo_coordinates", lambda: subset
        )
        return subset

    def test_record_check_lint_round_trip(self, tmp_path, small_zoo):
        path = str(tmp_path / "archive.json")
        out = cli_run(["regress", "record", "--archive", path])
        assert "recorded 6 fingerprints" in out
        out = cli_run(["regress", "check", "--archive", path])
        assert "6 match, 0 mismatch, 0 missing" in out
        out = cli_run(["regress", "lint", "--archive", path])
        assert "archive ok: 6 entries" in out

    def test_check_fails_on_drift_naming_coordinate(self, tmp_path, small_zoo):
        path = str(tmp_path / "archive.json")
        cli_run(["regress", "record", "--archive", path])
        data = json.load(open(path))
        entry = data["entries"][0]
        entry["fingerprint"] = ("0" * 63) + (
            "1" if entry["fingerprint"][-1] != "1" else "2"
        )
        (tmp_path / "archive.json").write_text(json.dumps(data))
        report_path = str(tmp_path / "report.txt")
        with pytest.raises(SystemExit) as excinfo:
            cli_run(
                ["regress", "check", "--archive", path, "--report", report_path]
            )
        message = str(excinfo.value)
        label = Coordinate.from_json_dict(entry["coordinate"]).label
        assert "MISMATCH" in message
        assert label in message
        assert label in open(report_path).read()

    def test_diff_reports_without_failing(self, tmp_path, small_zoo):
        path = str(tmp_path / "archive.json")
        cli_run(["regress", "record", "--archive", path])
        out = cli_run(["regress", "diff", "--archive", path])
        assert "6 match" in out

    def test_lint_rejects_corrupt_archive(self, tmp_path):
        path_obj = tmp_path / "archive.json"
        path_obj.write_text(json.dumps({"format": ARCHIVE_FORMAT, "entries": [{}]}))
        with pytest.raises(ValueError, match="entry #0"):
            cli_run(["regress", "lint", "--archive", str(path_obj)])

    def test_lint_fails_on_missing_zoo_coverage(self, tmp_path, small_zoo):
        path = str(tmp_path / "archive.json")
        archive = Archive([run_coordinate(small_zoo[0])])
        save_archive(archive, path)
        with pytest.raises(SystemExit, match="not pinned"):
            cli_run(["regress", "lint", "--archive", path])


def test_import_regress_does_not_load_dist():
    source = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, repro.regress\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.dist'))\n"
        "assert not loaded, loaded\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        cwd=str(source),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
