"""Tests for the benchmark CLI (repro.bench.cli)."""

import pytest

from repro.bench.cli import build_parser, main, run


class TestParser:
    def test_known_figures_accepted(self):
        parser = build_parser()
        args = parser.parse_args(["figure1", "--scale", "smoke"])
        assert args.figure == "figure1"
        assert args.scale == "smoke"

    def test_unknown_figure_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure42"])

    def test_unknown_scale_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure1", "--scale", "enormous"])

    def test_default_scale(self):
        args = build_parser().parse_args(["figure2"])
        assert args.scale == "default"

    def test_workers_flag(self):
        args = build_parser().parse_args(["figure1", "--workers", "4"])
        assert args.workers == 4
        assert build_parser().parse_args(["figure1"]).workers is None

    def test_invalid_workers_rejected(self):
        with pytest.raises(SystemExit):
            run(["figure1", "--scale", "smoke", "--workers", "0"])

    def test_invalid_workers_rejected_for_figure3_too(self):
        with pytest.raises(SystemExit):
            run(["figure3", "--scale", "smoke", "--workers", "0"])

    def test_granularity_flag(self):
        args = build_parser().parse_args(["figure1", "--granularity", "case"])
        assert args.granularity == "case"
        assert (
            build_parser().parse_args(["figure1", "--granularity", "auto"]).granularity
            == "auto"
        )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure1", "--granularity", "query"])

    def test_cache_dir_flag(self):
        args = build_parser().parse_args(["figure1", "--cache-dir", "/tmp/c"])
        assert args.cache_dir == "/tmp/c"
        assert build_parser().parse_args(["figure1"]).cache_dir is None

    def test_cache_max_mb_flag(self):
        from repro.bench.cli import _cache_cap_bytes

        args = build_parser().parse_args(
            ["figure1", "--cache-dir", "/tmp/c", "--cache-max-mb", "64"]
        )
        assert _cache_cap_bytes(args) == 64 * 1024 * 1024
        unbounded = build_parser().parse_args(["figure1", "--cache-dir", "/tmp/c"])
        assert _cache_cap_bytes(unbounded) is None
        negative = build_parser().parse_args(
            ["figure1", "--cache-dir", "/tmp/c", "--cache-max-mb", "-1"]
        )
        with pytest.raises(SystemExit, match="cache-max-mb"):
            _cache_cap_bytes(negative)
        capless = build_parser().parse_args(["figure1", "--cache-max-mb", "64"])
        with pytest.raises(SystemExit, match="requires --cache-dir"):
            _cache_cap_bytes(capless)

    def test_work_parser(self):
        from repro.bench.cli import build_work_parser

        args = build_work_parser().parse_args(
            ["--attach", "127.0.0.1:7963", "--worker-id", "w7", "--max-batches", "3"]
        )
        assert args.attach == "127.0.0.1:7963"
        assert args.worker_id == "w7"
        assert args.max_batches == 3
        with pytest.raises(SystemExit):  # --attach is required
            build_work_parser().parse_args(["--worker-id", "w7"])

    def test_steps_and_shard_flags(self):
        args = build_parser().parse_args(
            ["figure1", "--steps", "--shard", "0/2", "--out", "x.json"]
        )
        assert args.steps is True
        assert args.shard == "0/2"
        assert args.out == "x.json"

    def test_invalid_shard_designators_rejected(self):
        for designator in ("2", "a/b", "2/2", "-1/2", "0/0"):
            with pytest.raises(SystemExit):
                run(["figure1", "--scale", "smoke", "--shard", designator])

    def test_figure3_rejects_shard_and_steps(self):
        with pytest.raises(SystemExit):
            run(["figure3", "--shard", "0/2"])
        with pytest.raises(SystemExit):
            run(["figure3", "--steps"])


class TestRun:
    def test_figure3_smoke_report(self):
        report = run(["figure3", "--scale", "smoke"])
        assert "path length" in report
        assert "chain" in report

    def test_figure3_seed_override(self):
        report = run(["figure3", "--scale", "smoke", "--seed", "123"])
        assert "Figure 3 statistics" in report

    def test_main_prints_report(self, capsys, monkeypatch):
        # Shrink the smoke grid further by patching the spec constructor so the
        # CLI test stays fast.
        from repro.bench import figures
        from repro.bench.scenario import ScenarioScale

        original = figures.figure8_spec

        def tiny_spec(scale=ScenarioScale.DEFAULT):
            return original(ScenarioScale.SMOKE).with_scale_overrides(
                table_counts=(4,), num_test_cases=1, time_budget=0.1,
                checkpoints=(0.05, 0.1),
            )

        monkeypatch.setitem(figures.FIGURE_SPECS, "figure8", tiny_spec)
        exit_code = main(["figure8", "--scale", "smoke"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Scenario: figure8" in output
        assert "Winners per cell" in output


@pytest.fixture
def tiny_step_figure1(monkeypatch):
    """Shrink the step-driven figure1 to one 4-table case per shape."""
    from repro.bench import figures
    from repro.bench.scenario import ScenarioScale

    original = figures.FIGURE_SPECS["figure1"]

    def tiny_spec(scale=ScenarioScale.DEFAULT):
        return figures.step_variant(
            original(ScenarioScale.SMOKE).with_scale_overrides(
                table_counts=(4,), num_test_cases=1
            ),
            step_checkpoints=(1, 2),
        )

    monkeypatch.setitem(figures.STEP_FIGURE_SPECS, "figure1", tiny_spec)


@pytest.mark.usefixtures("tiny_step_figure1")
class TestShardAndMerge:
    """End-to-end: two --shard runs plus merge equal the sequential run."""

    def test_shard_merge_matches_sequential_report(self, tmp_path):
        paths = []
        for index in range(2):
            out = str(tmp_path / f"shard{index}.json")
            report = run(
                [
                    "figure1",
                    "--scale",
                    "smoke",
                    "--steps",
                    "--shard",
                    f"{index}/2",
                    "--out",
                    out,
                ]
            )
            assert "Task provenance" in report
            assert f"shard {index}/2" in report
            paths.append(out)
        merged = run(["merge", *paths])
        sequential = run(["figure1", "--scale", "smoke", "--steps"])
        assert merged == sequential
        assert "step=1  step=2" in merged

    def test_merge_rejects_incomplete_shards(self, tmp_path):
        out = str(tmp_path / "only.json")
        run(["figure1", "--scale", "smoke", "--steps", "--shard", "0/2", "--out", out])
        with pytest.raises(ValueError, match="missing shard indices"):
            run(["merge", out])


@pytest.mark.usefixtures("tiny_step_figure1")
class TestCachedRun:
    """End-to-end: cold and warm --cache-dir runs match the sequential report."""

    COMMON = ["figure1", "--scale", "smoke", "--steps"]

    def cached(self, tmp_path):
        return [*self.COMMON, "--workers", "2", "--cache-dir", str(tmp_path / "cache")]

    def test_cold_cache_report_matches_sequential(self, tmp_path):
        assert run(self.cached(tmp_path)) == run(self.COMMON)

    def test_warm_cache_run_leases_zero_tasks(self, tmp_path):
        from repro.obs import global_metrics

        sequential = run(self.COMMON)
        run(self.cached(tmp_path))
        metrics = global_metrics()
        scheduled = metrics.counter("coordinator.scheduled")
        hits = metrics.counter("coordinator.cache_hits")
        assert run(self.cached(tmp_path)) == sequential
        # The warm run served every leaf from the cache and leased none.
        assert metrics.counter("coordinator.scheduled") == scheduled
        assert metrics.counter("coordinator.cache_hits") > hits
