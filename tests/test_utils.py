"""Tests for repro.utils (rng derivation, stopwatch, atomic writes)."""

import os
import time

import pytest

from repro.utils.atomic import write_atomic
from repro.utils.rng import derive_rng, derive_seed
from repro.utils.timer import Stopwatch


class TestDerivedSeeds:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_different_streams_differ(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_derive_rng_reproducible(self):
        first = derive_rng(5, "x").random()
        second = derive_rng(5, "x").random()
        assert first == second

    def test_derive_rng_streams_independent(self):
        values_a = [derive_rng(5, "a").random() for _ in range(1)]
        values_b = [derive_rng(5, "b").random() for _ in range(1)]
        assert values_a != values_b

    def test_integer_and_string_parts_mix(self):
        assert derive_seed(1, "case", 3) != derive_seed(1, "case", 4)


class TestStopwatch:
    def test_elapsed_increases(self):
        watch = Stopwatch()
        first = watch.elapsed
        time.sleep(0.01)
        assert watch.elapsed > first

    def test_reset(self):
        watch = Stopwatch()
        time.sleep(0.01)
        watch.reset()
        assert watch.elapsed < 0.01

    def test_exceeded(self):
        watch = Stopwatch()
        assert not watch.exceeded(10.0)
        time.sleep(0.01)
        assert watch.exceeded(0.005)


class TestWriteAtomic:
    def test_replaces_the_whole_file(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_bytes(b"old contents, longer than the new ones")
        write_atomic(str(path), b"new")
        assert path.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["entry.json"]

    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        (target / "child").write_text("x")  # a non-empty directory cannot be replaced
        with pytest.raises(OSError):
            write_atomic(str(target), b"data")
        assert sorted(os.listdir(tmp_path)) == ["taken"]

