"""Unit tests for the benchmark harness and table formatting."""

from __future__ import annotations

import pytest

from repro.bench import (
    build_tree,
    format_table,
    run_case,
    summarize_interval,
    sweep_random_trees,
)
from repro.core import count_operation_sets
from repro.gpu import SMALL_GPU


class TestBuildTree:
    def test_topologies(self):
        assert count_operation_sets(build_tree("balanced", 16)) == 4
        assert count_operation_sets(build_tree("pectinate", 16)) == 15
        t = build_tree("random", 16, seed=3)
        assert t.n_tips == 16

    def test_random_deterministic(self):
        a = build_tree("random", 12, seed=9)
        b = build_tree("random", 12, seed=9)
        assert a.topology_key() == b.topology_key()

    def test_unknown(self):
        with pytest.raises(ValueError):
            build_tree("star", 8)


class TestRunCase:
    def test_balanced_case(self):
        row = run_case("balanced", 64, 512)
        assert row.operation_sets == 6
        assert row.serial_launches == 63
        assert row.theoretical_speedup == pytest.approx(10.5)
        assert row.model_speedup <= row.theoretical_speedup
        assert row.gflops > 0

    def test_reroot_flag(self):
        plain = run_case("pectinate", 32, 512)
        rerooted = run_case("pectinate", 32, 512, reroot=True)
        assert plain.operation_sets == 31
        assert rerooted.operation_sets == 16
        assert rerooted.model_speedup > plain.model_speedup

    def test_reroot_algorithms_agree(self):
        fast = run_case("random", 40, 256, seed=4, reroot=True)
        exhaustive = run_case(
            "random", 40, 256, seed=4, reroot=True, reroot_algorithm="exhaustive"
        )
        assert fast.operation_sets == exhaustive.operation_sets
        with pytest.raises(ValueError):
            run_case("random", 8, 64, seed=1, reroot=True, reroot_algorithm="x")

    def test_device_spec(self):
        big = run_case("balanced", 64, 512)
        small = run_case("balanced", 64, 512, spec=SMALL_GPU)
        assert small.model_speedup < big.model_speedup

    def test_as_dict(self):
        row = run_case("balanced", 8, 64)
        d = row.as_dict()
        assert d["topology"] == "balanced"
        assert d["taxa"] == 8


class TestSweep:
    def test_sweep_seeds(self):
        rows = sweep_random_trees(32, 5, 128)
        assert len(rows) == 5
        assert [r.seed for r in rows] == [1, 2, 3, 4, 5]
        assert all(r.topology == "random" for r in rows)

    def test_sweep_reroot_improves(self):
        plain = sweep_random_trees(64, 5, 128)
        rerooted = sweep_random_trees(64, 5, 128, reroot=True)
        for a, b in zip(plain, rerooted):
            assert b.operation_sets <= a.operation_sets


class TestTables:
    def test_format_basic(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": None}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("| a")
        assert len(lines) == 4

    def test_title_and_columns(self):
        text = format_table([{"x": 1, "y": 2}], columns=["y"], title="T")
        assert text.startswith("### T")
        assert "x" not in text.splitlines()[-1]

    def test_empty(self):
        assert "(no rows)" in format_table([])

    def test_interval(self):
        assert summarize_interval([2.5, 1.0, 3.75]) == "[1.00, 3.75]"
        assert summarize_interval([]) == "[]"
