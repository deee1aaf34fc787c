"""The pair runner's summary, on synthetic runs, and the committed file it wrote."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _load():
    spec = importlib.util.spec_from_file_location(
        "perf_pairs", ROOT / "benchmarks" / "perf_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pp = _load()

DIRECTIONS = {"throughput_per_s": "higher", "peak_rss_mb": "lower"}


def _pairs(parent, change, rss=(100.0, 99.0), correct=True):
    return [
        {
            "seed": 10 + i,
            "first": pp.SIDES[i % 2],
            "parent": {"throughput_per_s": p, "peak_rss_mb": rss[0], "correct": True},
            "change": {
                "throughput_per_s": c,
                "peak_rss_mb": rss[1] + i,
                "correct": correct or i != 1,
            },
        }
        for i, (p, c) in enumerate(zip(parent, change))
    ]


def test_summary_quartiles_medians_and_pairs_won():
    summary = pp.summarize(
        _pairs([40.0, 42.0, 41.0, 44.0, 43.0], [80.0, 83.0, 41.0, 82.0, 81.0]),
        DIRECTIONS,
    )
    rate = summary["metrics"]["throughput_per_s"]
    assert rate["parent_q1_median_q3"] == [41.0, 42.0, 43.0]
    assert rate["change_q1_median_q3"] == [80.0, 81.0, 82.0]
    assert rate["ratio_of_medians"] == pytest.approx(81.0 / 42.0)
    assert rate["change_better_pairs"] == 4  # the tied pair is not won
    assert rate["separated"]
    assert summary["pairs"] == 5 and summary["all_correct"]
    # Lower is better for RSS: the change's 99, 100, ... win only once.
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["change_better_pairs"] == 1
    assert summary["peak_rss_mb"] == {
        "parent": [100.0] * 5,
        "change": [99.0, 100.0, 101.0, 102.0, 103.0],
    }


def test_overlapping_medians_are_not_separated_and_a_wrong_run_shows():
    summary = pp.summarize(
        _pairs([40.0, 50.0, 45.0, 42.0], [44.0, 46.0, 47.0, 43.0], correct=False),
        DIRECTIONS,
    )
    assert not summary["metrics"]["throughput_per_s"]["separated"]
    assert not summary["all_correct"]
    doc = {
        "schema": pp.SCHEMA,
        "parent": "a",
        "change": "b",
        "seconds": 1.0,
        "claim": pp.claim_of({"w": summary}, "w:throughput_per_s"),
        "workloads": {"w": summary},
    }
    pp.check_schema(doc)
    assert doc["claim"]["pairs_won"] == 3 and doc["claim"]["pairs"] == 4
    del summary["peak_rss_mb"]["change"][0]
    with pytest.raises(ValueError, match="peak RSS"):
        pp.check_schema(doc)


def test_pairs_alternate_which_side_runs_first():
    assert pp.schedule(4, 100) == [
        (100, "parent"),
        (101, "change"),
        (102, "parent"),
        (103, "change"),
    ]
    assert pp.parse_workloads(["eval-wide=10", "mcmc"], 3) == {
        "eval-wide": 10,
        "mcmc": 3,
    }
    with pytest.raises(ValueError):
        pp.parse_workloads(["serve=0"], 3)


def test_each_side_prints_its_own_bits(tmp_path):
    """The bit scripts run on each side's ``src/``, and the file says
    whether the two sides printed the same lines."""
    script = tmp_path / "bits.py"
    script.write_text("import mod\nprint('route:', mod.VALUE)\n")
    sides = {}
    for side, value in zip(pp.SIDES, (1, 2)):
        (tmp_path / side / "src").mkdir(parents=True)
        (tmp_path / side / "src" / "mod.py").write_text(f"VALUE = {value}\n")
        sides[side] = pp.side_bits(tmp_path / side, scripts=[script])
    assert sides["parent"] == {"bits.py": ["route: 1"]}
    bits = pp.bits_of(sides)
    assert not bits["identical"]
    assert pp.bits_of({side: sides["parent"] for side in pp.SIDES})["identical"]
    summary = pp.summarize(_pairs([40.0], [44.0]), DIRECTIONS)
    doc = {
        "schema": pp.SCHEMA,
        "parent": "a",
        "change": "b",
        "seconds": 1.0,
        "claim": None,
        "bits": bits,
        "workloads": {"w": summary},
    }
    pp.check_schema(doc)
    bits["identical"] = True
    with pytest.raises(ValueError, match="bits"):
        pp.check_schema(doc)


def test_scratch_directory_is_created_when_missing(tmp_path):
    parent = tmp_path / "not" / "yet"
    scratch = pp.make_scratch(parent)
    assert scratch.is_dir() and scratch.parent == parent
    again = pp.make_scratch(parent)  # an existing parent is fine too
    assert again.is_dir() and again != scratch


def test_directions_come_from_the_benchmark_spec():
    directions = pp.load_directions()
    assert directions["throughput_per_s"] == "higher"
    assert directions["latency_ms_p50"] == "lower"
    assert set(directions) >= {"setup_s", "peak_rss_mb", "ok_frac"}


def test_committed_pair_files_parse():
    """Every BENCH file the runner wrote follows its schema."""
    files = [
        path
        for path in sorted(ROOT.glob("BENCH_*.json"))
        if json.loads(path.read_text()).get("schema") == pp.SCHEMA
    ]
    assert ROOT / "BENCH_25.json" in files
    for path in files:
        pp.check_schema(json.loads(path.read_text()))
