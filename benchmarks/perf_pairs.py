"""Run perfbench on two revisions in alternating pairs and summarise them.

Each side gets its own copy of ``src/`` and ``perfbench/`` (from
``git archive REV``; ``WORKTREE`` copies the working tree), and every
pair runs both sides on the same seed, alternating which side runs
first, so slow drift of the host lands on both sides alike::

    python benchmarks/perf_pairs.py PARENT CHANGE --workloads eval-wide=10 \\
        mcmc serve --pairs 4 --seconds 20 --seed-base 5101 --out BENCH_25.json

The JSON file holds, per workload, every pair's metrics and correctness,
each side's first quartile, median and third quartile per end-to-end
metric, the ratio of the medians, the pairs the change won, whether the
medians are further apart than the parent's quartile spread, and the
peak RSS of every run. Metric names and directions come from
``BENCHMARK.json``. ``--claim WORKLOAD:METRIC`` records the claimed gain
at the top of the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "perf_pairs/1"
WORKTREE = "WORKTREE"
SIDES = ("parent", "change")


def load_directions(path: Path = ROOT / "BENCHMARK.json") -> Dict[str, str]:
    """``{metric: "higher" | "lower"}`` for the end-to-end metrics."""
    spec = json.loads(path.read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def prepare_side(rev: str, dest: Path) -> Path:
    """A copy of ``src/`` and ``perfbench/`` at ``rev`` under ``dest``."""
    dest.mkdir(parents=True)
    if rev == WORKTREE:
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in ("src", "perfbench"):
            shutil.copytree(ROOT / name, dest / name, ignore=ignore)
        return dest
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src", "perfbench"],
        check=True,
        capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def parse_workloads(specs: List[str], pairs: int) -> Dict[str, int]:
    """``{workload: pairs}`` from ``NAME`` or ``NAME=PAIRS`` items."""
    out = {}
    for spec in specs:
        name, _, count = spec.partition("=")
        out[name] = int(count) if count else pairs
        if out[name] < 1:
            raise ValueError(f"{spec}: pairs must be positive")
    return out


def schedule(pairs: int, seed_base: int) -> List[tuple]:
    """``(seed, first side)`` per pair: the parent runs first in even
    pairs, the change in odd ones."""
    return [(seed_base + i, SIDES[i % 2]) for i in range(pairs)]


def run_once(side_dir: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its end-to-end values and ``correct``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=side_dir,
        env=env,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"perfbench failed ({proc.returncode}): {proc.stderr}")
    result = json.loads(lines[-1])
    run = {name: m["value"] for name, m in result["metrics"].items()}
    run["correct"] = bool(result["correct"])
    return run


def _quartiles(values: List[float]) -> List[float]:
    if len(values) == 1:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def summarize(pairs: List[dict], directions: Dict[str, str]) -> dict:
    """One workload's summary from its pairs.

    ``pairs`` holds ``{"seed", "first", "parent": run, "change": run}``
    with ``run`` a metric → value mapping plus ``correct``. A pair is won
    when the change is strictly better in the metric's direction;
    ``separated`` says the medians differ by more than the parent's
    interquartile range.
    """
    metrics = {}
    for name, better in directions.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        pq, cq = _quartiles(parent), _quartiles(change)
        sign = 1.0 if better == "higher" else -1.0
        metrics[name] = {
            "better": better,
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "ratio_of_medians": cq[1] / pq[1] if pq[1] else None,
            "change_better_pairs": sum(
                sign * (c - p) > 0 for p, c in zip(parent, change)
            ),
            "separated": abs(cq[1] - pq[1]) > pq[2] - pq[0],
        }
    return {
        "pairs": len(pairs),
        "all_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
        "metrics": metrics,
        "peak_rss_mb": {s: [p[s]["peak_rss_mb"] for p in pairs] for s in SIDES},
        "pairs_detail": pairs,
    }


def claim_of(workloads: dict, claim: Optional[str]) -> Optional[dict]:
    """The ``WORKLOAD:METRIC`` claim's pairs won and separation."""
    if not claim:
        return None
    workload, metric = claim.split(":")
    summary = workloads[workload]
    entry = summary["metrics"][metric]
    return {
        "workload": workload,
        "metric": metric,
        "ratio_of_medians": entry["ratio_of_medians"],
        "pairs_won": entry["change_better_pairs"],
        "pairs": summary["pairs"],
        "separated": entry["separated"],
    }


REQUIRED = {
    "top": ("schema", "parent", "change", "seconds", "claim", "workloads"),
    "workload": ("pairs", "all_correct", "metrics", "peak_rss_mb", "pairs_detail"),
    "metric": (
        "better",
        "parent_q1_median_q3",
        "change_q1_median_q3",
        "ratio_of_medians",
        "change_better_pairs",
        "separated",
    ),
}


def check_schema(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` has this runner's layout."""

    def need(obj, keys, where):
        missing = [k for k in keys if k not in obj]
        if missing:
            raise ValueError(f"{where}: missing {missing}")

    need(doc, REQUIRED["top"], "file")
    if doc["schema"] != SCHEMA:
        raise ValueError(f"schema {doc['schema']!r} is not {SCHEMA!r}")
    for name, summary in doc["workloads"].items():
        need(summary, REQUIRED["workload"], name)
        for metric, entry in summary["metrics"].items():
            need(entry, REQUIRED["metric"], f"{name}.{metric}")
        if len(summary["pairs_detail"]) != summary["pairs"]:
            raise ValueError(f"{name}: pairs_detail does not hold every pair")
        for side in SIDES:
            if len(summary["peak_rss_mb"][side]) != summary["pairs"]:
                raise ValueError(f"{name}: peak RSS missing for a {side} run")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help=f"git revision, or {WORKTREE}")
    parser.add_argument("change", help=f"git revision, or {WORKTREE}")
    parser.add_argument(
        "--workloads", nargs="+", required=True, help="NAME or NAME=PAIRS"
    )
    parser.add_argument("--pairs", type=int, default=4, help="pairs per workload")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--claim", help="WORKLOAD:METRIC of the claimed gain")
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--scratch", type=Path, help="directory for the copies")
    args = parser.parse_args(argv)
    try:
        counts = parse_workloads(args.workloads, args.pairs)
    except ValueError as exc:
        parser.error(str(exc))
    directions = load_directions()
    scratch = Path(tempfile.mkdtemp(prefix="perf_pairs_", dir=args.scratch))
    try:
        dirs = {
            side: prepare_side(rev, scratch / side)
            for side, rev in zip(SIDES, (args.parent, args.change))
        }
        workloads = {}
        for workload, count in counts.items():
            pairs = []
            for seed, first in schedule(count, args.seed_base):
                pair = {"seed": seed, "first": first}
                order = SIDES if first == "parent" else SIDES[::-1]
                for side in order:
                    pair[side] = run_once(dirs[side], workload, seed, args.seconds)
                pairs.append(pair)
                print(
                    f"{workload} seed {seed} ({first} first): "
                    + "  ".join(
                        f"{s} {pair[s]['throughput_per_s']:.4g}/s" for s in SIDES
                    ),
                    flush=True,
                )
            workloads[workload] = summarize(pairs, directions)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    doc = {
        "schema": SCHEMA,
        "parent": args.parent,
        "change": args.change,
        "seconds": args.seconds,
        "command": " ".join(
            ["python benchmarks/perf_pairs.py"]
            + (sys.argv[1:] if argv is None else list(argv))
        ),
        "host": f"{os.cpu_count()} CPUs, {platform.system()}, Python "
        f"{platform.python_version()}; perfbench times host-calibrated",
        "claim": claim_of(workloads, args.claim),
        "workloads": workloads,
    }
    check_schema(doc)
    for workload, summary in workloads.items():
        for name, entry in summary["metrics"].items():
            pq, cq = entry["parent_q1_median_q3"], entry["change_q1_median_q3"]
            print(
                f"{workload:12s} {name:18s} {pq[1]:12.5g} -> {cq[1]:12.5g}"
                f"  won {entry['change_better_pairs']}/{summary['pairs']}"
            )
        print(f"{workload:12s} all correct: {summary['all_correct']}")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
