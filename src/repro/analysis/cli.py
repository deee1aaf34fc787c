"""``python -m repro.analysis`` — lint an execution plan statically.

Builds a plan from either a Newick file or ``synthetictest``-style
topology flags, runs the static verifier and the schedule auditor, and
exits nonzero when any error-severity diagnostic is found::

    python -m repro.analysis --newick tree.nwk
    python -m repro.analysis --taxa 64 --pectinate --reroot --mode level
    python -m repro.analysis --taxa 64 --races --streams 4
    python -m repro.analysis --taxa 32 --sanitize
    python -m repro.analysis --self-check

``--races`` adds the concurrency-hazard prover (intra-set WAW/WAR/RAW
races plus the round-robin stream schedule); ``--sanitize`` executes the
plan once under the shadow-state sanitizer and reports its access count
and race verdict. ``--self-check`` runs the analyzer's own acceptance
gate: every plan the library's planners produce for a
pectinate/balanced/random trio must verify clean, every seeded
corruption of those plans (including the stream/cache/undo corruption
classes) must be flagged, and the library's real in-place moves must
lint undo-complete. It is the CI entry point for the analyzer itself.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, TextIO

import numpy as np

from ..core.planner import ExecutionPlan, make_plan
from ..trees.newick import parse_newick
from .audit import audit_plan
from .mutate import analyze_mutation, seed_mutations
from .races import check_move_undo, verify_races
from .verifier import verify_plan

__all__ = ["build_parser", "run", "main"]

MODES = ("serial", "concurrent", "level")
SELF_CHECK_TOPOLOGIES = ("pectinate", "balanced", "random")


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the static-analysis CLI."""
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Statically verify and audit a likelihood execution "
        "plan without executing it.",
    )
    source = parser.add_argument_group("plan source")
    source.add_argument(
        "--newick", metavar="FILE", help="build the plan from a Newick tree file"
    )
    source.add_argument(
        "--taxa", type=int, default=16, help="synthetic tree size (default 16)"
    )
    source.add_argument(
        "--pectinate", action="store_true", help="synthetic pectinate topology"
    )
    source.add_argument(
        "--randomtree", action="store_true", help="synthetic random topology"
    )
    source.add_argument(
        "--seed", type=int, default=1, help="seed for --randomtree"
    )
    plan = parser.add_argument_group("plan construction")
    plan.add_argument(
        "--mode",
        choices=MODES,
        default="concurrent",
        help="scheduling mode (default: concurrent)",
    )
    plan.add_argument(
        "--reroot", action="store_true", help="optimally reroot before planning"
    )
    plan.add_argument(
        "--manualscale",
        action="store_true",
        help="plan with per-operation rescaling",
    )
    parser.add_argument(
        "--no-audit",
        action="store_true",
        help="skip the schedule-quality audit",
    )
    races = parser.add_argument_group("concurrency checking")
    races.add_argument(
        "--races",
        action="store_true",
        help="prove the plan free of intra-set WAW/WAR/RAW races and "
        "verify its round-robin stream schedule",
    )
    races.add_argument(
        "--streams",
        type=int,
        default=4,
        metavar="N",
        help="streams for the --races schedule check (default 4; 0 "
        "skips the stream check)",
    )
    races.add_argument(
        "--sanitize",
        action="store_true",
        help="execute the plan once under the shadow-state sanitizer "
        "and report the dynamic race verdict",
    )
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="verify the analyzer itself: planner plans clean, seeded "
        "mutations flagged, on a pectinate/balanced/random trio",
    )
    parser.add_argument(
        "--docstrings",
        action="store_true",
        help="docstring-coverage gate: every public function/class/method "
        "in src/repro must have a docstring or an allowlist entry",
    )
    parser.add_argument(
        "--docstrings-root",
        metavar="DIR",
        default=None,
        help="package root to scan with --docstrings "
        "(default: the installed repro package)",
    )
    parser.add_argument(
        "--allowlist",
        metavar="FILE",
        default=None,
        help="allowlist file for --docstrings "
        "(default: docstring_allowlist.txt next to the repo's src/)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="only print the verdict"
    )
    return parser


def _build_plan(args: argparse.Namespace) -> ExecutionPlan:
    if args.newick:
        with open(args.newick) as handle:
            tree = parse_newick(handle.read())
        if not tree.is_bifurcating():
            tree.resolve_multifurcations()
    else:
        from ..bench.harness import build_tree

        topology = "pectinate" if args.pectinate else (
            "random" if args.randomtree else "balanced"
        )
        tree = build_tree(topology, args.taxa, args.seed)
        rng = np.random.default_rng(args.seed)
        for edge in tree.edges():
            edge.length = float(rng.exponential(0.1))
    if args.reroot:
        from ..core.reroot_opt import optimal_reroot_fast

        tree = optimal_reroot_fast(tree).tree
    return make_plan(tree, args.mode, scaling=args.manualscale)


def _lint(args: argparse.Namespace, out: TextIO) -> int:
    plan = _build_plan(args)
    report = verify_plan(plan)
    print(
        f"plan: {plan.tree.n_tips} tips, mode={plan.mode}, "
        f"{plan.n_operations} operations in {plan.n_launches} sets, "
        f"scaling={'on' if plan.scaling else 'off'}",
        file=out,
    )
    if args.races:
        race_report = verify_races(plan, n_streams=args.streams)
        report.extend(race_report)
        print(
            f"races: {plan.n_launches} sets proven WAW/WAR/RAW-free"
            + (
                f"; stream schedule verified over {args.streams} streams"
                if args.streams > 0
                else ""
            )
            if race_report.clean
            else f"races: {len(race_report.errors)} hazard(s) found",
            file=out,
        )
    if args.sanitize:
        clean, accesses = _sanitize_once(plan, args.seed, out)
        if not clean:
            return 1
        print(
            f"sanitizer: clean ({accesses} buffer accesses recorded, "
            f"single-threaded execution)",
            file=out,
        )
    if not args.quiet and not report.clean:
        print(report.format(), file=out)
    n_err, n_warn = len(report.errors), len(report.warnings)
    if not args.no_audit:
        print(audit_plan(plan).format(), file=out)
    if report.ok:
        print(
            f"verdict: plan verifies clean ({n_warn} warning(s))", file=out
        )
        return 0
    print(f"verdict: {n_err} error(s), {n_warn} warning(s)", file=out)
    return 1


def _sanitize_once(
    plan: ExecutionPlan, seed: int, out: TextIO
) -> tuple[bool, int]:
    """Execute ``plan`` once under the shadow-state sanitizer.

    Random patterns under JC69 stand in for real data — the sanitizer
    watches buffer traffic, not likelihood values. Returns the verdict
    and the number of accesses recorded.
    """
    from ..core.planner import create_instance, execute_plan
    from ..data.patterns import random_patterns
    from ..models.nucleotide import JC69
    from .sanitizer import RaceDetector, SanitizedInstance

    patterns = random_patterns(
        [t.name for t in plan.tree.tips()], 16, seed=seed
    )
    instance = create_instance(
        plan.tree, JC69(), patterns, scaling=plan.scaling
    )
    detector = RaceDetector()
    execute_plan(SanitizedInstance(instance, detector), plan)
    if not detector.clean:
        print(detector.format(), file=out)
        return False, detector.accesses_recorded
    return True, detector.accesses_recorded


def _self_check(args: argparse.Namespace, out: TextIO) -> int:
    failures: List[str] = []
    checked_plans = 0
    checked_mutations = 0
    mutation_kinds_flagged: set = set()
    for topology in SELF_CHECK_TOPOLOGIES:
        from ..bench.harness import build_tree

        tree = build_tree(topology, args.taxa, args.seed)
        rng = np.random.default_rng(args.seed)
        for edge in tree.edges():
            edge.length = float(rng.exponential(0.1))
        for mode in MODES:
            for scaling in (False, True):
                plan = make_plan(tree, mode, scaling=scaling)
                report = verify_plan(plan)
                report.extend(
                    verify_races(plan, n_streams=max(args.streams, 0))
                )
                checked_plans += 1
                if not report.clean:
                    failures.append(
                        f"{topology}/{mode}/scaling={scaling}: expected a "
                        f"clean plan, got: {report.format()}"
                    )
                for mutation in seed_mutations(plan):
                    checked_mutations += 1
                    mutated = analyze_mutation(mutation)
                    flagged = {
                        d.code
                        for d in mutated.errors
                        if d.code in mutation.expect_codes
                    }
                    if not flagged:
                        failures.append(
                            f"{topology}/{mode}/scaling={scaling}: mutation "
                            f"{mutation.kind!r} not flagged "
                            f"({mutation.description}); analyzer said: "
                            f"{mutated.format()}"
                        )
                    else:
                        mutation_kinds_flagged.add(mutation.kind)
    checked_moves = _self_check_moves(args, failures)
    print(
        f"self-check: {checked_plans} plans verified, "
        f"{checked_mutations} mutations seeded "
        f"({len(SELF_CHECK_TOPOLOGIES)} topologies x {len(MODES)} modes "
        f"x 2 scaling settings, taxa={args.taxa})",
        file=out,
    )
    print(
        f"self-check: {len(mutation_kinds_flagged)} corruption classes "
        f"flagged, {checked_moves} in-place moves linted undo-complete, "
        f"stream schedules proven over "
        f"{max(args.streams, 0)} stream(s)",
        file=out,
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=out)
        print(f"self-check FAILED ({len(failures)} failure(s))", file=out)
        return 1
    print("self-check passed: all plans clean, all mutations flagged", file=out)
    return 0


def _self_check_moves(args: argparse.Namespace, failures: List[str]) -> int:
    """Lint the library's real in-place moves for undo-completeness.

    The corrupted-move mutation class proves the lint *fires*; this
    pass proves it stays quiet on every genuine proposal — branch
    multipliers and the full NNI neighbourhood.
    """
    from ..bench.harness import build_tree
    from ..inference.proposals import (
        branch_length_move,
        nni_move,
        nni_move_at,
        nni_move_count,
    )

    checked = 0
    tree = build_tree("random", min(args.taxa, 16), args.seed)
    rng = np.random.default_rng(args.seed)
    for edge in tree.edges():
        edge.length = float(rng.exponential(0.1))
    for seed in range(3):
        for factory in (
            lambda t, s=seed: branch_length_move(t, np.random.default_rng(s)),
            lambda t, s=seed: nni_move(t, np.random.default_rng(s)),
        ):
            diagnostics = check_move_undo(tree.copy(), factory)
            checked += 1
            if diagnostics:
                failures.append(
                    "undo lint flagged a genuine move: "
                    + "; ".join(d.format() for d in diagnostics)
                )
    for index in range(nni_move_count(tree)):
        diagnostics = check_move_undo(
            tree.copy(), lambda t, i=index: nni_move_at(t, i)
        )
        checked += 1
        if diagnostics:
            failures.append(
                f"undo lint flagged nni_move_at({index}): "
                + "; ".join(d.format() for d in diagnostics)
            )
    return checked


def _docstrings(args: argparse.Namespace, out: TextIO) -> int:
    """Run the docstring-coverage gate (see :mod:`.docstrings`)."""
    from pathlib import Path

    from .docstrings import check_package

    package_root = Path(
        args.docstrings_root
        if args.docstrings_root
        else Path(__file__).resolve().parents[1]
    )
    if args.allowlist:
        allowlist: Optional[Path] = Path(args.allowlist)
    else:
        # src/repro/analysis/cli.py -> repo root is three levels above
        # the package; fall back to no allowlist when not in a checkout.
        candidate = package_root.parents[1] / "docstring_allowlist.txt"
        allowlist = candidate if candidate.exists() else None
    report = check_package(package_root, allowlist)
    print(report.format(), file=out)
    if report.ok:
        print("verdict: docstring coverage gate passed", file=out)
        return 0
    print(
        f"verdict: {len(report.missing)} undocumented public definition(s), "
        f"{len(report.stale_entries)} stale allowlist entr(y/ies)",
        file=out,
    )
    return 1


def run(argv: Optional[List[str]] = None, out: Optional[TextIO] = None) -> int:
    """Run the linter; returns a process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.pectinate and args.randomtree:
        print("error: --pectinate and --randomtree are exclusive", file=out)
        return 2
    if args.taxa < 2:
        print("error: --taxa must be at least 2", file=out)
        return 2
    try:
        if args.docstrings:
            return _docstrings(args, out)
        if args.self_check:
            return _self_check(args, out)
        return _lint(args, out)
    except (OSError, ValueError) as exc:
        # Unreadable file, unparseable Newick, or a degenerate tree.
        print(f"error: {exc}", file=out)
        return 2


def main() -> None:  # pragma: no cover - console entry point
    """Console entry point."""
    raise SystemExit(run())
