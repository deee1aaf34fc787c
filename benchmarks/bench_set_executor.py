"""Measure the set executor's rules: run and per-operation steps by width, split, row.

:func:`repro.beagle.setexec.compile_program` lowers a set of a program
that gathers its tips ahead to a run step when its operands split into
fewer runs than it has operations, and to a per-operation step
otherwise; when one partials row is above ``HOIST_MAX_ROW_BYTES``
(``hoists_tips``) no tips are gathered ahead and every set runs
per-operation steps. This script times the step kinds as a bound
program runs them, the kinds alternating within each of 7 rounds, so
the rules can be re-derived on any host:

* **width sweep** — sets of 1–16 operations at the eval-narrow shape
  (128 patterns), the serve shape (64 patterns) and the gradient shape
  (256 patterns, two store children), 1 category, 4 states, f64. Each
  set's operands form one run. Two such sets are compiled into one
  program (so both kinds gather their tip children ahead, as in a plan)
  and the time is per set. A straight line ``t = a + b·k`` is fitted to
  each kind (:func:`repro.gpu.fit_device_spec`).
* **split sweep** — a set of 16 or 64 operations whose operands split
  into ``r`` runs, for ``r`` up to the width (at ``r`` = width each run
  is one operation, the case the rule leaves per operation), run steps
  against per-operation steps. It prints the fewest runs at which
  per-operation steps win, if any. Its explicit arm times sets of one
  run whose middle operation has an explicit-tip child (a taxon with
  ambiguity partials), which the run step runs as a product of its own.
* **row sweep** — hoisted run steps (tip chunks gathered ahead) against
  unhoisted per-operation steps (what rows above the cut lower to) for
  sets of 8, 32 and 128 operations in one run, rows of 4–128 KiB (4
  categories, 4 states, patterns scaled to the row), f64 and f32. It
  prints the run / per-operation time ratio per row size and the
  smallest row size from which per-operation steps win at every width
  and precision, beside the rows ``hoists_tips`` hoists.

Run ``python benchmarks/bench_set_executor.py`` (``--quick`` for a short
run). The µs figures quoted in ``repro/beagle/setexec.py`` come from it.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from unittest import mock

import numpy as np

from repro.beagle import BeagleInstance, Operation, setexec
from repro.gpu import WorkloadDims, fit_device_spec
from repro.models import HKY85

MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])


def make_case(
    width: int,
    n_patterns: int,
    n_categories: int,
    dtype=np.float64,
    store_sides: int = 1,
    runs: int = 1,
    explicit: bool = False,
):
    """An instance and two sets of ``width`` operations that read the same
    computed partials: each operation has one internal and one tip child
    (``store_sides=1``, a rerooted pectinate tree's sets) or two internal
    children (``store_sides=2``, a balanced tree's inner sets, as in a
    gradient sweep), and each set's operands split into ``runs`` runs of
    sizes that differ by at most one: the store child's matrix index
    starts again at each run's start (a run of one operation has the
    same matrix as the next). With ``explicit`` the middle operation's
    second child is tip 1, which holds explicit (ambiguity) partials."""
    rng = np.random.default_rng(width)
    tips = 2 * width
    instance = BeagleInstance(
        tip_count=tips,
        partials_buffer_count=7 * width,
        matrix_count=tips + 2 * width,
        pattern_count=n_patterns,
        state_count=4,
        category_count=n_categories,
        dtype=dtype,
    )
    for tip in range(tips):
        instance.set_tip_states(tip, rng.integers(0, 5, size=n_patterns))
    if explicit:
        instance.set_tip_partials(1, rng.uniform(0.05, 1.0, size=(n_patterns, 4)))
    instance.set_eigen_decomposition(0, MODEL.eigen)
    instance.set_category_rates(np.linspace(0.5, 1.5, n_categories))
    instance.update_transition_matrices(
        0, list(range(tips + 2 * width)), rng.uniform(0.01, 0.3, size=tips + 2 * width)
    )
    # First set: 2·width internal buffers from tip pairs (so the timed sets
    # read computed partials), then two timed sets.
    instance.update_partials_set(
        [
            Operation(tips + i, 2 * (i % width), i, 2 * (i % width) + 1, tips + i)
            for i in range(2 * width)
        ]
    )
    run_of = [i * runs // width for i in range(width)]
    # The store child's matrix is the operation's position in its run.
    position = [i - run_of.index(run) for i, run in enumerate(run_of)]

    def second(i):
        if explicit and i == width // 2:
            return 1, 1
        if store_sides == 2:
            return tips + width + i, tips + width + i
        return 2 * i + 1, 2 * i + 1

    sets = [
        [
            Operation(
                tips + (2 + 2 * j) * width + i,
                tips + i,
                position[i],
                *second(i),
            )
            for i in range(width)
        ]
        for j in (1, 2)
    ]
    return instance, sets


_find_runs = setexec._runs

#: Patches that pin one step kind at any row size: per-operation steps
#: with tip chunks gathered ahead (no run steps), run steps (every set
#: whose operands form runs, however many; tip chunks gathered ahead)
#: and per-operation steps with no chunk (what rows above the cut lower
#: to).
KINDS = {
    "per-op": {"_runs": lambda *args: None},
    "run": {
        "_runs": lambda products, chunks, limit: _find_runs(products, chunks, 10**9),
        "hoists_tips": lambda instance: True,
    },
    "unhoisted": {"_runs": lambda *args: None, "hoists_tips": lambda instance: False},
}


def time_kinds(instance, sets, kinds, reps: int, rounds: int = 7) -> dict:
    """``{kind: seconds per set}``: the median over ``rounds`` of the mean
    time of ``reps`` compiled program runs, the kinds alternating within
    each round so drift of the host lands on all of them; ``reps=0``
    picks the count from one warm run (~50 ms per sample)."""
    runs = {}
    for kind in kinds:
        with mock.patch.multiple(setexec, **KINDS[kind]):
            program = setexec.compile_program(instance, sets)

        def run(program=program):
            for step in program.start(instance).steps:
                step.run(instance, instance.workspace)

        start = time.perf_counter()
        run()  # warm-up: sizes the workspace
        runs[kind] = (run, reps or max(2, int(0.05 / (time.perf_counter() - start))))
    samples = {kind: [] for kind in kinds}
    for _ in range(rounds):
        for kind, (run, n) in runs.items():
            start = time.perf_counter()
            for _ in range(n):
                run()
            samples[kind].append((time.perf_counter() - start) / (n * len(sets)))
    return {kind: statistics.median(times) for kind, times in samples.items()}


WIDTH_KINDS = ("per-op", "run")


def width_sweep(n_patterns: int, widths, reps: int, store_sides: int = 1):
    """Rows ``(width, per-op µs, run µs)``, the fitted lines and the
    first width at which run steps beat per-operation steps."""
    times = {kind: [] for kind in WIDTH_KINDS}
    for k in widths:
        instance, sets = make_case(k, n_patterns, 1, store_sides=store_sides)
        for kind, t in time_kinds(instance, sets, WIDTH_KINDS, reps).items():
            times[kind].append(t)
    dims = WorkloadDims(patterns=n_patterns, states=4, categories=1)
    fits = {
        name: fit_device_spec(f"measured:{name}", dims, list(zip(widths, t)))
        for name, t in times.items()
    }
    faster = [k for k, p, r in zip(widths, times["per-op"], times["run"]) if r < p]
    rows = [
        (k, *(t * 1e6 for t in cells))
        for k, *cells in zip(widths, *(times[kind] for kind in WIDTH_KINDS))
    ]
    return rows, fits, min(faster) if faster else None


#: The sweeps' shapes: ``(label, patterns, store sides per operation)``.
#: The gradient shape's inner sets read two store children.
SHAPES = (("eval-narrow", 128, 1), ("serve", 64, 1), ("gradient", 256, 2))


def split_sweep(n_patterns: int, width: int, runs, reps: int, store_sides: int):
    """Rows ``(runs, run-step µs, per-op µs)`` for a set of ``width``
    operations whose operands split into each count of ``runs``, and the
    fewest runs at which per-operation steps are faster (``None`` if
    never)."""
    rows = []
    for r in runs:
        instance, sets = make_case(
            width, n_patterns, 1, store_sides=store_sides, runs=r
        )
        with mock.patch.multiple(setexec, **KINDS["run"]):
            program = setexec.compile_program(instance, sets)
        assert [len(step.products) for step in program.steps] == [r, r]
        times = time_kinds(instance, sets, ("run", "per-op"), reps)
        rows.append((r, times["run"] * 1e6, times["per-op"] * 1e6))
    slower = [r for r, run, per_op in rows if per_op < run]
    return rows, min(slower) if slower else None


def explicit_arm(n_patterns: int, width: int, reps: int, store_sides: int):
    """``(run-step µs, per-op µs)`` for a set of ``width`` operations in
    one run but for its middle operation, which has an explicit-tip
    child, as the rule lowers it."""
    instance, sets = make_case(
        width, n_patterns, 1, store_sides=store_sides, explicit=True
    )
    program = setexec.compile_program(instance, sets)
    for step in program.steps:
        assert step.is_run and any(
            setexec._EXPLICIT in (a[0], b[0]) for _, a, b in step.products
        )
    times = time_kinds(instance, sets, ("run", "per-op"), reps)
    return times["run"] * 1e6, times["per-op"] * 1e6


#: The run counts of the split sweep, up to each set's width.
SPLIT_RUNS = (1, 2, 4, 6, 8, 12, 15, 16, 24, 32, 48, 63, 64)

ROW_KIB = (4, 8, 12, 16, 24, 32, 64, 128)


def row_sweep(widths, dtypes, row_kib=ROW_KIB, rounds: int = 7):
    """``{(dtype name, width): [(KiB, per-op µs, run µs, hoisted)]}`` at
    4 categories and 4 states, patterns chosen for each row size."""
    table = {}
    for dtype in dtypes:
        itemsize = np.dtype(dtype).itemsize
        for k in widths:
            rows = []
            for kib in row_kib:
                n_patterns = kib * 1024 // (4 * 4 * itemsize)
                instance, sets = make_case(k, n_patterns, 4, dtype)
                times = time_kinds(instance, sets, ("unhoisted", "run"), 0, rounds)
                per_op, run = times["unhoisted"] * 1e6, times["run"] * 1e6
                rows.append((kib, per_op, run, setexec.hoists_tips(instance)))
            table[(np.dtype(dtype).name, k)] = rows
    return table


def row_crossover(table):
    """The smallest row size (KiB) from which per-operation steps beat
    run steps at every width and precision, or ``None``."""
    sizes = sorted({kib for rows in table.values() for kib, *_ in rows})
    for kib in sizes:
        if all(r > p for rows in table.values() for k, p, r, _ in rows if k >= kib):
            return kib
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="short run")
    args = parser.parse_args(argv)
    reps = 20 if args.quick else 200
    widths = [1, 2, 3, 4, 6, 8, 12, 16] if args.quick else list(range(1, 17))
    for label, n_patterns, sides in SHAPES:
        rows, fits, cutoff = width_sweep(n_patterns, widths, reps, sides)
        print(
            f"\n{label} shape ({n_patterns} patterns, {sides} store "
            "side(s)), µs per set:"
        )
        print("width  per-op     run")
        for k, p, r in rows:
            print(f"{k:5d}  {p:6.1f}  {r:6.1f}")
        for name, spec in fits.items():
            print(
                f"fit {name}: {spec.launch_overhead_s * 1e6:.1f} µs + "
                f"{spec.wave_time_s * 1e6:.1f} µs/op"
            )
        print(f"first width where run steps beat per-op steps: {cutoff}")
    print("\nsplit sweep: a set in r runs, µs per set, run step / per-op:")
    for label, n_patterns, sides in SHAPES:
        for width in (16, 64):
            runs = [r for r in SPLIT_RUNS if r <= width]
            if args.quick:
                runs = [1, width // 2, width]
            rows, fewest = split_sweep(n_patterns, width, runs, reps // 4, sides)
            cells = " ".join(f"{r}:{run:.0f}/{p:.0f}" for r, run, p in rows)
            print(f"{label:11s} width {width:3d}  {cells}")
            print(f"{'':11s} fewest runs at which per-op steps win: {fewest}")
            run, per_op = explicit_arm(n_patterns, width, reps // 4, sides)
            print(f"{'':11s} one explicit tip: {run:.0f}/{per_op:.0f}")
    print("\nrow sweep (4 categories, 4 states), µs per set, per-op / run:")
    widths = [8, 32] if args.quick else [8, 32, 128]
    dtypes = [np.float64] if args.quick else [np.float64, np.float32]
    table = row_sweep(widths, dtypes)
    print("dtype    width " + " ".join(f"{kib:>11d} KiB" for kib in ROW_KIB))
    for (dtype, k), rows in table.items():
        cells = [f"{p:7.0f}/{r:<7.0f}" for _, p, r, _ in rows]
        print(f"{dtype:8s} {k:5d} " + " ".join(cells))
    print("run / per-op time ratio:")
    for (dtype, k), rows in table.items():
        cells = [f"{r / p:15.2f}" for _, p, r, _ in rows]
        print(f"{dtype:8s} {k:5d} " + " ".join(cells))
    hoisted = sorted({kib for rows in table.values() for kib, _, _, h in rows if h})
    print(f"per-op steps win at every width from {row_crossover(table)} KiB rows")
    print(f"hoists_tips holds at rows of {hoisted} KiB")
    print(f"HOIST_MAX_ROW_BYTES = {setexec.HOIST_MAX_ROW_BYTES // 1024} KiB")
    return 0


def test_set_executor_sweep_runs():
    """Smoke: both step kinds time and fit on a tiny sweep, and the run
    kind lowers every set to a run step."""
    rows, fits, _ = width_sweep(16, [1, 2, 4], reps=2)
    assert len(rows) == 3 and all(len(row) == 3 for row in rows)
    assert set(fits) == set(WIDTH_KINDS)
    assert all(spec.wave_time_s > 0 for spec in fits.values())
    instance, sets = make_case(4, 16, 1)
    for kind, runs in (("run", True), ("per-op", False)):
        with mock.patch.multiple(setexec, **KINDS[kind]):
            program = setexec.compile_program(instance, sets)
        for step in program.steps:
            assert step.is_run == runs


def test_split_sweep_runs():
    """Smoke: the split sweep times both kinds for sets that split into
    the asked number of runs, up to one run per operation, with one and
    two store sides."""
    for sides in (1, 2):
        rows, _ = split_sweep(16, 8, [1, 3, 8], reps=2, store_sides=sides)
        assert [r for r, *_ in rows] == [1, 3, 8]
        instance, sets = make_case(8, 16, 1, store_sides=sides, runs=3)
        with mock.patch.multiple(setexec, **KINDS["run"]):
            program = setexec.compile_program(instance, sets)
        assert [len(step.products) for step in program.steps] == [3, 3]
        run, per_op = explicit_arm(16, 8, reps=2, store_sides=sides)
        assert run > 0 and per_op > 0


def test_row_sweep_runs():
    """Smoke: the row sweep times both kinds and names a crossover."""
    table = row_sweep([2], [np.float64, np.float32], row_kib=(1, 2), rounds=1)
    assert set(table) == {("float64", 2), ("float32", 2)}
    assert all(hoisted for rows in table.values() for *_, hoisted in rows)
    fake = {("float64", 8): [(4, 2.0, 1.0, True), (32, 1.0, 2.0, False)]}
    assert row_crossover(fake) == 32


if __name__ == "__main__":
    sys.exit(main())
