"""Measure the set executor's cut-offs: narrow vs arena steps, by width and row size.

:func:`repro.beagle.setexec.compile_program` lowers sets narrower than
``ARENA_MIN_OPS`` to narrow steps and wider sets to arena steps in blocks
of ``block_ops(instance)`` operations, unless one partials row is too
large for the arena (``arena_fits``), when every set runs per-operation
steps. This script times the step kinds as a bound program runs them,
the kinds alternating within each of 7 rounds, so the constants can be
re-derived on any host:

* **width sweep** — sets of 1–16 operations at the eval-narrow shape
  (128 patterns) and the serve shape (64 patterns), 1 category, 4 states,
  f64. Each operation has one internal and one tip child, as on a
  rerooted pectinate tree. Two such sets are compiled into one program
  (so narrow steps gather their tip children ahead, as in a plan) and
  the time is per set. A straight line ``t = a + b·k`` is fitted to each
  step kind (:func:`repro.gpu.fit_device_spec`); the cut-off is the first
  width at which the arena is faster.
* **row sweep** — per-operation steps (no tip chunk gathered ahead) vs
  arena steps (blocks of ``block_ops``) for sets of 8, 32 and 128
  operations, rows of 4–128 KiB (4 categories, 4 states, patterns
  scaled to the row), f64 and f32. It prints the arena / per-operation
  time ratio per row size and the smallest row size from which
  per-operation steps win at every width and precision, beside the rows
  ``arena_fits`` keeps in the arena (``ARENA_MAX_ROW_BYTES``).

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


def make_case(width: int, n_patterns: int, n_categories: int, dtype=np.float64):
    """An instance and two sets of ``width`` (internal, tip) operations
    that read the same computed partials."""
    rng = np.random.default_rng(width)
    tips = 2 * width
    instance = BeagleInstance(
        tip_count=tips,
        partials_buffer_count=3 * width,
        matrix_count=tips,
        pattern_count=n_patterns,
        state_count=4,
        category_count=n_categories,
        dtype=dtype,
    )
    for tip in range(tips):
        instance.set_tip_states(tip, rng.integers(0, 5, size=n_patterns))
    instance.set_eigen_decomposition(0, MODEL.eigen)
    instance.set_category_rates(np.linspace(0.5, 1.5, n_categories))
    instance.update_transition_matrices(
        0, list(range(tips)), rng.uniform(0.01, 0.3, size=tips)
    )
    # First set: internal buffers from tip pairs (so the timed sets read
    # computed partials), then two timed sets of (internal, tip) operations.
    instance.update_partials_set(
        [Operation(tips + i, 2 * i, 2 * i, 2 * i + 1, 2 * i + 1) for i in range(width)]
    )
    sets = [
        [
            Operation(tips + j * width + i, tips + i, 2 * i, 2 * i + 1, 2 * i + 1)
            for i in range(width)
        ]
        for j in (1, 2)
    ]
    return instance, sets


#: Patches that pin one step kind at any row size: narrow steps (tip
#: chunks gathered ahead where the arena fits), per-operation steps (no
#: chunk: what rows too large for the arena lower to) and arena steps
#: in blocks of ``block_ops(instance)``.
KINDS = {
    "narrow": {"ARENA_MIN_OPS": 10**9},
    "per-op": {"ARENA_MIN_OPS": 10**9, "arena_fits": lambda instance: False},
    "arena": {"ARENA_MIN_OPS": 1, "arena_fits": lambda instance: True},
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
            program.start(instance)
            for step in program.steps:
                step.run(instance, instance.workspace)

        start = time.perf_counter()
        run()  # warm-up: sizes the arena
        runs[kind] = (run, reps or max(2, int(0.05 / (time.perf_counter() - start))))
    samples = {kind: [] for kind in kinds}
    for _ in range(rounds):
        for kind, (run, n) in runs.items():
            start = time.perf_counter()
            for _ in range(n):
                run()
            samples[kind].append((time.perf_counter() - start) / (n * len(sets)))
    return {kind: statistics.median(times) for kind, times in samples.items()}


def width_sweep(n_patterns: int, widths, reps: int):
    """Rows ``(width, narrow µs, arena µs)`` plus the fitted cut-off."""
    narrow, arena = [], []
    for k in widths:
        instance, sets = make_case(k, n_patterns, 1)
        times = time_kinds(instance, sets, ("narrow", "arena"), reps)
        narrow.append(times["narrow"])
        arena.append(times["arena"])
    dims = WorkloadDims(patterns=n_patterns, states=4, categories=1)
    fits = {
        name: fit_device_spec(f"measured:{name}", dims, list(zip(widths, times)))
        for name, times in (("narrow", narrow), ("arena", arena))
    }
    faster = [k for k, p, a in zip(widths, narrow, arena) if a < p]
    cutoff = min(faster) if faster else None
    rows = [(k, p * 1e6, a * 1e6) for k, p, a in zip(widths, narrow, arena)]
    return rows, fits, cutoff


ROW_KIB = (4, 8, 12, 16, 24, 32, 64, 128)


def row_sweep(widths, dtypes, row_kib=ROW_KIB, rounds: int = 7):
    """``{(dtype name, width): [(KiB, per-op µs, arena µs, arena fits)]}``
    at 4 categories and 4 states, patterns chosen for each row size."""
    table = {}
    for dtype in dtypes:
        itemsize = np.dtype(dtype).itemsize
        for k in widths:
            rows = []
            for kib in row_kib:
                n_patterns = kib * 1024 // (4 * 4 * itemsize)
                instance, sets = make_case(k, n_patterns, 4, dtype)
                times = time_kinds(instance, sets, ("per-op", "arena"), 0, rounds)
                per_op, arena = times["per-op"] * 1e6, times["arena"] * 1e6
                rows.append((kib, per_op, arena, setexec.arena_fits(instance)))
            table[(np.dtype(dtype).name, k)] = rows
    return table


def row_crossover(table):
    """The smallest row size (KiB) from which per-operation steps beat
    the arena at every width and precision, or ``None``."""
    sizes = sorted({kib for rows in table.values() for kib, *_ in rows})
    for kib in sizes:
        if all(a > p for rows in table.values() for r, p, a, _ in rows if r >= kib):
            return kib
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="short run")
    args = parser.parse_args(argv)
    reps = 20 if args.quick else 200
    widths = [1, 2, 3, 4, 6, 8, 12, 16] if args.quick else list(range(1, 17))
    print(f"ARENA_MIN_OPS = {setexec.ARENA_MIN_OPS}")
    for label, n_patterns in (("eval-narrow", 128), ("serve", 64)):
        rows, fits, cutoff = width_sweep(n_patterns, widths, reps)
        print(f"\n{label} shape ({n_patterns} patterns), µs per set:")
        print("width  narrow   arena")
        for k, p, a in rows:
            print(f"{k:5d}  {p:6.1f}  {a:6.1f}")
        for name, spec in fits.items():
            print(
                f"fit {name}: {spec.launch_overhead_s * 1e6:.1f} µs + "
                f"{spec.wave_time_s * 1e6:.1f} µs/op"
            )
        print(f"first width where the arena is faster: {cutoff}")
    print("\nrow sweep (4 categories, 4 states), µs per set, per-op / arena:")
    widths = [8, 32] if args.quick else [8, 32, 128]
    dtypes = [np.float64] if args.quick else [np.float64, np.float32]
    table = row_sweep(widths, dtypes)
    print("dtype    width " + " ".join(f"{kib:>11d} KiB" for kib in ROW_KIB))
    for (dtype, k), rows in table.items():
        cells = [f"{p:7.0f}/{a:<7.0f}" for _, p, a, _ in rows]
        print(f"{dtype:8s} {k:5d} " + " ".join(cells))
    print("arena / per-op time ratio:")
    for (dtype, k), rows in table.items():
        cells = [f"{a / p:15.2f}" for _, p, a, _ in rows]
        print(f"{dtype:8s} {k:5d} " + " ".join(cells))
    fits = sorted({kib for rows in table.values() for kib, _, _, f in rows if f})
    print(f"per-op steps win at every width from {row_crossover(table)} KiB rows")
    print(f"arena_fits holds at rows of {fits} KiB")
    print(f"ARENA_MAX_ROW_BYTES = {setexec.ARENA_MAX_ROW_BYTES // 1024} KiB")
    return 0


def test_set_executor_sweep_runs():
    """Smoke: both step kinds time and fit on a tiny sweep."""
    rows, fits, _ = width_sweep(16, [1, 2, 4], reps=2)
    assert len(rows) == 3
    assert all(spec.wave_time_s > 0 for spec in fits.values())


def test_row_sweep_runs():
    """Smoke: the row sweep times both kinds and names a crossover."""
    table = row_sweep([2], [np.float64, np.float32], row_kib=(1, 2), rounds=1)
    assert set(table) == {("float64", 2), ("float32", 2)}
    assert all(fits for rows in table.values() for *_, fits in rows)
    fake = {("float64", 8): [(4, 2.0, 1.0, True), (32, 1.0, 2.0, False)]}
    assert row_crossover(fake) == 32


if __name__ == "__main__":
    sys.exit(main())
