"""Measure the set executor's two cut-offs: narrow vs arena steps, block size.

:func:`repro.beagle.setexec.compile_program` lowers sets narrower than
``ARENA_MIN_OPS`` to narrow steps and wider sets to arena steps in blocks
of ``block_ops(instance)`` operations. This script times both step kinds
as a bound program runs them, so the constants can be re-derived on any
host:

* **width sweep** — sets of 1–16 operations at the eval-narrow shape
  (128 patterns) and the serve shape (64 patterns), 1 category, 4 states,
  f64. Each operation has one internal and one tip child, as on a
  rerooted pectinate tree. Two such sets are compiled into one program
  (so narrow steps gather their tip children ahead, as in a plan) and
  the time is per set. A straight line ``t = a + b·k`` is fitted to each
  step kind (:func:`repro.gpu.fit_device_spec`); the cut-off is the first
  width at which the arena is faster.
* **block sweep** — arena block sizes at the eval-wide shape (1024
  patterns × 4 categories), where one partials row is 128 KiB.

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


def make_case(width: int, n_patterns: int, n_categories: int):
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


def time_program(instance, sets, arena_min: int, block: int, reps: int) -> float:
    """Median over 5 repeats of the mean seconds per set of a compiled
    program run: ``arena_min`` and ``block`` pin the step kinds."""
    with mock.patch.multiple(
        setexec, ARENA_MIN_OPS=arena_min, block_ops=lambda instance: block
    ):
        program = setexec.compile_program(instance, sets)
    ws = instance.workspace

    def run():
        program.start(instance)
        for step in program.steps:
            step.run(instance, ws)

    run()  # warm-up: sizes the arena
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(reps):
            run()
        samples.append((time.perf_counter() - start) / (reps * len(sets)))
    return statistics.median(samples)


def width_sweep(n_patterns: int, widths, reps: int):
    """Rows ``(width, narrow µs, arena µs)`` plus the fitted cut-off."""
    narrow, arena = [], []
    for k in widths:
        instance, sets = make_case(k, n_patterns, 1)
        block = setexec.block_ops(instance)
        narrow.append(time_program(instance, sets, 10**9, block, reps))
        arena.append(time_program(instance, sets, 1, block, reps))
    dims = WorkloadDims(patterns=n_patterns, states=4, categories=1)
    fits = {
        name: fit_device_spec(f"measured:{name}", dims, list(zip(widths, times)))
        for name, times in (("narrow", narrow), ("arena", arena))
    }
    faster = [k for k, p, a in zip(widths, narrow, arena) if a < p]
    cutoff = min(faster) if faster else None
    rows = [(k, p * 1e6, a * 1e6) for k, p, a in zip(widths, narrow, arena)]
    return rows, fits, cutoff


def block_sweep(widths, blocks, reps: int):
    """Rows ``(width, {block: µs})`` at the eval-wide shape."""
    rows = []
    for k in widths:
        instance, sets = make_case(k, 1024, 4)
        times = {}
        for block in blocks:
            if block > k:
                continue
            times[block] = 1e6 * time_program(instance, sets, 1, block, reps)
        rows.append((k, times))
    return rows


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
    blocks = [1, 2, 4, 8, 16, 32, 64]
    wide = [8, 16, 32] if args.quick else [8, 16, 32, 64]
    print("\neval-wide shape (1024 patterns x 4 categories), µs per set:")
    print("width  " + "  ".join(f"B={b:<5d}" for b in blocks))
    for k, times in block_sweep(wide, blocks, max(reps // 10, 3)):
        cells = [f"{times[b]:7.0f}" if b in times else "      -" for b in blocks]
        print(f"{k:5d}  " + "  ".join(cells))
    return 0


def test_set_executor_sweep_runs():
    """Smoke: both step kinds time and fit on a tiny sweep."""
    rows, fits, _ = width_sweep(16, [1, 2, 4], reps=2)
    assert len(rows) == 3
    assert all(spec.wave_time_s > 0 for spec in fits.values())


if __name__ == "__main__":
    sys.exit(main())
