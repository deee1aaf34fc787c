"""Measure the set executor's two cut-offs: per-operation vs arena, block size.

:func:`repro.beagle.setexec.execute_set` runs sets narrower than
``ARENA_MIN_OPS`` operation by operation and wider sets through the arena
in blocks of ``block_ops(instance)`` operations. This script times both
strategies directly, set by set, so the constants can be re-derived on any
host:

* **width sweep** — sets of 1–16 operations at the eval-narrow shape
  (128 patterns) and the serve shape (64 patterns), 1 category, 4 states,
  f64. Each operation has one internal and one tip child, as on a
  rerooted pectinate tree. A straight line ``t = a + b·k`` is fitted to
  each strategy (:func:`repro.gpu.fit_device_spec`); the cut-off is the
  first width at which the arena is faster.
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

import numpy as np

from repro.beagle import BeagleInstance, Operation
from repro.beagle.setexec import (
    ARENA_MIN_OPS,
    block_ops,
    execute_arena,
    execute_per_operation,
)
from repro.gpu import WorkloadDims, fit_device_spec
from repro.models import HKY85

MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])


def make_case(width: int, n_patterns: int, n_categories: int):
    """An instance whose next set has ``width`` (internal, tip) operations."""
    rng = np.random.default_rng(width)
    tips = 2 * width
    instance = BeagleInstance(
        tip_count=tips,
        partials_buffer_count=2 * width,
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
    # First set: internal buffers from tip pairs (so the timed set reads
    # computed partials), then the timed set of (internal, tip) operations.
    seed_ops = [
        Operation(tips + i, 2 * i, 2 * i, 2 * i + 1, 2 * i + 1)
        for i in range(width)
    ]
    instance.update_partials_set(seed_ops)
    ops = [
        Operation(tips + width + i, tips + i, 2 * i, 2 * i + 1, 2 * i + 1)
        for i in range(width)
    ]
    return instance, ops


def time_set(run, instance, ops, reps: int, repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean seconds per set over ``reps``."""
    run(instance, ops)  # warm-up: sizes the arena
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(reps):
            run(instance, ops)
        samples.append((time.perf_counter() - start) / reps)
    return statistics.median(samples)


def width_sweep(n_patterns: int, widths, reps: int):
    """Rows ``(width, per-op µs, arena µs)`` plus the fitted cut-off."""
    per_op, arena = [], []
    for k in widths:
        instance, ops = make_case(k, n_patterns, 1)
        per_op.append(time_set(execute_per_operation, instance, ops, reps))
        arena.append(
            time_set(
                lambda inst, o: execute_arena(inst, o, block_ops(inst)),
                instance,
                ops,
                reps,
            )
        )
    dims = WorkloadDims(patterns=n_patterns, states=4, categories=1)
    fits = {
        name: fit_device_spec(f"measured:{name}", dims, list(zip(widths, times)))
        for name, times in (("per-op", per_op), ("arena", arena))
    }
    faster = [k for k, p, a in zip(widths, per_op, arena) if a < p]
    cutoff = min(faster) if faster else None
    rows = [(k, p * 1e6, a * 1e6) for k, p, a in zip(widths, per_op, arena)]
    return rows, fits, cutoff


def block_sweep(widths, blocks, reps: int):
    """Rows ``(width, {block: µs})`` at the eval-wide shape."""
    rows = []
    for k in widths:
        instance, ops = make_case(k, 1024, 4)
        times = {}
        for block in blocks:
            if block > k:
                continue
            times[block] = 1e6 * time_set(
                lambda inst, o: execute_arena(inst, o, block), instance, ops, reps
            )
        rows.append((k, times))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="short run")
    args = parser.parse_args(argv)
    reps = 20 if args.quick else 200
    widths = [1, 2, 3, 4, 6, 8, 12, 16] if args.quick else list(range(1, 17))
    print(f"ARENA_MIN_OPS = {ARENA_MIN_OPS}")
    for label, n_patterns in (("eval-narrow", 128), ("serve", 64)):
        rows, fits, cutoff = width_sweep(n_patterns, widths, reps)
        print(f"\n{label} shape ({n_patterns} patterns), µs per set:")
        print("width  per-op   arena")
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
    """Smoke: both strategies time and fit on a tiny sweep."""
    rows, fits, _ = width_sweep(16, [1, 2, 4], reps=2)
    assert len(rows) == 3
    assert all(spec.wave_time_s > 0 for spec in fits.values())


if __name__ == "__main__":
    sys.exit(main())
