"""The repository benchmark: five closed-loop workloads, timed from outside.

Run from the repository root::

    python3 perfbench/run.py --workload eval-narrow --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload mcmc --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --self-check

``--trace 0`` measures the end-to-end metrics with nothing patched, each
time calibrated against a host probe run around it (``Probe``);
``--trace 1`` alternates untraced and traced blocks and reports the
per-layer metrics, the work counts and the tracing overhead. Both print a
table of every metric with its unit, then, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 when every answer was right, 1 when one was wrong, and
2 on a usage error or when the program's sources are missing.
``--self-check`` runs every workload's count block under two seeds and
exits 1 if any work count differs. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One process, one thread: pin every BLAS/OpenMP pool before numpy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The probe's time on a quiet host; calibrated times are scaled to it.
REFERENCE_PROBE_S = 1.0e-3

#: Fresh set-ups per run; ``setup_s`` is their median. One set-up takes
#: 7-90 ms, so a single sample would mostly measure the host's phase.
SETUPS = 9

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

PER_LAYER = {
    "core.execute_self_us": "us",
    "beagle.set_us_per_launch": "us",
    "beagle.sets_ms_per_unit": "ms",
    "beagle.matrices_ms_per_unit": "ms",
    "beagle.root_ms_per_unit": "ms",
    "beagle.upper_ms_per_unit": "ms",
    "core.incremental_plan_us": "us",
    "inference.propose_us": "us",
    "inference.accept_us": "us",
    "inference.reject_us": "us",
    "inference.move_us": "us",
    "inference.accept_frac": "fraction",
    "core.gradient_plan_ms": "ms",
    "inference.recombine_ms": "ms",
    "beagle.create_instance_ms": "ms",
    "serve.submit_us": "us",
    "serve.step_self_ms": "ms",
    "serve.queue_wait_ms_p50": "ms",
    "serve.batch_width_mean": "count",
    "exec.pool_self_ms_per_unit": "ms",
    "exec.retries_per_unit": "count",
    "core.reroot_ms": "ms",
    "core.plan_ms": "ms",
    "models.eigen_ms": "ms",
    "beagle.arena_mb": "MB",
    "core.launches_per_unit": "count",
    "core.ops_per_unit": "count",
    "beagle.matrices_per_unit": "count",
    "beagle.patterns": "count",
    "core.launches_as_given": "count",
    "core.launches_rerooted": "count",
    "gpu.modelled_us_per_unit": "us",
    "beagle.gflops_computed": "GFLOP/s",
    "beagle.bytes_per_unit_computed": "B",
    "host.probe_ms": "ms",
    "trace.overhead_frac": "fraction",
    "trace.attributed_frac": "fraction",
    "trace.units": "count",
}

clock = time.perf_counter


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


class Probe:
    """A fixed slice of work built only from benchmark code: interpreter
    dict lookups, small-array ufunc calls, a small matmul and a 4 MB
    stream, the mix the workloads spend their time in. A program change
    cannot move its time; a slow host phase does."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.table = {i: i for i in range(64)}
        self.small = rng.random(64)
        self.small_out = np.empty(64)
        self.a = rng.random((96, 96))
        self.b = rng.random((96, 96))
        self.out = np.empty((96, 96))
        self.stream = rng.random(1 << 19)
        self.stream_out = np.empty(1 << 19)

    def _once(self) -> None:
        total, table = 0, self.table
        for i in range(2000):
            total += table[i & 63]
        for _ in range(100):
            np.multiply(self.small, self.small, out=self.small_out)
        for _ in range(3):
            np.matmul(self.a, self.b, out=self.out)
        np.multiply(self.stream, 1.0001, out=self.stream_out)

    def __call__(self) -> float:
        # The first pass reloads what the block before evicted, so the
        # timed pass measures the host, not the program's cache footprint.
        self._once()
        start = clock()
        self._once()
        return clock() - start


def _traced(tracer, on=True):
    """The tracer applied for a ``with`` body, or nothing."""
    return tracer.applied() if tracer is not None and on else nullcontext()


def _setups(workload, seed, probe, tracer=None):
    """``SETUPS`` fresh set-ups from freshly generated inputs; keeps the last.

    Returns each set-up's time calibrated by the probes around it, and the
    raw times.
    """
    times, raw, state, inputs = [], [], None, None
    before = probe()
    for _ in range(SETUPS):
        state = None
        gc.collect()
        inputs = workload.inputs(seed)
        with _traced(tracer):
            start = clock()
            state = workload.setup(inputs)
            elapsed = clock() - start
        after = probe()
        raw.append(elapsed)
        times.append(elapsed * REFERENCE_PROBE_S / ((before + after) / 2))
        before = after
    return state, inputs, times, raw


def _count_block(workload, state, tally, tracer):
    """Warm-up: ``workload.count`` units, untimed, counted when traced."""
    if tracer is None:
        workload.run(state, workload.count, tally)
        return None
    tracer.reset()
    tracer.counting = True
    with tracer.applied():
        workload.run(state, workload.count, tally)
    tracer.counting = False
    return tracer.work_signature()


def _measure(workload, state, seconds, tally, probe, tracer=None):
    """Closed-loop blocks until ``seconds`` have passed.

    The probe runs before the first block and after every block; a block's
    host factor is the reference probe time over the mean of its two
    probes. With a tracer, odd blocks run traced and even blocks untraced,
    so the overhead is measured under the same host phases as the traced
    times.
    """
    out = {"latencies": [], "traced": [], "rates": [], "probes": [probe()]}
    out.update(raw_latencies=[], raw_rates=[], traced_wall=0.0)
    end = clock() + seconds
    block = 0
    while clock() < end:
        traced = tracer is not None and block % 2 == 1
        with _traced(tracer, traced):
            start = clock()
            latencies = workload.run(state, workload.block, tally)
            elapsed = clock() - start
        out["probes"].append(probe())
        factor = REFERENCE_PROBE_S / statistics.fmean(out["probes"][-2:])
        if traced:
            out["traced"].extend(t * factor for t in latencies)
            out["traced_wall"] += elapsed
        else:
            out["latencies"].extend(t * factor for t in latencies)
            out["rates"].append(len(latencies) / elapsed / factor)
            out["raw_latencies"].extend(latencies)
            out["raw_rates"].append(len(latencies) / elapsed)
        workload.check(state, tally)
        block += 1
    return out


def _quantile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    lo = math.floor(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_times, measured, tally):
    lat = measured["latencies"]
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": statistics.median(measured["rates"]),
        "latency_ms_p50": _quantile(lat, 0.5) * 1e3,
        "latency_ms_p90": _quantile(lat, 0.9) * 1e3,
        "peak_rss_mb": _peak_rss_mb(),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }


def _computed(tracer, units):
    """GP100-modelled seconds, FLOPs and bytes per unit from the counts."""
    from repro.beagle.kernels import operation_flops
    from repro.gpu import GP100
    from repro.gpu.perfmodel import WorkloadDims, launch_time

    modelled = flops = moved = 0.0
    for (dims, k, tips), n in tracer.launches.items():
        patterns, states, categories, size = dims
        partial = categories * patterns * states * size
        matrix = categories * states * states * size
        modelled += n * launch_time(
            GP100, WorkloadDims(patterns, states, categories), k
        ).seconds
        flops += n * k * operation_flops(patterns, states, categories)
        # Each operation writes one partials array and reads two children
        # (a tip's compact int32 codes or a full partials array) and two
        # matrices.
        moved += n * (
            k * (partial + 2 * matrix)
            + (2 * k - tips) * partial
            + tips * patterns * 4
        )
    for (patterns, states, categories, size), n in tracer.matrices.items():
        moved += n * categories * states * states * size
    for (patterns, states, categories, size), n in tracer.roots.items():
        moved += n * categories * patterns * states * size
    return modelled / units, flops / units, moved / units


def per_layer(
    workload, inputs, state, setup_trace, counts, computed, measured, tracer
):
    """Every per-layer metric of one traced run (0 where a layer is unused)."""
    from repro.core.planner import make_plan
    from repro.core.reroot_opt import optimal_reroot_fast

    units = len(measured["traced"])
    total, own, calls = tracer.total, tracer.self_time, tracer.calls

    def per_unit(times, *names, scale=1e3):
        return sum(times[n] for n in names) / units * scale if units else 0.0

    def per_call(name, scale, self_only=False):
        return tracer.per_call(name, self_only=self_only) * scale

    def ratio(a, b):
        return a / b if b else 0.0

    moves = ("inference.branch_length_move", "inference.nni_move_at")
    modelled, flops, moved = computed
    untraced_p50 = _quantile(measured["latencies"], 0.5)
    traced_p50 = _quantile(measured["traced"], 0.5)
    tree = inputs["tree"]  # as generated, before any rerooting
    server = state.get("server")
    rerooted = optimal_reroot_fast(tree.copy()).tree
    return {
        "core.execute_self_us": per_unit(own, "core.execute_plan", scale=1e6),
        "beagle.set_us_per_launch": per_call("beagle.update_partials_set", 1e6),
        "beagle.sets_ms_per_unit": per_unit(total, "beagle.update_partials_set"),
        "beagle.matrices_ms_per_unit": per_unit(
            total, "beagle.update_transition_matrices"
        ),
        "beagle.root_ms_per_unit": per_unit(
            total, "beagle.calculate_root_log_likelihood"
        ),
        "beagle.upper_ms_per_unit": per_unit(
            total, "beagle.update_upper_partials_set"
        ),
        "core.incremental_plan_us": per_unit(
            total, "core.incremental_plan", scale=1e6
        ),
        "inference.propose_us": per_call("inference.propose", 1e6, True),
        "inference.accept_us": per_call("inference.accept", 1e6, True),
        "inference.reject_us": per_call("inference.reject", 1e6, True),
        "inference.move_us": ratio(
            sum(total[m] for m in moves) * 1e6, sum(calls[m] for m in moves)
        ),
        "inference.accept_frac": ratio(
            calls["inference.accept"], calls["inference.propose"]
        ),
        "core.gradient_plan_ms": per_unit(total, "core.make_gradient_plan"),
        "inference.recombine_ms": per_unit(own, "inference.all_branch_derivatives"),
        "beagle.create_instance_ms": per_unit(total, "beagle.create_instance"),
        "serve.submit_us": per_call("serve.submit", 1e6),
        "serve.step_self_ms": per_call("serve.step", 1e3, True),
        "serve.queue_wait_ms_p50": (
            _quantile(state["queue_waits"], 0.5) * 1e3 if server else 0.0
        ),
        "serve.batch_width_mean": ratio(units, calls["exec.pool_submit"]),
        "exec.pool_self_ms_per_unit": per_unit(
            own, "exec.pool_submit", "exec.pool_drain"
        ),
        "exec.retries_per_unit": _retries(server) if server else 0.0,
        "core.reroot_ms": setup_trace["core.reroot"],
        "core.plan_ms": setup_trace["core.make_plan"],
        "models.eigen_ms": setup_trace["models.eigen"],
        "beagle.arena_mb": (
            workload.instance(state).memory_footprint()["total"] / 1e6
        ),
        "core.launches_per_unit": counts["work.launches"] / workload.count,
        "core.ops_per_unit": counts["work.operations"] / workload.count,
        "beagle.matrices_per_unit": counts["work.matrices"] / workload.count,
        "beagle.patterns": counts["work.patterns"],
        "core.launches_as_given": make_plan(tree.copy()).n_launches,
        "core.launches_rerooted": make_plan(rerooted).n_launches,
        "gpu.modelled_us_per_unit": modelled * 1e6,
        "beagle.gflops_computed": ratio(
            flops / 1e9, _quantile(measured["raw_latencies"], 0.5)
        ),
        "beagle.bytes_per_unit_computed": moved,
        "host.probe_ms": statistics.median(measured["probes"]) * 1e3,
        "trace.overhead_frac": ratio(traced_p50, untraced_p50) - 1.0,
        "trace.attributed_frac": ratio(
            tracer.attributed(), measured["traced_wall"]
        ),
        "trace.units": units,
    }


def _retries(server):
    """Pool, resilient-stack and serve retries per served request."""
    stats = server.pool.stats()
    retries = stats.faults.retried + stats.rerouted + server.ledger.retried
    return retries / max(1, server.ledger.served)


def run_workload(name, seed, seconds, trace, size="full"):
    """One benchmark run; returns the result object the CLI prints."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name](size)
    tally = workloads.Tally()
    probe = Probe()
    tracer = tracing.Tracer() if trace else None

    state, inputs, setup_times, raw_setup = _setups(workload, seed, probe, tracer)
    details = {"tally": tally}
    setup_trace = {}
    if tracer is not None:
        # Set-up spans: mean ms per call across the fresh set-ups.
        details["setup_calls"] = dict(tracer.calls)
        for span in ("core.reroot", "core.make_plan", "models.eigen"):
            setup_trace[span] = tracer.per_call(span) * 1e3
    workload.prepare(inputs, state, tally)
    counts = _count_block(workload, state, tally, tracer)
    computed = None
    if tracer is not None:
        computed = _computed(tracer, workload.count)
        tracer.reset()
    gc.collect()
    gc.freeze()
    measured = _measure(workload, state, seconds, tally, probe, tracer)
    gc.unfreeze()
    workload.finish(state, tally)
    details["measured"] = measured

    if tracer is None:
        metrics = end_to_end(setup_times, measured, tally)
        units = END_TO_END
        details["raw"] = {
            "setup_s": statistics.median(raw_setup),
            "throughput_per_s": statistics.median(measured["raw_rates"]),
            "latency_ms_p50": _quantile(measured["raw_latencies"], 0.5) * 1e3,
            "latency_ms_p90": _quantile(measured["raw_latencies"], 0.9) * 1e3,
        }
    else:
        details["unit_calls"] = dict(tracer.calls)
        metrics = per_layer(
            workload, inputs, state, setup_trace, counts, computed,
            measured, tracer,
        )
        units = PER_LAYER
    result = {
        "correct": tally.failed == 0 and not tally.notes,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            key: {"value": float(value), "unit": units[key]}
            for key, value in metrics.items()
        },
    }
    return result, details


def count_signature(name, seed, size="full"):
    """The work counts of one workload's count block under one seed."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name](size)
    tally = workloads.Tally()
    inputs = workload.inputs(seed)
    state = workload.setup(inputs)
    workload.prepare(inputs, state, tally)
    return _count_block(workload, state, tally, tracing.Tracer())


def compare_counts(a: dict, b: dict) -> list:
    """Every count that differs between two signatures, as text."""
    return [
        f"{key}: {a.get(key)} != {b.get(key)}"
        for key in sorted(set(a) | set(b))
        if a.get(key) != b.get(key)
    ]


def self_check(size, seeds=(1, 2)) -> int:
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        first, second = (count_signature(name, seed, size) for seed in seeds)
        diffs = compare_counts(first, second)
        verdict = "identical" if not diffs else "DIFFER"
        shown = ("launches", "operations", "matrices", "patterns")
        print(
            f"{name}: work counts {verdict} for seeds {seeds[0]} and {seeds[1]} ("
            + ", ".join(f"{key}={first['work.' + key]}" for key in shown)
            + ")"
        )
        for line in diffs:
            print(f"  {line}")
        status |= bool(diffs)
    return status


def _print_table(result, details, args) -> None:
    tally, measured = details["tally"], details["measured"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, metric in result["metrics"].items():
        print(f"  {key:34s} {metric['value']:>16.6g} {metric['unit']}")
    for key, value in details.get("raw", {}).items():
        print(f"  {key + ' (raw)':34s} {value:>16.6g} {END_TO_END[key]}")
    samples = len(measured["latencies"])
    print(
        f"  latency samples {samples} (untraced), blocks {len(measured['rates'])}, "
        f"attempted {tally.attempted}, failed {tally.failed}"
    )
    for note in tally.notes:
        print(f"  FAILED: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="problem size; tiny is for the smoke tests",
    )
    parser.add_argument(
        "--self-check", action="store_true",
        help="compare every workload's work counts under two seeds",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail_usage(f"program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.self_check:
        return self_check(args.size)
    if args.workload not in workloads.WORKLOADS:
        return _fail_usage(
            f"--workload must be one of {', '.join(workloads.WORKLOADS)}"
        )
    if args.seconds <= 0:
        return _fail_usage("--seconds must be positive")
    result, details = run_workload(
        args.workload, args.seed, args.seconds, args.trace, args.size
    )
    _print_table(result, details, args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
