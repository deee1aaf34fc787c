"""Cost of pool supervision on the path that matters: the fault-free one.

A :class:`~repro.exec.pool.LikelihoodPool` routes every evaluation
through a job queue, a circuit-breaker check, a deadline and the final
sentinel audit. Fleets are overwhelmingly healthy, so the machinery
earns its keep only if fault-free dispatch stays within a few percent of
calling the engine directly.

Measured claims:

* a 4-worker pool (inline executor — same thread, pure dispatch cost;
  fail-fast workers, so the engine path matches the baseline) completes
  a batch of independent evaluations within **<5%** of the direct
  serial loop over the same fresh-instance cases, final sentinel audit
  included,
* arming the workers' full retry/verify pipeline is the one knowingly
  priced feature — its cost is reported alongside, not hidden in the
  bound (``bench_fault_overhead`` bounds that wrapper separately),
* every pool result is bit-identical to the serial value,
* the device model's degraded-fleet curve — throughput as workers are
  evicted, 0 to N−1, with identical jobs list-scheduled on the
  survivors: ``n_jobs / (ceil(n_jobs / survivors) · job_seconds)`` — is
  monotone non-increasing, and a real pool run at
  every eviction level still returns bit-identical, fully accounted
  results. (Measured wall-clock throughput is reported alongside but
  not gated: the CPU engine's threads contend for the interpreter lock,
  so fewer survivors can paradoxically run a little faster — a host
  artefact the device model deliberately excludes.)
"""

from __future__ import annotations

import math
import time

from conftest import emit

from repro.bench import format_table
from repro.core import create_instance, execute_plan, make_plan
from repro.data import random_patterns
from repro.exec import LikelihoodPool
from repro.gpu import GP100, WorkloadDims, time_set_sizes
from repro.models import JC69
from repro.trees import balanced_tree

N_TIPS = 128
SITES = 256
N_WORKERS = 4
N_JOBS = 16
REPEATS = 5
OVERHEAD_BOUND = 0.05  # headline guarantee: <5% fault-free dispatch cost


def setup_case():
    tree = balanced_tree(N_TIPS, branch_length=0.1)
    patterns = random_patterns(sorted(tree.tip_names()), SITES, seed=1)
    model = JC69()
    plan = make_plan(tree, "concurrent")

    def make_case():
        return create_instance(tree, model, patterns), plan

    reference = execute_plan(*make_case())  # warm-up; validates plan
    return make_case, reference


def measure_serial(make_case):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        values = [execute_plan(*make_case()) for _ in range(N_JOBS)]
        best = min(best, time.perf_counter() - start)
    return best, values


def measure_pool(make_case, **pool_kwargs):
    best = float("inf")
    for _ in range(REPEATS):
        pool = LikelihoodPool(N_WORKERS, executor="inline", **pool_kwargs)
        start = time.perf_counter()
        for rep in range(N_JOBS):
            pool.submit_case(make_case, label=f"rep-{rep}")
        outcomes = pool.drain()
        best = min(best, time.perf_counter() - start)
        assert pool.stats().balances()
    return best, [outcome.value for outcome in outcomes]


def test_fault_free_dispatch_overhead_under_five_percent(
    benchmark, results_dir
):
    make_case, reference = setup_case()

    t_serial, serial_values = measure_serial(make_case)
    # Headline config: fail-fast workers — the engine path is the same
    # bare BeagleInstance the serial loop runs, so the difference is the
    # pool machinery itself (queue, breakers, deadline checks, audit).
    t_pool, pool_values = measure_pool(make_case, policy=None)
    # Priced feature: workers armed with the default retry/verify
    # pipeline (whose own cost bench_fault_overhead bounds separately).
    t_armed, armed_values = measure_pool(make_case)

    assert serial_values == [reference] * N_JOBS
    assert pool_values == [reference] * N_JOBS  # bit-identical, job by job
    assert armed_values == [reference] * N_JOBS

    overhead = t_pool / t_serial - 1.0
    overhead_armed = t_armed / t_serial - 1.0
    rows = [
        {
            "path": "direct serial loop",
            "ms/batch": t_serial * 1e3,
            "overhead": "—",
        },
        {
            "path": f"LikelihoodPool ({N_WORKERS} workers, fail-fast)",
            "ms/batch": t_pool * 1e3,
            "overhead": f"{overhead * 100:+.2f}%",
        },
        {
            "path": f"LikelihoodPool ({N_WORKERS} workers, resilient)",
            "ms/batch": t_armed * 1e3,
            "overhead": f"{overhead_armed * 100:+.2f}%",
        },
    ]
    emit(
        results_dir,
        "pool_overhead.md",
        format_table(
            rows,
            title=(
                f"Pool dispatch, fault-free path: {N_JOBS} evaluations, "
                f"balanced {N_TIPS}-OTU tree, {SITES} patterns"
            ),
        ),
    )
    assert overhead < OVERHEAD_BOUND

    def batch():
        pool = LikelihoodPool(N_WORKERS, executor="inline", policy=None)
        for rep in range(N_JOBS):
            pool.submit_case(make_case, label=f"rep-{rep}")
        return pool.drain()

    benchmark(batch)


def test_degraded_fleet_throughput_is_monotone(results_dir):
    make_case, reference = setup_case()
    plan = make_case()[1]
    dims = WorkloadDims(patterns=SITES, states=4)
    job_seconds = time_set_sizes(GP100, dims, plan.set_sizes).seconds
    modelled = {
        evicted: N_JOBS
        / (math.ceil(N_JOBS / (N_WORKERS - evicted)) * job_seconds)
        for evicted in range(N_WORKERS)
    }

    rows = []
    measured = []
    for evicted in range(N_WORKERS):
        pool = LikelihoodPool(N_WORKERS, executor="thread")
        for worker in pool.workers[:evicted]:
            worker.breaker.evict()
        start = time.perf_counter()
        for rep in range(N_JOBS):
            pool.submit_case(make_case, label=f"rep-{rep}")
        outcomes = pool.drain()
        elapsed = time.perf_counter() - start
        assert all(o.ok and o.value == reference for o in outcomes)
        assert pool.stats().balances()
        throughput = N_JOBS / elapsed
        measured.append(throughput)
        rows.append(
            {
                "evicted": evicted,
                "survivors": N_WORKERS - evicted,
                "jobs/s (measured)": throughput,
                "jobs/s (modelled)": modelled[evicted],
            }
        )
    emit(
        results_dir,
        "pool_degradation.md",
        format_table(
            rows,
            title=(
                f"Degraded-fleet throughput: {N_JOBS} jobs on "
                f"{N_WORKERS} workers, 0 to {N_WORKERS - 1} evicted"
            ),
        ),
    )
    # The degradation gate lives on the modelled curve: strictly fewer
    # survivors never yield more modelled throughput. Measured numbers
    # are informational (GIL contention makes them non-monotone).
    modelled_curve = [modelled[k] for k in range(N_WORKERS)]
    assert modelled_curve == sorted(modelled_curve, reverse=True)
    assert all(throughput > 0 for throughput in measured)
