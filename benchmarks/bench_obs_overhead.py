"""Cost of the observability seams on the path everyone runs: disabled.

Every hot site in the likelihood stack asks ``get_recorder()`` and
branches on ``enabled`` (or enters a shared null context manager). With
the default null recorder that is the *entire* cost — no allocation, no
locking — and it must stay within a few percent of an engine with no
hooks at all, or the instrumentation does not belong in the kernel path.

Measured claims, on the Fig. 5 throughput workload (256-OTU random
tree, 512 patterns, concurrent plan):

* the null-recorder path costs **<3%** over a baseline that drives the
  same kernels through uninstrumented call sites,
* an *enabled* recorder (full tracing + metrics + profiling) is priced
  alongside, not hidden in the bound,
* instrumented and baseline paths compute the identical log-likelihood.

The baseline replicates the two per-launch seams with their
observability lines removed (the pre-instrumentation call path); with
the null recorder the kernel body enters no phase timer in either arm,
so the comparison isolates exactly the cost the hooks added per launch.
"""

from __future__ import annotations

import time

from conftest import emit

from repro.beagle.setexec import execute_set
from repro.bench import format_table
from repro.core import create_instance, execute_plan, make_plan
from repro.core.planner import _execute_plan_body
from repro.data import random_patterns
from repro.models import JC69
from repro.obs import NULL_RECORDER, Recorder, get_recorder, recording
from repro.trees.generate import random_attachment_tree

N_TIPS = 256  # Fig. 5 workload: 100 random 256-OTU trees, 512 patterns
SITES = 512
MODEL = JC69()
REPEATS = 9
OVERHEAD_BOUND = 0.03  # the headline guarantee: <3% with the null recorder


def setup_case():
    tree = random_attachment_tree(N_TIPS, 1, branch_length=0.1)
    patterns = random_patterns(sorted(tree.tip_names()), SITES, seed=1)
    instance = create_instance(tree, MODEL, patterns)
    plan = make_plan(tree, "concurrent")
    execute_plan(instance, plan)  # warm-up; validates plan
    return instance, plan


def run_baseline(instance, plan):
    """``execute_plan`` with the observability seams removed.

    Mirrors :func:`repro.core.planner.execute_plan` and
    :meth:`repro.beagle.instance.BeagleInstance.update_partials_set`
    line for line, minus their ``get_recorder()`` lookups and branches
    — the call path as it was before instrumentation.
    """
    instance.invalidate_partials()
    instance.bind_plan(plan)
    try:
        for op_set in plan.operation_sets:
            if not op_set:
                continue
            bound = instance._bound
            step = None if bound is None else bound.step_for(op_set)
            if step is None:
                execute_set(instance, op_set)
            else:
                step.run(instance, instance.workspace)
            stats = instance.stats
            stats.kernel_launches += 1
            stats.operations += len(op_set)
            stats.flops += len(op_set) * instance.flops_per_operation
    finally:
        instance.unbind_plan()
    return instance.calculate_root_log_likelihood(plan.root_buffer)


def run_null(instance, plan):
    return _execute_plan_body(instance, plan, update_matrices=False)


def measure(fns, instance, plan, repeats=REPEATS):
    """Best time of each of ``fns``, run in turn within every repeat so
    drift of the host lands on all of them."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn(instance, plan)
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def test_null_recorder_overhead_under_three_percent(benchmark, results_dir):
    instance, plan = setup_case()
    assert get_recorder() is NULL_RECORDER  # measuring the default path

    # Identical results on all three paths, to the bit.
    ll_baseline = run_baseline(instance, plan)
    assert execute_plan(instance, plan, update_matrices=False) == ll_baseline
    with recording():
        assert (
            execute_plan(instance, plan, update_matrices=False) == ll_baseline
        )

    t_baseline, t_null = measure([run_baseline, run_null], instance, plan)
    recorder = Recorder()
    with recording(recorder):
        (t_enabled,) = measure(
            [lambda i, p: execute_plan(i, p, update_matrices=False)],
            instance,
            plan,
        )

    overhead_null = t_null / t_baseline - 1.0
    overhead_enabled = t_enabled / t_baseline - 1.0
    rows = [
        {"path": "uninstrumented baseline", "ms": t_baseline * 1e3,
         "overhead": "—"},
        {"path": "null recorder (default)", "ms": t_null * 1e3,
         "overhead": f"{overhead_null * 100:+.2f}%"},
        {"path": "enabled recorder (trace+metrics+profile)",
         "ms": t_enabled * 1e3,
         "overhead": f"{overhead_enabled * 100:+.2f}%"},
    ]
    emit(
        results_dir,
        "obs_overhead.md",
        format_table(
            rows,
            title=(
                f"Observability seams, Fig. 5 workload: random "
                f"{N_TIPS}-OTU tree, {SITES} patterns, "
                f"{plan.n_launches} launches/evaluation"
            ),
        ),
    )
    assert overhead_null < OVERHEAD_BOUND

    benchmark(run_null, instance, plan)


def test_instrumented_results_are_bit_identical(results_dir):
    instance, plan = setup_case()
    ll = execute_plan(instance, plan)
    with recording() as obs:
        assert execute_plan(instance, plan) == ll
    assert obs.metrics.counter("repro_kernel_launches_total").value > 0
