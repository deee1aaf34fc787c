"""Serving throughput — cross-request coalescing vs singleton dispatch.

Two views of the same trade-off:

* **measured** — a real :class:`~repro.serve.LikelihoodServer` over an
  inline pool serves a multi-tenant backlog with coalescing on and off;
  every served value is gated bit-identical to the serial evaluation, so
  the speedup is not bought with accuracy.
* **device model** — :func:`~repro.gpu.perfmodel.time_set_sizes` prices
  the lockstep launch schedule of
  :meth:`~repro.serve.CoalescedBatch.launch_schedule` (one launch per
  round, summing the members' same-depth sets) at thousands of
  tenants, where the
  per-launch overhead the coalescer amortises dominates: aggregate
  requests/s rises monotonically with width while per-request latency
  (the p99 proxy: every member waits for the shared launch) rises too.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import format_table
from repro.core.planner import create_instance, execute_plan, make_plan
from repro.data import random_patterns
from repro.exec import LikelihoodPool
from repro.gpu import GP100, WorkloadDims, time_set_sizes
from repro.models import JC69
from repro.serve import (
    AdmissionConfig,
    CoalescedBatch,
    CoalescePolicy,
    FairnessConfig,
    LikelihoodServer,
    RequestDims,
)
from repro.serve.request import LikelihoodRequest
from repro.trees import balanced_tree

from conftest import FULL, emit


def _case():
    tree = balanced_tree(16)
    patterns = random_patterns(
        tree.tip_names(), 64, rng=np.random.default_rng(23)
    )
    model = JC69()
    plan = make_plan(tree, "concurrent")

    def make_case():
        return create_instance(tree, model, patterns), plan

    reference = execute_plan(*make_case())
    dims = RequestDims(state_count=4, pattern_count=64)
    set_sizes = tuple(plan.set_sizes)
    return make_case, reference, dims, set_sizes


def _serve(make_case, reference, dims, set_sizes, *, n_tenants, n_requests,
           width):
    pool = LikelihoodPool(4, executor="inline")
    server = LikelihoodServer(
        pool,
        # Headroom keeps queue pressure below the brownout thresholds:
        # this benchmark measures throughput, not overload shedding.
        admission=AdmissionConfig(max_queued=4 * n_requests),
        fairness=FairnessConfig(),
        coalesce=CoalescePolicy(max_width=width, enabled=width > 1),
        jitter_seed=0,
    )
    t0 = time.perf_counter()
    for i in range(n_requests):
        server.submit(
            f"tenant-{i % n_tenants}", make_case,
            dims=dims, set_sizes=set_sizes,
        )
    outcomes = server.drain()
    wall = time.perf_counter() - t0
    assert all(o.ok and o.value == reference for o in outcomes)
    assert server.ledger.balances() and server.ledger.drained()
    waits = sorted(o.wait_s for o in outcomes)
    p50 = waits[len(waits) // 2]
    p99 = waits[min(len(waits) - 1, int(len(waits) * 0.99))]
    return {
        "throughput": n_requests / wall,
        "p50_ms": p50 * 1e3,
        "p99_ms": p99 * 1e3,
        "launches": server.ledger.coalesced_launches or n_requests,
    }


def test_coalescing_throughput_and_latency(results_dir):
    make_case, reference, dims, set_sizes = _case()
    n_requests = 512 if FULL else 128
    rows = []
    for n_tenants in (8, 64, n_requests):
        for width in (1, 8):
            result = _serve(
                make_case, reference, dims, set_sizes,
                n_tenants=n_tenants, n_requests=n_requests, width=width,
            )
            rows.append(
                {
                    "tenants": n_tenants,
                    "coalescing": f"width {width}" if width > 1 else "off",
                    "req/s": f"{result['throughput']:.0f}",
                    "p50 ms": f"{result['p50_ms']:.1f}",
                    "p99 ms": f"{result['p99_ms']:.1f}",
                }
            )
    measured = format_table(
        rows,
        title=(
            f"Measured: inline pool, 16 taxa / 64 patterns, "
            f"{n_requests} requests (every value gated bit-identical)"
        ),
    )

    wdims = WorkloadDims(patterns=512, states=4, categories=4)
    set_shape = (8, 4, 2, 1)
    model_rows = []
    for width in (1, 2, 4, 8, 16, 32):
        batch = CoalescedBatch(
            [
                LikelihoodRequest(
                    index=i, tenant=f"tenant-{i}", make_case=make_case,
                    label=f"r{i}", set_sizes=set_shape,
                )
                for i in range(width)
            ]
        )
        # Every member waits for the whole batch: the batch's device
        # time is each request's latency.
        per_req_s = time_set_sizes(
            GP100, wdims, batch.launch_schedule()
        ).seconds
        req_s = width / per_req_s
        model_rows.append(
            {
                "width": width,
                "tenants served": 4096,
                "agg req/s": f"{req_s:.0f}",
                "per-request µs (p99 proxy)": f"{per_req_s * 1e6:.0f}",
            }
        )
    modelled = format_table(
        model_rows,
        title=(
            "Device model (NVIDIA Quadro GP100): 4096 single-request "
            "tenants, 512 patterns × 4 categories"
        ),
    )
    emit(results_dir, "serve_throughput.md", measured + "\n" + modelled)

    # The headline claim: at every tenant count the coalesced
    # configuration moves at least as many aggregate requests per
    # second through the device model, and pays for it in per-request
    # latency.
    model_tp = [float(r["agg req/s"]) for r in model_rows]
    model_lat = [
        float(r["per-request µs (p99 proxy)"]) for r in model_rows
    ]
    assert model_tp == sorted(model_tp)
    assert model_lat == sorted(model_lat)
