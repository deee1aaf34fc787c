"""``synthetictest`` — a work-alike of BEAGLE's benchmark program.

The paper's entire evaluation is driven by the ``synthetictest`` program
shipped with BEAGLE, extended with ``--pectinate``, ``--randomtree`` and
``--reroot`` options (Table II). This module reproduces that command-line
surface so the paper's example invocation runs verbatim (modulo the
program name)::

    synthetictest --rsrc 1 --taxa 64 --sites 512 --reps 1000 \\
        --full-timing --manualscale --rescale-frequency 1000 \\
        --randomtree --reroot --seed 1

Resources (``--rsrc``):

* ``0`` / ``cpu`` — CPU: the NumPy engine actually computes the
  likelihood ``--reps`` times and reports measured wall-clock
  throughput.
* ``1`` / ``gp100`` — GP100 device model (the paper's System 1): the
  engine computes the likelihood once for validation; timing comes from
  the analytical device model.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import List, Optional

import numpy as np

from ..core import (
    count_operation_sets,
    create_instance,
    execute_plan,
    make_plan,
    optimal_reroot_fast,
    tree_theoretical_speedup,
)
from ..data import random_patterns
from ..exec import (
    Deadline,
    DeadlineExceeded,
    ExecutionError,
    FaultSchedule,
    FaultSpec,
    LikelihoodPool,
    ResilientInstance,
    RetryPolicy,
)
from ..exec.stack import build_stack, run_plan
from ..gpu import GP100, SimulatedDevice, WorkloadDims
from ..models import random_gtr
from ..obs import Recorder, get_recorder, record_pool_stats, set_recorder
from ..trees import tree_height
from .harness import build_tree

__all__ = ["build_parser", "run", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Argument parser mirroring BEAGLE's synthetictest options."""
    parser = argparse.ArgumentParser(
        prog="synthetictest",
        description="Benchmark the phylogenetic partial-likelihoods kernel "
        "on synthetic data (Python work-alike of BEAGLE's synthetictest).",
    )
    # --- Always-used options (Table II, upper half) -------------------
    parser.add_argument(
        "--rsrc",
        type=str,
        default="0",
        help="resource: 0/cpu = NumPy CPU engine (measured), "
        "1/gp100 = GP100 model",
    )
    parser.add_argument("--taxa", type=int, default=16, help="number of OTUs")
    parser.add_argument(
        "--sites", type=int, default=512, help="number of unique site patterns"
    )
    parser.add_argument(
        "--reps", type=int, default=10, help="calculation repetitions"
    )
    parser.add_argument(
        "--full-timing",
        action="store_true",
        help="output detailed per-launch timing information",
    )
    parser.add_argument(
        "--manualscale",
        action="store_true",
        help="enable application-managed floating-point rescaling",
    )
    parser.add_argument(
        "--rescale-frequency",
        type=int,
        default=1,
        metavar="N",
        help="compute new rescaling factors every N repetitions",
    )
    # --- Benchmark-dependent options (Table II, lower half) -----------
    parser.add_argument(
        "--pectinate", action="store_true", help="use a pectinate tree topology"
    )
    parser.add_argument(
        "--randomtree", action="store_true", help="use an arbitrary tree topology"
    )
    parser.add_argument(
        "--reroot", action="store_true", help="optimally reroot the tree"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        help="random seed for data, model parameters and topology",
    )
    # --- Extensions beyond the paper's table --------------------------
    parser.add_argument(
        "--states", type=int, default=4, help="character states (4/20/61)"
    )
    parser.add_argument(
        "--categories", type=int, default=1, help="rate categories"
    )
    parser.add_argument(
        "--serial",
        action="store_true",
        help="disable multi-operation launches (sequential baseline)",
    )
    parser.add_argument(
        "--partitions",
        type=int,
        default=1,
        metavar="N",
        help="split the sites into N equal partitions with independent "
        "random models (pattern-partition concurrency, paper §IV-A)",
    )
    parser.add_argument(
        "--streams",
        type=int,
        default=0,
        metavar="S",
        help="model stream-based scheduling with S streams instead of the "
        "multi-operation kernel (GP100 resource only)",
    )
    parser.add_argument(
        "--gradient",
        action="store_true",
        help="compute every branch's (logL, d/dt, d2/dt2) with the "
        "one-sweep pre-order engine, verify each edge exactly against "
        "the per-edge rerooted oracle, and assert the one-sweep "
        "operation count beats the per-edge total (any mismatch fails "
        "the run)",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="statically verify the plan (repro.analysis) before running "
        "and fail on any buffer hazard",
    )
    parser.add_argument(
        "--races",
        action="store_true",
        help="statically prove every operation set free of intra-set "
        "WAW/WAR/RAW hazards (and, with --streams, the stream schedule "
        "free of cross-stream sharing) before running",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="wrap every pool worker's engine in the shadow-state buffer "
        "sanitizer; any unsynchronized cross-thread buffer access fails "
        "the run (requires --pool)",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="inject deterministic faults into P of launch attempts "
        "(seeded chaos run; see repro.exec)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the fault-injection stream (independent of --seed)",
    )
    parser.add_argument(
        "--resilience",
        choices=("none", "retry", "degrade", "full"),
        default="none",
        help="recovery policy: none = fail fast, retry = per-launch "
        "retries, degrade = retries + batched-to-per-op fallback, "
        "full = retries + degradation + rescaling escalation",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="X",
        help="per-evaluation wall-clock budget in milliseconds; an "
        "evaluation that runs over raises a typed DeadlineExceeded "
        "(CPU resource; also the per-job budget under --pool)",
    )
    parser.add_argument(
        "--pool",
        type=int,
        default=0,
        metavar="N",
        help="dispatch the repetitions as independent jobs across a "
        "supervised pool of N likelihood workers (health checks, "
        "circuit breakers, failover; see repro.exec.pool)",
    )
    parser.add_argument(
        "--worker-fault-rates",
        type=str,
        default=None,
        metavar="R0,R1,...",
        help="comma-separated per-worker fault rates for --pool (shorter "
        "lists pad with 0; worker i draws from an independent stream "
        "seeded from --fault-seed)",
    )
    parser.add_argument(
        "--pool-inline",
        action="store_true",
        help="use the deterministic inline pool executor instead of one "
        "thread per worker (replayable chaos runs)",
    )
    parser.add_argument(
        "--pool-health-every",
        type=int,
        default=0,
        metavar="K",
        help="run a sentinel health check on a worker after every K "
        "completed jobs (0 = only half-open probes and the final audit)",
    )
    # --- Site-pattern sharding (repro.exec.sharding) ------------------
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="partition the site patterns into N shards and evaluate "
        "them data-parallel through the worker pool; the run fails "
        "unless the sharded logL is bit-identical to the serial logL "
        "and both shard and pool ledgers balance. With "
        "--shards, --fault-rate injects shard-scoped faults "
        "(lost/stall/underflow) instead of launch-level ones",
    )
    parser.add_argument(
        "--shard-retries",
        type=int,
        default=2,
        metavar="R",
        help="bounded per-shard retry budget before the run surfaces "
        "a ShardFailure",
    )
    parser.add_argument(
        "--shard-speculate",
        action="store_true",
        help="submit a speculative duplicate of every pending shard; "
        "first valid result wins, the loser is cancelled and "
        "reconciled in the ledger",
    )
    parser.add_argument(
        "--shard-fault-rate",
        type=float,
        default=None,
        metavar="P",
        help="shard-scoped fault rate (defaults to --fault-rate when "
        "--shards is set; seeded from --fault-seed)",
    )
    parser.add_argument(
        "--shard-checkpoint",
        type=str,
        default=None,
        metavar="FILE",
        help="persist finished shards to FILE (atomic JSON) so a "
        "crashed run resumes without recomputing them",
    )
    parser.add_argument(
        "--shard-resume",
        action="store_true",
        help="resume from --shard-checkpoint if it exists; the run "
        "fails if any already-completed shard is recomputed",
    )
    parser.add_argument(
        "--shard-abort-after",
        type=int,
        default=None,
        metavar="K",
        help="abort the first sharded evaluation after K shards "
        "complete (checkpoint crash drill), then resume it and gate "
        "on zero recomputed shards and an exact logL match",
    )
    # --- Likelihood-as-a-service (repro.serve) ------------------------
    parser.add_argument(
        "--serve",
        type=int,
        default=0,
        metavar="N",
        help="replay a seeded N-request multi-tenant arrival trace "
        "through the likelihood server (admission, per-tenant fairness, "
        "cross-request coalescing, brownout) in front of the --pool "
        "workers; the run fails unless every served logL is "
        "bit-identical to the serial reference, the serve ledger "
        "balances, and every request is accounted (no silent drops)",
    )
    parser.add_argument(
        "--serve-tenants",
        type=int,
        default=8,
        metavar="T",
        help="tenants in the generated arrival trace",
    )
    parser.add_argument(
        "--serve-storm",
        action="store_true",
        help="use the hostile burst-storm trace (hot-tenant bursts over "
        "background load) instead of steady arrivals",
    )
    parser.add_argument(
        "--serve-width",
        type=int,
        default=8,
        metavar="W",
        help="max requests coalesced into one shared launch batch "
        "(1 = coalescing off, the uncoalesced baseline)",
    )
    parser.add_argument(
        "--serve-deadline-ms",
        type=float,
        default=None,
        metavar="T",
        help="per-request deadline budget; expired requests are shed "
        "with a typed cause, values finishing late are delivered and "
        "counted",
    )
    parser.add_argument(
        "--serve-quota",
        type=int,
        default=None,
        metavar="Q",
        help="per-tenant queued-request quota (admission rejects above "
        "it with the tenant-quota reason)",
    )
    parser.add_argument(
        "--serve-queue",
        type=int,
        default=256,
        metavar="N",
        help="server queue capacity (admission bound; brownout pressure "
        "is measured against it)",
    )
    # --- Observability (repro.obs) ------------------------------------
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="FILE",
        help="record spans and write a Chrome/Perfetto trace_event JSON "
        "timeline of the run (open in ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics",
        type=str,
        default=None,
        metavar="FILE",
        help="export counters/gauges/histograms after the run; JSON by "
        "default, Prometheus text when FILE ends in .prom or .txt",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the per-phase time table (transition matrices, "
        "partials, scaling, root reduction) after the run",
    )
    return parser


def _resilience_policy(name: str) -> Optional[RetryPolicy]:
    """Map the --resilience choice onto a RetryPolicy."""
    if name == "none":
        return None
    if name == "retry":
        return RetryPolicy(degrade=False, rescale=False)
    if name == "degrade":
        return RetryPolicy(rescale=False)
    return RetryPolicy()


def _worker_fault_specs(args) -> Optional[List[Optional[FaultSpec]]]:
    """Per-worker fault specs from ``--worker-fault-rates``.

    Worker ``i`` draws from its own stream seeded ``fault_seed + 7919*i``
    so adding/removing workers never perturbs another worker's schedule.
    """
    if args.worker_fault_rates is None:
        return None
    rates = [float(tok) for tok in args.worker_fault_rates.split(",") if tok.strip()]
    rates += [0.0] * (args.pool - len(rates))
    return [
        FaultSpec(rate=rate, seed=args.fault_seed + 7919 * i) if rate > 0 else None
        for i, rate in enumerate(rates[: args.pool])
    ]


def _deadline_s(args) -> Optional[float]:
    """The ``--deadline-ms`` budget in seconds (``None`` when unset)."""
    return args.deadline_ms / 1e3 if args.deadline_ms is not None else None


def _make_pool(args, n_workers: int) -> LikelihoodPool:
    """The supervised pool that ``--pool``, ``--serve`` and ``--shards``
    runs use, configured from the pool options."""
    return LikelihoodPool(
        n_workers,
        policy=_resilience_policy(args.resilience),
        worker_fault_specs=_worker_fault_specs(args),
        deadline_s=_deadline_s(args),
        health_check_every=args.pool_health_every,
        executor="inline" if args.pool_inline else "thread",
        sanitize=args.sanitize,
    )


def _report_gates(args, pool: LikelihoodPool, ledgers, out) -> int:
    """Print every ledger imbalance and, under ``--sanitize``, the
    sanitizer's verdict; returns 1 if any gate fails, else 0.

    ``ledgers`` pairs a label for the error line with a ledger.
    """
    status = 0
    for label, ledger in ledgers:
        for imbalance in ledger.imbalances():
            print(f"error: {label} imbalance: {imbalance}", file=out)
            status = 1
    if args.sanitize and pool.detector is not None:
        print(f"sanitizer: {pool.detector.format()}", file=out)
        if not pool.sanitizer_clean:
            status = 1
    return status


def run(argv: Optional[List[str]] = None, out=None) -> int:
    """Run the benchmark; returns a process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    status = _validate_args(args, out)
    if status != 0:
        return status
    if not (args.trace or args.metrics or args.profile):
        return _run_benchmark(args, out)
    # Observability requested: install a live recorder for the duration
    # of the run, then export whatever was asked for.
    recorder = Recorder()
    previous = set_recorder(recorder)
    try:
        with recorder.span(
            "synthetictest.run",
            category="bench",
            taxa=args.taxa,
            sites=args.sites,
            reps=args.reps,
        ):
            status = _run_benchmark(args, out)
    finally:
        set_recorder(previous)
    try:
        if args.trace:
            recorder.tracer.write(args.trace)
            print(
                f"trace: {len(recorder.tracer.records())} spans "
                f"({', '.join(recorder.tracer.categories())}) -> {args.trace}",
                file=out,
            )
        if args.metrics:
            if args.metrics.endswith((".prom", ".txt")):
                recorder.metrics.write_prometheus(args.metrics)
            else:
                recorder.metrics.write_json(args.metrics)
            print(f"metrics: -> {args.metrics}", file=out)
    except OSError as exc:
        print(f"error: {exc}", file=out)
        return 2
    if args.profile:
        print(recorder.profiler.report(), file=out)
    return status


def _resolve_rsrc(args, out) -> int:
    """Normalize ``--rsrc`` into ``args.device_model``.

    BEAGLE numbers its resources; we keep ``0`` (measured CPU) and ``1``
    (GP100 analytical model) for the paper's invocations. Anything else
    exits 2.
    """
    spec = args.rsrc.strip().lower()
    args.device_model = spec in ("1", "gp100")
    if not args.device_model and spec not in ("0", "cpu"):
        print(
            f"error: --rsrc {args.rsrc!r} is not a resource "
            "(use 0/cpu or 1/gp100)",
            file=out,
        )
        return 2
    return 0


def _validate_args(args, out) -> int:
    """Reject inconsistent option combinations; 0 means valid."""
    if args.pectinate and args.randomtree:
        print("error: --pectinate and --randomtree are exclusive", file=out)
        return 2
    if args.taxa < 2:
        print("error: --taxa must be at least 2", file=out)
        return 2
    status = _resolve_rsrc(args, out)
    if status != 0:
        return status
    if args.partitions < 1:
        print("error: --partitions must be at least 1", file=out)
        return 2
    if args.gradient and args.taxa < 3:
        print("error: --gradient needs at least 3 taxa", file=out)
        return 2
    if args.streams < 0:
        print("error: --streams must be non-negative", file=out)
        return 2
    if args.streams and not args.device_model:
        print("error: --streams requires --rsrc 1 (device model)", file=out)
        return 2
    if not 0.0 <= args.fault_rate <= 1.0:
        print("error: --fault-rate must be within [0, 1]", file=out)
        return 2
    if (
        args.resilience != "none"
        and args.fault_rate <= 0.0
        and args.worker_fault_rates is None
    ):
        print(
            "error: --resilience needs a positive --fault-rate "
            "or --worker-fault-rates",
            file=out,
        )
        return 2
    if args.pool < 0:
        print("error: --pool must be non-negative", file=out)
        return 2
    if args.deadline_ms is not None and args.deadline_ms <= 0:
        print("error: --deadline-ms must be positive", file=out)
        return 2
    if args.deadline_ms is not None and args.device_model:
        print("error: --deadline-ms requires a CPU resource", file=out)
        return 2
    if args.pool and args.device_model:
        print("error: --pool requires a CPU resource", file=out)
        return 2
    if (
        args.worker_fault_rates is not None
        or args.pool_inline
        or args.pool_health_every
    ) and not args.pool:
        print(
            "error: --worker-fault-rates/--pool-inline/--pool-health-every "
            "require --pool",
            file=out,
        )
        return 2
    if args.pool_health_every < 0:
        print("error: --pool-health-every must be non-negative", file=out)
        return 2
    if args.sanitize and not args.pool:
        print("error: --sanitize requires --pool", file=out)
        return 2
    if args.shards < 0:
        print("error: --shards must be non-negative", file=out)
        return 2
    if args.shards and args.device_model:
        print("error: --shards requires a CPU resource", file=out)
        return 2
    if args.shards and args.manualscale:
        print(
            "error: --shards manages rescaling per shard; drop --manualscale",
            file=out,
        )
        return 2
    if not args.shards and (
        args.shard_speculate
        or args.shard_fault_rate is not None
        or args.shard_checkpoint is not None
        or args.shard_resume
        or args.shard_abort_after is not None
    ):
        print("error: shard options require --shards", file=out)
        return 2
    if args.shard_retries < 0:
        print("error: --shard-retries must be non-negative", file=out)
        return 2
    if args.shard_fault_rate is not None and not (
        0.0 <= args.shard_fault_rate <= 1.0
    ):
        print("error: --shard-fault-rate must be within [0, 1]", file=out)
        return 2
    if (
        args.shard_resume or args.shard_abort_after is not None
    ) and args.shard_checkpoint is None:
        print(
            "error: --shard-resume/--shard-abort-after require "
            "--shard-checkpoint",
            file=out,
        )
        return 2
    if args.shard_abort_after is not None and args.shard_abort_after < 1:
        print("error: --shard-abort-after must be at least 1", file=out)
        return 2
    if args.serve < 0:
        print("error: --serve must be non-negative", file=out)
        return 2
    if args.serve and not args.pool:
        print("error: --serve requires --pool", file=out)
        return 2
    if args.serve and args.device_model:
        print("error: --serve requires a CPU resource", file=out)
        return 2
    if args.serve and args.shards:
        print("error: --serve and --shards are exclusive", file=out)
        return 2
    if args.serve and args.deadline_ms is not None:
        print(
            "error: --deadline-ms does not apply to --serve; "
            "use --serve-deadline-ms",
            file=out,
        )
        return 2
    if not args.serve and (
        args.serve_storm
        or args.serve_deadline_ms is not None
        or args.serve_quota is not None
    ):
        print("error: serve options require --serve", file=out)
        return 2
    if args.serve_tenants < 1:
        print("error: --serve-tenants must be at least 1", file=out)
        return 2
    if args.serve_width < 1:
        print("error: --serve-width must be at least 1", file=out)
        return 2
    if args.serve_queue < 1:
        print("error: --serve-queue must be at least 1", file=out)
        return 2
    if args.serve_deadline_ms is not None and args.serve_deadline_ms <= 0:
        print("error: --serve-deadline-ms must be positive", file=out)
        return 2
    if args.serve_quota is not None and args.serve_quota < 1:
        print("error: --serve-quota must be at least 1", file=out)
        return 2
    if args.worker_fault_rates is not None:
        try:
            specs_check = _worker_fault_specs(args)
        except ValueError:
            print(
                "error: --worker-fault-rates must be comma-separated floats",
                file=out,
            )
            return 2
        if any(
            spec is not None and not 0.0 <= spec.rate <= 1.0
            for spec in specs_check or []
        ):
            print("error: worker fault rates must be within [0, 1]", file=out)
            return 2
    return 0


def _run_gradient(args, tree, model, patterns, out) -> int:
    """The ``--gradient`` exit gate: one-sweep vs per-edge parity.

    Runs :func:`~repro.inference.derivatives.all_branch_derivatives`
    (one post-order + one pre-order sweep), then replays every canonical
    edge through the per-edge rerooted oracle on a shared
    :class:`~repro.inference.derivatives.DerivativeSession` and demands
    every triple match bit for bit; then perturbs the branch lengths,
    runs a second (warm) sweep on the same topology and holds it to the
    same check before restoring the lengths. Also asserts the one-sweep operation count
    (``3n − 5``) beats the per-edge total (``(2n − 3)(n − 1)``), the
    linear-vs-quadratic claim the gradient bench reports. Any violation
    exits 1. With the GP100 resource the modelled
    :meth:`~repro.gpu.simulator.SimulatedDevice.time_gradient`
    economics are printed as well.
    """
    from ..core.planner import make_gradient_plan
    from ..inference.derivatives import (
        DerivativeSession,
        all_branch_derivatives,
        edge_log_likelihood_derivatives,
    )

    mode = "serial" if args.serial else "concurrent"
    n = args.taxa
    gplan = make_gradient_plan(tree, mode, verify=args.lint)
    per_edge_ops = (2 * n - 3) * (n - 1)
    print(
        f"gradient: one sweep = {gplan.n_operations} ops in "
        f"{gplan.n_launches} launches; per-edge reroots = "
        f"{per_edge_ops} ops over {2 * n - 3} edges",
        file=out,
    )
    if gplan.n_operations != 3 * n - 5 or gplan.n_operations >= per_edge_ops:
        print(
            f"error: one-sweep operation count {gplan.n_operations} is not "
            f"the linear 3n-5 = {3 * n - 5} below the per-edge "
            f"{per_edge_ops}",
            file=out,
        )
        return 1
    grad = all_branch_derivatives(tree, model, patterns, mode=mode)
    session = DerivativeSession(model, patterns)

    def mismatches(sweep) -> int:
        """Edges whose sweep triple differs from the per-edge oracle's."""
        count = 0
        for edge, got in zip(sweep.edges, sweep.derivatives):
            want = edge_log_likelihood_derivatives(
                tree, model, patterns, edge, session=session
            )
            triple_got = (got.log_likelihood, got.first, got.second)
            triple_want = (want.log_likelihood, want.first, want.second)
            if triple_got != triple_want:
                count += 1
                print(
                    f"gradient mismatch at edge {edge.name or edge!r}: "
                    f"sweep {triple_got} vs reroot {triple_want}",
                    file=out,
                )
        return count

    n_edges = len(grad.edges)
    failed = mismatches(grad)
    if failed:
        print(
            f"gradient verified: FAILED ({failed}/{n_edges} edges "
            f"disagree with the per-edge reroot oracle)",
            file=out,
        )
        return 1
    print(
        f"gradient verified: {n_edges}/{n_edges} edges match the "
        "per-edge reroot oracle (exact; session instances: "
        f"{session.instances_created})",
        file=out,
    )
    # A second sweep as HMC takes one: new branch lengths on the same
    # topology, indices invalidated. It reuses the first sweep's plan and
    # instance with both passes compiled, and is held to the same exact
    # check. The lengths are restored afterwards.
    edges = tree.edges()
    saved = [edge.length for edge in edges]
    factors = np.random.default_rng(args.seed).uniform(0.5, 1.5, len(edges))
    for edge, factor in zip(edges, factors.tolist()):
        edge.length = edge.length * factor
    tree.invalidate_indices()
    try:
        failed = mismatches(all_branch_derivatives(tree, model, patterns, mode=mode))
    finally:
        for edge, length in zip(edges, saved):
            edge.length = length
        tree.invalidate_indices()
    if failed:
        print(
            f"gradient warm sweep verified: FAILED ({failed}/{n_edges} edges "
            "disagree with the per-edge reroot oracle after new lengths)",
            file=out,
        )
        return 1
    print(
        f"gradient warm sweep verified: {n_edges}/{n_edges} edges match the "
        "per-edge reroot oracle after new branch lengths (exact)",
        file=out,
    )
    if args.device_model:
        dims = WorkloadDims(args.sites, args.states, args.categories)
        timing = SimulatedDevice(GP100).time_gradient(
            tree, dims, mode, plan=gplan
        )
        print(
            f"modelled gradient: one sweep {timing.one_sweep.seconds * 1e6:.2f} us "
            f"vs per-edge {timing.per_edge.seconds * 1e6:.2f} us "
            f"(speedup {timing.speedup:.2f}, "
            f"{timing.launches_saved} launches saved)",
            file=out,
        )
    return 0


def _run_benchmark(args, out) -> int:
    """The benchmark proper (arguments already validated)."""
    topology = "pectinate" if args.pectinate else (
        "random" if args.randomtree else "balanced"
    )
    rng = np.random.default_rng(args.seed)
    tree = build_tree(topology, args.taxa, args.seed)
    for edge in tree.edges():
        edge.length = float(rng.exponential(0.1))
    original_sets = count_operation_sets(tree)
    if args.reroot:
        tree = optimal_reroot_fast(tree).tree

    model = random_gtr(rng)
    patterns = random_patterns(tree.tip_names(), args.sites, rng=rng)
    mode = "serial" if args.serial else "concurrent"
    scaling = args.manualscale
    plan = make_plan(tree, mode, scaling=scaling)
    instance = create_instance(tree, model, patterns, scaling=scaling)

    if args.lint:
        from ..analysis import audit_plan, verify_plan

        report = verify_plan(plan, instance=instance)
        audit = audit_plan(plan)
        print(
            f"lint: {len(report.errors)} error(s), "
            f"{len(report.warnings)} warning(s); launch gap vs rooting "
            f"bound {audit.gap_vs_rooting:+d}, vs reroot bound "
            f"{audit.gap_vs_reroot:+d}",
            file=out,
        )
        if not report.clean:
            print(report.format(), file=out)
        if not report.ok:
            return 1

    if args.races:
        from ..analysis import verify_races

        race_report = verify_races(plan, n_streams=args.streams)
        scope = "sets + matrix table"
        if args.streams:
            scope += f" + {args.streams}-stream schedule"
        print(
            f"races: {len(race_report.errors)} error(s) over "
            f"{plan.n_launches} operation set(s) ({scope})",
            file=out,
        )
        if not race_report.clean:
            print(race_report.format(), file=out)
        if not race_report.ok:
            return 1

    print("synthetictest (repro work-alike)", file=out)
    print(
        f"tree: type={topology}, taxa={args.taxa}, height={tree_height(tree)}, "
        f"rerooted={'yes' if args.reroot else 'no'}",
        file=out,
    )
    print(
        f"operation sets: {plan.n_launches} "
        f"(before rerooting: {original_sets}, serial: {args.taxa - 1})",
        file=out,
    )
    print(
        f"theoretical speedup vs serial: {tree_theoretical_speedup(tree):.2f}",
        file=out,
    )

    # One validated evaluation (both resources).
    loglik = execute_plan(instance, plan)
    print(f"logL: {loglik:.6f}", file=out)

    if args.gradient:
        status = _run_gradient(args, tree, model, patterns, out)
        if status != 0:
            return status

    if args.fault_rate > 0.0 and not args.shards:
        # With --shards, --fault-rate feeds the shard-scoped chaos
        # stream inside _run_sharded_cpu instead of the launch injector.
        status = _run_with_faults(args, instance, plan, loglik, out)
        if status != 0:
            return status

    if args.partitions > 1:
        _report_partitions(args, tree, mode, scaling, out)

    dims = WorkloadDims(args.sites, args.states, args.categories)
    flops_per_eval = (args.taxa - 1) * dims.flops_per_operation

    def make_case():
        """A fresh engine instance and the plan: one pool job's case."""
        return create_instance(tree, model, patterns, scaling=scaling), plan

    if not args.device_model:
        if args.shards:
            return _run_sharded_cpu(
                args, tree, model, patterns, loglik, flops_per_eval, out
            )
        if args.serve:
            return _run_serve_cpu(args, patterns, make_case, loglik, out)
        if args.pool:
            return _run_pool_cpu(
                args, make_case, plan, loglik, flops_per_eval, out
            )
        # Measured CPU timing. Rescale factors recomputed every
        # --rescale-frequency reps: other reps run without scaling ops.
        cheap_plan = make_plan(tree, mode, scaling=False)
        start = time.perf_counter()
        for rep in range(args.reps):
            use_scaling = scaling and rep % max(args.rescale_frequency, 1) == 0
            engine = build_stack(instance, deadline=Deadline(_deadline_s(args)))
            try:
                run_plan(engine, plan if use_scaling else cheap_plan)
            except DeadlineExceeded as exc:
                print(
                    f"error: {type(exc).__name__}: {exc} (rep {rep})",
                    file=out,
                )
                return 1
        elapsed = time.perf_counter() - start
        _print_timing(
            f"CPU (NumPy engine), reps={args.reps}",
            elapsed / args.reps,
            flops_per_eval,
            out,
        )
        if args.full_timing:
            print(f"kernel launches per evaluation: {plan.n_launches}", file=out)
            print(f"total wall time: {elapsed:.3f} s", file=out)
    else:
        device = SimulatedDevice(GP100)
        if args.streams:
            from ..gpu.streams import streams_time_set_sizes

            timing = streams_time_set_sizes(
                GP100, dims, plan.set_sizes, args.streams
            )
            mechanism = f"streams (S={args.streams})"
        else:
            timing = device.time_plan(plan, dims)
            mechanism = "multi-operation kernel"
        serial_seconds = device.time_tree(tree, dims, "serial").seconds
        print(f"resource: {GP100.name} (analytical model)", file=out)
        print(f"concurrency mechanism: {mechanism}", file=out)
        print(f"time per evaluation: {timing.seconds * 1e6:.2f} us (modelled)", file=out)
        print(f"effective throughput: {timing.gflops:.2f} GFLOPS (modelled)", file=out)
        print(
            f"speedup vs serial launches: {serial_seconds / timing.seconds:.2f}",
            file=out,
        )
        if args.full_timing:
            print("per-launch breakdown (ops, waves, us):", file=out)
            for i, launch in enumerate(timing.launches):
                print(
                    f"  launch {i:3d}: {launch.n_operations:4d} ops, "
                    f"{launch.n_waves:3d} waves, {launch.seconds * 1e6:7.2f} us",
                    file=out,
                )
    return 0


def _print_timing(resource: str, per_eval: float, flops: float, out) -> None:
    """The resource line, then measured time and throughput per evaluation."""
    print(f"resource: {resource}", file=out)
    print(f"time per evaluation: {per_eval * 1e3:.3f} ms", file=out)
    print(f"effective throughput: {flops / per_eval / 1e9:.3f} GFLOPS", file=out)


def _executor(args) -> str:
    """How the pool runs its workers, for the resource line."""
    return "inline" if args.pool_inline else "threaded"


def _run_pool_cpu(
    args, make_case, plan, reference_loglik, flops_per_eval, out
) -> int:
    """Dispatch ``--reps`` evaluations across a supervised worker pool.

    Each repetition is an independent job evaluating a fresh engine
    instance (the shape of a bootstrap replicate or candidate tree). The
    serial fault-free likelihood is the oracle: every completed job must
    reproduce it bit-for-bit regardless of which workers faulted, were
    circuit-broken, or were evicted along the way, and the pool's ledger
    must balance. Any miss is a nonzero exit — this is the contract the
    CI soak job gates on.
    """
    pool = _make_pool(args, args.pool)
    start = time.perf_counter()
    for rep in range(args.reps):
        pool.submit_case(make_case, label=f"rep-{rep}")
    outcomes = pool.drain()
    elapsed = time.perf_counter() - start
    stats = pool.stats()
    if get_recorder().enabled:
        # Ledger identities become gauges (repro_pool_*), including the
        # imbalance count itself — see PoolStats.explain().
        record_pool_stats(stats)

    _print_timing(
        f"CPU pool ({args.pool} workers, {_executor(args)} executor), "
        f"reps={args.reps}",
        elapsed / args.reps,
        flops_per_eval,
        out,
    )
    print(f"pool {stats.format()}", file=out)
    if args.full_timing:
        print(f"kernel launches per evaluation: {plan.n_launches}", file=out)
        print(f"total wall time: {elapsed:.3f} s", file=out)
        print(stats.explain(), file=out)

    status = 0
    for outcome in outcomes:
        if not outcome.ok:
            print(
                f"error: job {outcome.label} {outcome.status} "
                f"(cause={outcome.cause}, attempts={outcome.attempts}): "
                f"{outcome.error}",
                file=out,
            )
            status = 1
        elif outcome.value != reference_loglik:
            print(
                f"error: job {outcome.label} logL {outcome.value!r} does "
                f"not match serial fault-free logL {reference_loglik!r}",
                file=out,
            )
            status = 1
    status |= _report_gates(args, pool, [("ledger", stats)], out)
    if status == 0:
        print(
            f"pool verified: {stats.completed}/{args.reps} jobs "
            f"bit-identical to serial, ledger balanced",
            file=out,
        )
    return status


def _run_serve_cpu(args, patterns, make_case, reference_loglik, out) -> int:
    """Replay a seeded multi-tenant trace through the likelihood server.

    The overload chaos soak: arrivals (optionally a hot-tenant burst
    storm) flow through admission, deficit-round-robin fairness,
    cross-request coalescing and brownout into the supervised pool,
    with per-worker fault streams from ``--worker-fault-rates``. Three
    gates, any miss a nonzero exit:

    * every served logL bit-identical to the serial fault-free
      reference (the server's ``verify`` gate recomputes each one);
    * the serve ledger balances and is fully drained;
    * every offered request is accounted: terminal outcomes plus typed
      rejections equal offers — no silent drops.
    """
    from ..obs import record_serve_stats
    from ..serve import (
        AdmissionConfig,
        CoalescePolicy,
        FairnessConfig,
        LikelihoodServer,
        RequestDims,
        burst_storm,
        replay,
        steady_trace,
    )

    pool = _make_pool(args, args.pool)
    server = LikelihoodServer(
        pool,
        admission=AdmissionConfig(
            max_queued=args.serve_queue, tenant_quota=args.serve_quota
        ),
        fairness=FairnessConfig(in_flight_cap=4 * args.pool),
        coalesce=CoalescePolicy(
            max_width=args.serve_width,
            enabled=args.serve_width > 1,
        ),
        verify=True,
        jitter_seed=args.seed,
    )
    dims = RequestDims(
        state_count=4,
        pattern_count=patterns.n_patterns,
        category_count=args.categories,
    )
    budget = (
        args.serve_deadline_ms / 1e3
        if args.serve_deadline_ms is not None
        else None
    )
    if args.serve_storm:
        arrivals = burst_storm(
            args.seed,
            n_tenants=args.serve_tenants,
            n_requests=args.serve,
            budget_s=budget,
            hot_tenants=max(1, args.serve_tenants // 4),
        )
    else:
        arrivals = steady_trace(
            args.seed,
            n_tenants=args.serve_tenants,
            n_requests=args.serve,
            budget_s=budget,
        )
    start = time.perf_counter()
    outcomes, rejections = replay(
        server,
        arrivals,
        lambda arrival: make_case,
        dims=dims,
        step_every=max(1, args.serve_queue // 4),
    )
    elapsed = time.perf_counter() - start
    ledger = server.ledger
    if get_recorder().enabled:
        record_serve_stats(ledger)
        record_pool_stats(pool.stats())

    trace_kind = "burst-storm" if args.serve_storm else "steady"
    print(
        f"resource: CPU serve ({args.pool} workers, "
        f"{_executor(args)} executor), "
        f"{args.serve} requests / {args.serve_tenants} tenants "
        f"({trace_kind} trace)",
        file=out,
    )
    served = [o for o in outcomes if o.ok]
    if served:
        waits = sorted(o.wait_s for o in served)
        p50 = waits[len(waits) // 2]
        p99 = waits[min(len(waits) - 1, int(len(waits) * 0.99))]
        print(
            f"served {len(served)} in {elapsed:.3f} s "
            f"({len(served) / elapsed:.1f} req/s), latency "
            f"p50 {p50 * 1e3:.2f} ms p99 {p99 * 1e3:.2f} ms",
            file=out,
        )
    print(ledger.format(), file=out)
    if ledger.rejected_by_reason:
        print(f"rejections by reason: {ledger.rejected_by_reason}", file=out)
    if ledger.shed_by_cause:
        print(f"sheds by cause: {ledger.shed_by_cause}", file=out)
    print(f"pool {pool.stats().format()}", file=out)
    if args.full_timing:
        print(ledger.explain(), file=out)

    status = 0
    for outcome in served:
        if outcome.value != reference_loglik:
            print(
                f"error: request {outcome.label} logL {outcome.value!r} "
                f"does not match serial logL {reference_loglik!r}",
                file=out,
            )
            status = 1
        if outcome.verified is False:
            print(
                f"error: request {outcome.label} failed the serial "
                "bit-identity verify gate",
                file=out,
            )
            status = 1
    status |= _report_gates(args, pool, [("serve ledger", ledger)], out)
    if not ledger.drained():
        print(
            f"error: server not drained (queued={ledger.queued}, "
            f"in_flight={ledger.in_flight})",
            file=out,
        )
        status = 1
    if len(outcomes) + len(rejections) != ledger.offered:
        print(
            f"error: silent drop: {ledger.offered} offered but "
            f"{len(outcomes)} outcomes + {len(rejections)} rejections",
            file=out,
        )
        status = 1
    if status == 0:
        print(
            f"serve verified: {ledger.served}/{ledger.offered} served "
            f"bit-identical to serial, ledger balanced, no silent drops "
            f"(coalesced {ledger.coalesced_requests} requests into "
            f"{ledger.coalesced_launches} shared launches)",
            file=out,
        )
    return status


def _run_sharded_cpu(
    args, tree, model, patterns, serial_loglik, flops_per_eval, out
) -> int:
    """Sharded data-parallel evaluation with hard correctness gates.

    The site patterns are split into ``--shards`` weighted shards, fanned
    through a supervised worker pool, and their spliced site logs reduced
    the engine's way. Gates (any miss is a nonzero exit — the CI
    ``shard-soak`` job greps for the ``shard verified`` line):

    * the sharded logL equals the serial logL **bit-for-bit**, however
      many shards faulted, retried, or speculated;
    * the shard ledger and the pool ledger both balance;
    * after a ``--shard-abort-after`` crash drill (or an explicit
      ``--shard-resume``), ``recomputed_completed`` stays zero — no
      finished shard is ever re-executed.
    """
    from ..exec.faults import ShardFaultSpec
    from ..exec.sharding import ShardAborted, ShardedLikelihood

    fault_rate = (
        args.shard_fault_rate
        if args.shard_fault_rate is not None
        else args.fault_rate
    )
    spec = (
        ShardFaultSpec(rate=fault_rate, seed=args.fault_seed)
        if fault_rate > 0.0
        else None
    )
    n_workers = args.pool or 2
    pool = _make_pool(args, n_workers)

    def make_engine(resume: bool, abort_after: Optional[int]):
        return ShardedLikelihood(
            tree,
            model,
            patterns,
            n_shards=args.shards,
            pool=pool,
            retries=args.shard_retries,
            speculate=args.shard_speculate,
            checkpoint_path=args.shard_checkpoint,
            resume=resume,
            abort_after=abort_after,
            fault_spec=spec,
        )

    resumed_run = args.shard_resume
    if args.shard_abort_after is not None:
        # Crash drill: run until --shard-abort-after shards are
        # checkpointed, "crash", then resume the real run below.
        drill = make_engine(resume=args.shard_resume, abort_after=args.shard_abort_after)
        try:
            drill.evaluate()
        except ShardAborted as exc:
            print(f"crash drill: {exc}", file=out)
            resumed_run = True
        except ExecutionError as exc:
            print(f"error: crash drill failed: {type(exc).__name__}: {exc}", file=out)
            return 1
        else:
            print(
                "crash drill: note: all shards completed before the "
                "abort point; resume gate still applies",
                file=out,
            )
            resumed_run = True

    engine = make_engine(resume=resumed_run, abort_after=None)
    start = time.perf_counter()
    try:
        value = engine.log_likelihood()
    except ExecutionError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=out)
        return 1
    elapsed = time.perf_counter() - start
    ledger = engine.ledger

    _print_timing(
        f"CPU sharded ({engine.n_shards} shards over {n_workers} workers, "
        f"{_executor(args)} executor)",
        elapsed,
        flops_per_eval,
        out,
    )
    print(
        f"shard throughput: {patterns.n_patterns / elapsed / 1e3:.1f} "
        f"kpatterns/s",
        file=out,
    )
    print(ledger.format(), file=out)
    if args.full_timing:
        print(f"kernel launches per evaluation: {engine.n_launches}", file=out)
        pool_stats = pool.stats()
        print(f"pool {pool_stats.format()}", file=out)

    status = 0
    if value != serial_loglik:
        print(
            f"error: sharded logL {value!r} is not bit-identical to the "
            f"serial logL {serial_loglik!r}",
            file=out,
        )
        status = 1
    status |= _report_gates(
        args,
        pool,
        [("shard ledger", ledger), ("pool ledger", pool.stats())],
        out,
    )
    if resumed_run and ledger.recomputed_completed != 0:
        print(
            f"error: {ledger.recomputed_completed} checkpointed shard(s) "
            f"were recomputed after resume",
            file=out,
        )
        status = 1
    if resumed_run and args.shard_abort_after is not None and ledger.resumed == 0:
        print("error: resume restored no shards from the checkpoint", file=out)
        status = 1
    if status == 0:
        resumed_note = (
            f", resumed {ledger.resumed} shard(s) without recomputation"
            if resumed_run
            else ""
        )
        print(
            f"shard verified: {engine.n_shards} shards bit-identical to "
            f"the serial logL, ledgers balanced{resumed_note}",
            file=out,
        )
    return status


def _run_with_faults(args, instance, plan, reference_loglik, out) -> int:
    """Re-run the evaluation under injected faults; verify recovery.

    The fault-free likelihood is the oracle: a recovered run must
    reproduce it (retries recompute the same arithmetic, so agreement is
    expected to the last bit; the check allows rounding slack for the
    degraded/rescued paths, which batch differently).
    """
    engine = build_stack(
        instance,
        schedule=FaultSchedule(
            FaultSpec(rate=args.fault_rate, seed=args.fault_seed)
        ),
        policy=_resilience_policy(args.resilience),
    )
    try:
        fault_loglik = run_plan(engine, plan)
    except ExecutionError as exc:
        print(
            f"fault run failed: {type(exc).__name__}: {exc} "
            f"(resilience={args.resilience})",
            file=out,
        )
        return 1
    print(
        f"logL under faults: {fault_loglik:.6f} "
        f"(rate={args.fault_rate}, fault-seed={args.fault_seed}, "
        f"resilience={args.resilience})",
        file=out,
    )
    if isinstance(engine, ResilientInstance):
        print(engine.fault_stats.format(), file=out)
    if not math.isclose(fault_loglik, reference_loglik, rel_tol=1e-9, abs_tol=1e-9):
        print(
            f"error: recovered logL {fault_loglik!r} does not match "
            f"fault-free logL {reference_loglik!r}",
            file=out,
        )
        return 1
    return 0


def _report_partitions(args, tree, mode, scaling, out) -> None:
    """Evaluate the dataset split into equal partitions (§IV-A)."""
    from ..data import random_patterns
    from ..partition import DataPartition, PartitionedDataset, PartitionedLikelihood

    rng = np.random.default_rng(args.seed + 1)
    per_partition = max(args.sites // args.partitions, 1)
    taxa = sorted(tree.tip_names())
    partitions = [
        DataPartition(
            name=f"part{i + 1}",
            patterns=random_patterns(taxa, per_partition, rng=rng),
            model=random_gtr(rng),
        )
        for i in range(args.partitions)
    ]
    pl = PartitionedLikelihood(
        tree, PartitionedDataset(partitions), scaling=scaling, mode=mode
    )
    print(
        f"partitions: {args.partitions} x {per_partition} patterns, "
        f"joint logL: {pl.log_likelihood():.6f}",
        file=out,
    )
    sequential = pl.device_timing(concurrent_partitions=False)
    merged = pl.device_timing(concurrent_partitions=True)
    print(
        f"partition launches: {sequential.n_launches} sequential -> "
        f"{merged.n_launches} merged "
        f"(modelled speedup {sequential.seconds / merged.seconds:.2f})",
        file=out,
    )


def main() -> None:  # pragma: no cover - console entry point
    """Console entry point.

    A reader that closes standard output early (``... | head -1``) ends
    the run with exit status 1 and no traceback.
    """
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so that flushing what is still buffered
        # at interpreter exit cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        raise SystemExit(1)
    raise SystemExit(status)


if __name__ == "__main__":  # pragma: no cover
    main()
