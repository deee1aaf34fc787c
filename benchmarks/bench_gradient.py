"""One-sweep all-branch gradients vs n-fold per-edge rerooting.

The pre-order upper-partials engine computes every branch's
``(logL, d/dt, d²/dt²)`` from one post-order plus one pre-order sweep —
``3n − 5`` partial updates — where the per-edge path reroots above each
of the ``2n − 3`` canonical edges and pays a full ``n − 1``-operation
traversal every time. This benchmark measures both paths on the same
trees (bit-identical derivatives at float64), records the modelled GP100
economics, and times gradient-based ML branch-length fitting against the
per-branch Newton baseline.

Acceptance targets: the one-sweep path evaluates ``3n − 5`` operations
against the per-edge ``(2n − 3)(n − 1)``, its wall-clock speedup grows
with the taxon count, and gradient Newton reaches at least the
per-branch optimum's log-likelihood.

Run directly for the CI perf-smoke variant::

    PYTHONPATH=src python benchmarks/bench_gradient.py --quick \
        --metrics metrics.prom
"""

from __future__ import annotations

import argparse
import time

import numpy as np
import pytest
from conftest import emit

from repro.bench import format_table
from repro.core import make_gradient_plan
from repro.data import compress, simulate_alignment
from repro.gpu import GP100, SimulatedDevice, WorkloadDims
from repro.inference import (
    DerivativeSession,
    TreeLikelihood,
    all_branch_derivatives,
    canonical_edges,
    edge_log_likelihood_derivatives,
    gradient_optimize_branch_lengths,
    newton_optimize_branch_lengths,
)
from repro.models import HKY85, discrete_gamma
from repro.obs import recording
from repro.trees import yule_tree

MODEL = HKY85(2.0, np.array([0.3, 0.2, 0.2, 0.3]))


def _case(n_taxa: int, n_sites: int, seed: int):
    """A simulated (tree, patterns) pair for one sweep size."""
    tree = yule_tree(n_taxa, np.random.default_rng(seed))
    patterns = compress(simulate_alignment(tree, MODEL, n_sites, seed=seed))
    return tree, patterns


def _measure_pair(tree, patterns, rates):
    """Wall-clock both gradient paths on one tree; verify bit-parity.

    Returns ``(sweep_seconds, per_edge_seconds, n_edges)``; raises if
    any edge's triple differs between the two paths (both are float64
    through the same set executor, so equality is exact).
    """
    start = time.perf_counter()
    grad = all_branch_derivatives(tree, MODEL, patterns, rates=rates)
    sweep_seconds = time.perf_counter() - start

    session = DerivativeSession(MODEL, patterns, rates=rates)
    start = time.perf_counter()
    per_edge = [
        edge_log_likelihood_derivatives(
            tree, MODEL, patterns, edge, rates=rates, session=session
        )
        for edge in canonical_edges(tree)
    ]
    per_edge_seconds = time.perf_counter() - start

    for got, want in zip(grad.derivatives, per_edge):
        assert (got.log_likelihood, got.first, got.second) == (
            want.log_likelihood,
            want.first,
            want.second,
        ), "one-sweep gradient diverged from the per-edge oracle"
    return sweep_seconds, per_edge_seconds, len(per_edge)


def _sweep_rows(taxa_counts, n_sites, rates, device, dims):
    """Measured + modelled comparison rows, one per taxon count."""
    rows = []
    wall_speedups = []
    modelled_speedups = []
    for n in taxa_counts:
        tree, patterns = _case(n, n_sites, seed=100 + n)
        sweep_s, edge_s, n_edges = _measure_pair(tree, patterns, rates)
        gplan = make_gradient_plan(tree)
        timing = device.time_gradient(tree, dims, plan=gplan)
        wall_speedups.append(edge_s / sweep_s)
        modelled_speedups.append(timing.speedup)
        rows.append(
            {
                "taxa": n,
                "edges": n_edges,
                "sweep ops": gplan.n_operations,
                "per-edge ops": timing.per_edge.n_operations,
                "sweep wall (ms)": f"{sweep_s * 1e3:.1f}",
                "per-edge wall (ms)": f"{edge_s * 1e3:.1f}",
                "wall speedup": f"{edge_s / sweep_s:.1f}x",
                "modelled speedup": f"{timing.speedup:.1f}x",
            }
        )
        assert gplan.n_operations == 3 * n - 5
        assert timing.per_edge.n_operations == (2 * n - 3) * (n - 1)
    return rows, wall_speedups, modelled_speedups


def _ml_rows(n_taxa, n_sites, rates):
    """Gradient Newton vs per-branch Newton on a perturbed tree."""
    tree, patterns = _case(n_taxa, n_sites, seed=5)
    # Mild multiplicative noise keeps every optimiser in the basin of
    # the simulation optimum; a violent random restart would let the
    # coordinate-wise and joint-step paths land in different local
    # optima, which is a statement about multimodality, not speed.
    rng = np.random.default_rng(17)
    for edge in tree.edges():
        edge.length = float(edge.length * rng.lognormal(0.0, 0.4) + 1e-4)
    rows = []
    results = {}
    for label, fit in [
        (
            "per-branch Newton",
            lambda ev: newton_optimize_branch_lengths(ev, max_sweeps=3),
        ),
        (
            "gradient Newton (one sweep/iter)",
            lambda ev: gradient_optimize_branch_lengths(ev, method="newton"),
        ),
        (
            "gradient L-BFGS-B",
            lambda ev: gradient_optimize_branch_lengths(ev, method="lbfgs"),
        ),
    ]:
        evaluator = TreeLikelihood(
            tree.copy(), MODEL, patterns, rates=rates
        )
        start = time.perf_counter()
        result = fit(evaluator)
        wall = time.perf_counter() - start
        results[label] = result
        rows.append(
            {
                "optimizer": label,
                "final logL": f"{result.log_likelihood:.3f}",
                "improvement": f"{result.improvement:+.3f}",
                "wall (s)": f"{wall:.3f}",
            }
        )
    return rows, results


def test_gradient_speedup(benchmark, results_dir, full_scale):
    taxa_counts = (64, 128, 256) if full_scale else (16, 32, 64)
    n_sites = 256 if full_scale else 128
    rates = discrete_gamma(0.5, 4)
    device = SimulatedDevice(GP100)
    dims = WorkloadDims(patterns=n_sites, states=4, categories=4)

    rows, wall_speedups, modelled_speedups = _sweep_rows(
        taxa_counts, n_sites, rates, device, dims
    )
    ml_rows, ml_results = _ml_rows(taxa_counts[0], n_sites, rates)

    text = format_table(
        rows,
        title=(
            f"One-sweep all-branch gradient vs per-edge rerooting "
            f"({n_sites} sites, 4 rate categories, float64, exact parity)"
        ),
    )
    text += "\n" + format_table(
        ml_rows,
        title=(
            f"ML branch-length fitting, {taxa_counts[0]} taxa "
            f"(same perturbed start)"
        ),
    )
    emit(results_dir, "gradient.md", text)

    # The gap must grow with n: linear work against quadratic work.
    assert modelled_speedups == sorted(modelled_speedups)
    assert wall_speedups[-1] > wall_speedups[0]
    assert wall_speedups[-1] > 2.0
    # Gradient Newton must reach the per-branch optimum (same basin).
    assert (
        ml_results["gradient Newton (one sweep/iter)"].log_likelihood
        >= ml_results["per-branch Newton"].log_likelihood - 0.05
    )

    # Kernel under measurement: one full gradient sweep.
    tree, patterns = _case(taxa_counts[0], n_sites, seed=100 + taxa_counts[0])
    result = benchmark.pedantic(
        lambda: all_branch_derivatives(tree, MODEL, patterns, rates=rates),
        rounds=3,
        iterations=1,
    )
    assert len(result.edges) == 2 * taxa_counts[0] - 3


def main(argv=None) -> int:
    """CI perf-smoke entry point (no pytest-benchmark needed)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="16-64 taxa, 128 sites (CI smoke)",
    )
    parser.add_argument(
        "--metrics",
        type=str,
        default=None,
        help="write a Prometheus metrics dump of the gradient runs here",
    )
    args = parser.parse_args(argv)

    taxa_counts = (16, 32, 64) if args.quick else (64, 128, 256)
    n_sites = 128 if args.quick else 256
    rates = discrete_gamma(0.5, 4)
    device = SimulatedDevice(GP100)
    dims = WorkloadDims(patterns=n_sites, states=4, categories=4)

    with recording() as rec:
        rows, wall_speedups, modelled_speedups = _sweep_rows(
            taxa_counts, n_sites, rates, device, dims
        )
    if args.metrics:
        rec.metrics.write_prometheus(args.metrics)

    for row in rows:
        print(
            f"{row['taxa']:4d} taxa: sweep {row['sweep ops']} ops "
            f"{row['sweep wall (ms)']} ms | per-edge {row['per-edge ops']} "
            f"ops {row['per-edge wall (ms)']} ms | wall "
            f"{row['wall speedup']}, modelled {row['modelled speedup']}"
        )
    assert modelled_speedups == sorted(modelled_speedups), (
        "modelled one-sweep speedup must grow with the taxon count"
    )
    assert wall_speedups[-1] > wall_speedups[0], (
        "measured one-sweep speedup must grow with the taxon count"
    )
    print(
        f"speedup growth: wall {wall_speedups[0]:.1f}x -> "
        f"{wall_speedups[-1]:.1f}x, modelled {modelled_speedups[0]:.1f}x "
        f"-> {modelled_speedups[-1]:.1f}x"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
