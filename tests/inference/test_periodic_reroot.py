"""Tests for periodic rerooting during MCMC (paper §VIII future work)."""

from __future__ import annotations

from repro.data import simulate_alignment
from repro.inference import TreeLikelihood, run_mcmc
from repro.models import JC69
from repro.trees import pectinate_tree


def make_evaluator():
    model = JC69()
    tree = pectinate_tree(24, branch_length=0.15)
    aln = simulate_alignment(tree, model, 80, seed=95)
    return TreeLikelihood(tree, model, aln)


class TestPeriodicReroot:
    def test_rerootings_counted(self):
        result = run_mcmc(make_evaluator(), 40, seed=96, reroot_every=10)
        assert result.rerootings >= 1

    def test_disabled_by_default(self):
        result = run_mcmc(make_evaluator(), 20, seed=96)
        assert result.rerootings == 0

    def test_reduces_launches_for_pectinate_start(self):
        base = run_mcmc(make_evaluator(), 60, seed=97, reroot_every=0)
        rerooting = run_mcmc(make_evaluator(), 60, seed=97, reroot_every=10)
        assert rerooting.kernel_launches < base.kernel_launches
        assert rerooting.device_seconds < base.device_seconds

    def test_posterior_untouched_statistically(self):
        # Rerooting is deterministic and likelihood-invariant, so the
        # rerooted chain's likelihood trace stays in the same range.
        base = run_mcmc(make_evaluator(), 80, seed=98)
        rerooting = run_mcmc(make_evaluator(), 80, seed=98, reroot_every=20)
        lo = min(base.log_likelihoods) - 30
        hi = max(base.log_likelihoods) + 30
        assert all(lo < v < hi for v in rerooting.log_likelihoods)

    def test_skips_when_already_optimal(self):
        # A chain whose tree stays optimally rooted performs no rerootings.
        from repro.trees import balanced_tree

        model = JC69()
        tree = balanced_tree(16, branch_length=0.15)
        aln = simulate_alignment(tree, model, 60, seed=99)
        ev = TreeLikelihood(tree, model, aln)
        result = run_mcmc(
            ev, 30, seed=99, reroot_every=5, nni_probability=0.0
        )
        assert result.rerootings == 0  # branch moves cannot unbalance it
