"""Tests for analytic edge derivatives and Newton branch optimisation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import compress, simulate_alignment
from repro.inference import (
    TreeLikelihood,
    edge_log_likelihood_derivatives,
    newton_optimize_branch_lengths,
    optimize_branch_lengths,
)
from repro.models import HKY85, JC69, discrete_gamma
from repro.trees import balanced_tree, yule_tree
from tests.strategies import tree_strategy


MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])


def finite_difference(tree, model, patterns, edge, rates=None, h=1e-5):
    def ll_at(t):
        old = edge.length
        edge.length = t
        tree.invalidate_indices()
        value = TreeLikelihood(tree, model, patterns, rates=rates).log_likelihood()
        edge.length = old
        tree.invalidate_indices()
        return value

    t0 = edge.length
    d1 = (ll_at(t0 + h) - ll_at(t0 - h)) / (2 * h)
    d2 = (ll_at(t0 + h) - 2 * ll_at(t0) + ll_at(t0 - h)) / h**2
    return ll_at(t0), d1, d2


class TestEdgeDerivatives:
    @given(tree_strategy(min_tips=4, max_tips=12), st.integers(0, 10**6))
    @settings(max_examples=15)
    def test_matches_finite_difference(self, tree, pick):
        for edge in tree.edges():
            edge.length = max(edge.length, 0.05)
        tree.invalidate_indices()
        patterns = compress(simulate_alignment(tree, MODEL, 20, seed=81))
        # Avoid root children in this property (their unrooted length is
        # the pulley sum, which the naive finite difference cannot probe
        # by perturbing one child length alone in an equivalent way).
        candidates = [
            e for e in tree.edges() if e.parent is not tree.root
        ] or tree.edges()
        edge = candidates[pick % len(candidates)]
        d = edge_log_likelihood_derivatives(tree, MODEL, patterns, edge)
        ll, fd1, fd2 = finite_difference(tree, MODEL, patterns, edge)
        assert d.log_likelihood == pytest.approx(ll, abs=1e-8)
        assert d.first == pytest.approx(fd1, rel=1e-4, abs=1e-5)
        assert d.second == pytest.approx(fd2, rel=1e-3, abs=1e-2)

    def test_root_child_uses_merged_length(self):
        tree = balanced_tree(6, branch_length=0.2)
        patterns = compress(simulate_alignment(tree, MODEL, 30, seed=82))
        child = tree.root.children[0]
        sibling = tree.root.children[1]
        d_default = edge_log_likelihood_derivatives(tree, MODEL, patterns, child)
        d_explicit = edge_log_likelihood_derivatives(
            tree, MODEL, patterns, child,
            at_length=child.length + sibling.length,
        )
        assert d_default.first == pytest.approx(d_explicit.first)

    def test_gamma_rates(self):
        tree = balanced_tree(6, branch_length=0.3)
        rates = discrete_gamma(0.5, 3)
        patterns = compress(simulate_alignment(tree, MODEL, 25, seed=83))
        edge = [e for e in tree.edges() if e.parent is not tree.root][0]
        d = edge_log_likelihood_derivatives(
            tree, MODEL, patterns, edge, rates=rates
        )
        ll, fd1, fd2 = finite_difference(tree, MODEL, patterns, edge, rates)
        assert d.log_likelihood == pytest.approx(ll, abs=1e-8)
        assert d.first == pytest.approx(fd1, rel=1e-4, abs=1e-5)

    def test_zero_gradient_near_optimum(self):
        # At the ML branch length the first derivative vanishes.
        tree = balanced_tree(4, branch_length=0.2)
        patterns = compress(simulate_alignment(tree, JC69(), 500, seed=84))
        fitted = optimize_branch_lengths(
            TreeLikelihood(tree, JC69(), patterns), max_sweeps=3
        )
        edge = [e for e in fitted.tree.edges() if e.parent is not fitted.tree.root][0]
        d = edge_log_likelihood_derivatives(fitted.tree, JC69(), patterns, edge)
        assert abs(d.first) < 0.5
        assert d.second < 0  # concave at the optimum

    def test_validation(self):
        tree = balanced_tree(4)
        patterns = compress(simulate_alignment(tree, JC69(), 5, seed=85))
        with pytest.raises(ValueError):
            edge_log_likelihood_derivatives(tree, JC69(), patterns, tree.root)
        with pytest.raises(ValueError):
            edge_log_likelihood_derivatives(
                tree, JC69(), patterns, tree.edges()[0], at_length=-1.0
            )


class TestNewtonOptimizer:
    def test_matches_brent_optimum(self):
        truth = yule_tree(6, 17, random_lengths=True)
        for edge in truth.edges():
            edge.length = max(edge.length, 0.05)
        patterns = compress(simulate_alignment(truth, MODEL, 400, seed=86))
        start = truth.copy()
        for edge in start.edges():
            edge.length = 0.3
        brent = optimize_branch_lengths(
            TreeLikelihood(start, MODEL, patterns), max_sweeps=3
        )
        newton = newton_optimize_branch_lengths(
            TreeLikelihood(start, MODEL, patterns), max_sweeps=3
        )
        assert newton.log_likelihood == pytest.approx(
            brent.log_likelihood, abs=0.05
        )

    def test_improves_from_bad_start(self):
        truth = balanced_tree(6, branch_length=0.2)
        patterns = compress(simulate_alignment(truth, JC69(), 300, seed=87))
        start = truth.copy()
        for edge in start.edges():
            edge.length = 1.0
        result = newton_optimize_branch_lengths(
            TreeLikelihood(start, JC69(), patterns), max_sweeps=3
        )
        assert result.improvement > 10

    def test_input_untouched(self):
        tree = balanced_tree(4, branch_length=0.3)
        patterns = compress(simulate_alignment(tree, JC69(), 50, seed=88))
        lengths = [e.length for e in tree.edges()]
        newton_optimize_branch_lengths(
            TreeLikelihood(tree, JC69(), patterns), max_sweeps=1
        )
        assert [e.length for e in tree.edges()] == lengths
