"""The domain fact the whole paper rests on, as property tests.

For time-reversible substitution models the likelihood of a tree is
independent of root placement (Felsenstein's pulley principle, paper §V).
That invariance is what licenses rerooting for concurrency: the rerooted
tree must give the *same answer*, only faster. These tests pin the
invariance across the model families, rate heterogeneity, rerooting
positions, and both optimal-rerooting algorithms.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    count_operation_sets,
    create_instance,
    execute_plan,
    make_plan,
    optimal_reroot_exhaustive,
    optimal_reroot_fast,
)
from repro.data import compress, simulate_alignment
from repro.models import GTR, GY94, HKY85, JC69, discrete_gamma, synthetic_empirical
from repro.trees import reroot_on_edge, unrooted_edges
from tests.strategies import tree_strategy


def engine_loglik(tree, model, patterns, rates=None):
    inst = create_instance(tree, model, patterns, rates=rates)
    return execute_plan(inst, make_plan(tree, "concurrent"))


class TestPulleyPrinciple:
    @given(
        tree_strategy(min_tips=3, max_tips=14),
        st.integers(0, 10**6),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=25)
    def test_any_edge_any_fraction(self, tree, pick, fraction):
        model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        patterns = compress(simulate_alignment(tree, model, 12, seed=21))
        base = engine_loglik(tree, model, patterns)
        edges = unrooted_edges(tree)
        u, v, _ = edges[pick % len(edges)]
        rerooted = reroot_on_edge(tree, u, v, fraction)
        assert engine_loglik(rerooted, model, patterns) == pytest.approx(
            base, abs=1e-8
        )

    @pytest.mark.parametrize(
        "model",
        [
            JC69(),
            HKY85(3.0, [0.4, 0.1, 0.2, 0.3]),
            GTR([1.1, 2.0, 0.7, 1.4, 2.8, 1.0], [0.3, 0.2, 0.25, 0.25]),
        ],
        ids=lambda m: m.name,
    )
    def test_nucleotide_model_families(self, model):
        from repro.trees import random_attachment_tree

        tree = random_attachment_tree(10, 5, random_lengths=True)
        patterns = compress(simulate_alignment(tree, model, 20, seed=22))
        base = engine_loglik(tree, model, patterns)
        for u, v, _ in unrooted_edges(tree):
            rerooted = reroot_on_edge(tree, u, v)
            assert engine_loglik(rerooted, model, patterns) == pytest.approx(
                base, abs=1e-8
            )

    def test_amino_acid_model(self):
        from repro.trees import yule_tree

        model = synthetic_empirical(1)
        tree = yule_tree(6, 3, random_lengths=True)
        patterns = compress(simulate_alignment(tree, model, 10, seed=23))
        base = engine_loglik(tree, model, patterns)
        u, v, _ = unrooted_edges(tree)[2]
        assert engine_loglik(
            reroot_on_edge(tree, u, v, 0.25), model, patterns
        ) == pytest.approx(base, abs=1e-8)

    def test_codon_model(self):
        from repro.trees import balanced_tree

        model = GY94(2.0, 0.4)
        tree = balanced_tree(4, branch_length=0.15)
        patterns = compress(simulate_alignment(tree, model, 8, seed=24))
        base = engine_loglik(tree, model, patterns)
        u, v, _ = unrooted_edges(tree)[1]
        assert engine_loglik(
            reroot_on_edge(tree, u, v), model, patterns
        ) == pytest.approx(base, abs=1e-7)

    def test_gamma_rates_preserved(self):
        from repro.trees import pectinate_tree

        model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        rates = discrete_gamma(0.5, 4)
        tree = pectinate_tree(9, branch_length=0.25)
        patterns = compress(simulate_alignment(tree, model, 15, seed=25))
        base = engine_loglik(tree, model, patterns, rates)
        for u, v, _ in unrooted_edges(tree)[:6]:
            rerooted = reroot_on_edge(tree, u, v, 0.4)
            assert engine_loglik(rerooted, model, patterns, rates) == pytest.approx(
                base, abs=1e-8
            )


class TestOptimalRerootingPreservesLikelihood:
    """Rerooting must change only the schedule, never the answer."""

    @given(tree_strategy(min_tips=3, max_tips=14))
    @settings(max_examples=15)
    def test_exhaustive(self, tree):
        model = JC69()
        patterns = compress(simulate_alignment(tree, model, 10, seed=26))
        base = engine_loglik(tree, model, patterns)
        result = optimal_reroot_exhaustive(tree)
        assert engine_loglik(result.tree, model, patterns) == pytest.approx(
            base, abs=1e-8
        )

    @given(tree_strategy(min_tips=3, max_tips=14))
    @settings(max_examples=15)
    def test_fast(self, tree):
        model = JC69()
        patterns = compress(simulate_alignment(tree, model, 10, seed=27))
        base = engine_loglik(tree, model, patterns)
        result = optimal_reroot_fast(tree)
        assert engine_loglik(result.tree, model, patterns) == pytest.approx(
            base, abs=1e-8
        )

    @given(tree_strategy(min_tips=6, max_tips=25, kinds=("pectinate", "random")))
    @settings(max_examples=15)
    def test_same_answer_fewer_launches(self, tree):
        """The paper's headline in one property: identical likelihood,
        reduced (or equal) kernel-launch count."""
        model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        patterns = compress(simulate_alignment(tree, model, 8, seed=28))
        result = optimal_reroot_fast(tree)

        inst_orig = create_instance(tree, model, patterns)
        ll_orig = execute_plan(inst_orig, make_plan(tree, "concurrent"))
        launches_orig = inst_orig.stats.kernel_launches

        inst_new = create_instance(result.tree, model, patterns)
        ll_new = execute_plan(inst_new, make_plan(result.tree, "concurrent"))
        launches_new = inst_new.stats.kernel_launches

        assert ll_new == pytest.approx(ll_orig, abs=1e-8)
        assert launches_new <= launches_orig
        assert launches_new == count_operation_sets(result.tree)
