"""Failure injection and numerical edge cases for the engine stack."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beagle import BeagleInstance, Operation, pruning_log_likelihood
from repro.core import create_instance, execute_plan, make_plan
from repro.data import Alignment, compress, random_patterns, simulate_alignment
from repro.models import HKY85, JC69, build_reversible_q, decompose_reversible
from repro.trees import balanced_tree, parse_newick
from tests.strategies import tree_strategy


class TestDegenerateBranchLengths:
    def test_all_zero_lengths(self):
        # Zero branches: identical tips have likelihood pi; mismatching
        # tips have likelihood 0 (log -inf), never NaN.
        tree = balanced_tree(4, branch_length=0.0)
        aln = Alignment({name: "A" for name in tree.tip_names()})
        patterns = compress(aln)
        ll = execute_plan(
            create_instance(tree, JC69(), patterns), make_plan(tree)
        )
        assert ll == pytest.approx(np.log(0.25))

    def test_impossible_data_gives_neg_inf(self):
        tree = balanced_tree(2, branch_length=0.0)
        aln = Alignment({"t0001": "A", "t0002": "C"})
        ll = execute_plan(
            create_instance(tree, JC69(), compress(aln)), make_plan(tree)
        )
        assert ll == -np.inf
        assert not np.isnan(ll)

    def test_enormous_lengths_saturate(self):
        tree = balanced_tree(4, branch_length=1e6)
        patterns = random_patterns(tree.tip_names(), 8, seed=1)
        ll = execute_plan(
            create_instance(tree, JC69(), patterns), make_plan(tree)
        )
        # At stationarity each pattern's likelihood is (1/4)^4.
        expected = 8 * 4 * np.log(0.25)
        assert ll == pytest.approx(expected, rel=1e-6)

    @given(tree_strategy(min_tips=2, max_tips=12))
    @settings(max_examples=15)
    def test_never_nan(self, tree):
        for edge in tree.edges():
            edge.length = 0.0 if hash(id(edge)) % 2 else 100.0
        tree.invalidate_indices()
        patterns = random_patterns(sorted(tree.tip_names()), 4, seed=2)
        ll = execute_plan(
            create_instance(tree, JC69(), patterns), make_plan(tree)
        )
        assert not np.isnan(ll)


class TestDataEdgeCases:
    def test_single_pattern(self):
        tree = balanced_tree(4, branch_length=0.1)
        patterns = random_patterns(tree.tip_names(), 1, seed=3)
        ll = execute_plan(
            create_instance(tree, JC69(), patterns), make_plan(tree)
        )
        assert np.isfinite(ll)

    def test_two_tip_tree(self):
        tree = parse_newick("(a:0.1,b:0.2);")
        aln = Alignment({"a": "ACGT", "b": "ACGA"})
        patterns = compress(aln)
        ll = execute_plan(
            create_instance(tree, JC69(), patterns), make_plan(tree)
        )
        assert ll == pytest.approx(
            pruning_log_likelihood(tree, JC69(), patterns), abs=1e-10
        )

    def test_all_unknown_alignment(self):
        tree = balanced_tree(4, branch_length=0.1)
        aln = Alignment({name: "NN" for name in tree.tip_names()})
        ll = execute_plan(
            create_instance(tree, JC69(), compress(aln)), make_plan(tree)
        )
        assert ll == pytest.approx(0.0, abs=1e-12)

    def test_zero_pattern_weights(self):
        tree = balanced_tree(4, branch_length=0.1)
        patterns = random_patterns(tree.tip_names(), 4, seed=4)
        inst = create_instance(tree, JC69(), patterns)
        inst.set_pattern_weights([0.0, 0.0, 0.0, 0.0])
        ll = execute_plan(inst, make_plan(tree))
        assert ll == 0.0

    def test_mixed_ambiguity_heavy_alignment(self):
        tree = parse_newick("((a:0.1,b:0.2):0.1,(c:0.1,d:0.3):0.2);")
        aln = Alignment({"a": "RYSW", "b": "KMBD", "c": "HVN-", "d": "ACGT"})
        patterns = compress(aln)
        engine = execute_plan(
            create_instance(tree, HKY85(2.0), patterns), make_plan(tree)
        )
        reference = pruning_log_likelihood(tree, HKY85(2.0), patterns)
        assert engine == pytest.approx(reference, abs=1e-9)


class TestEngineMisuse:
    def make_instance(self):
        return BeagleInstance(
            tip_count=2,
            partials_buffer_count=1,
            matrix_count=3,
            pattern_count=4,
            state_count=4,
        )

    def test_reading_stale_partials_after_invalidate(self):
        inst = self.make_instance()
        inst.set_tip_states(0, [0] * 4)
        inst.set_tip_states(1, [1] * 4)
        inst.set_eigen_decomposition(0, JC69().eigen)
        inst.update_transition_matrices(0, [0, 1], [0.1, 0.1])
        inst.update_partials_set([Operation(2, 0, 0, 1, 1)])
        inst.invalidate_partials()
        with pytest.raises(ValueError):
            inst.calculate_root_log_likelihood(2)

    def test_unknown_destination_buffer(self):
        inst = self.make_instance()
        inst.set_tip_states(0, [0] * 4)
        inst.set_tip_states(1, [1] * 4)
        inst.set_eigen_decomposition(0, JC69().eigen)
        inst.update_transition_matrices(0, [0, 1], [0.1, 0.1])
        with pytest.raises(IndexError):
            inst.update_partials_set([Operation(9, 0, 0, 1, 1)])

    def test_set_with_out_of_range_destination(self):
        inst = self.make_instance()
        inst.set_tip_states(0, [0] * 4)
        inst.set_tip_states(1, [1] * 4)
        inst.set_eigen_decomposition(0, JC69().eigen)
        inst.update_transition_matrices(0, [0, 1], [0.1, 0.1])
        ops = [Operation(2, 0, 0, 1, 1), Operation(77, 0, 2, 1, 1)]
        with pytest.raises((IndexError, ValueError)):
            inst.update_partials_set(ops)

    def test_plan_reuse_across_instances(self):
        # The same plan must drive two instances with different data.
        tree = balanced_tree(6, branch_length=0.1)
        plan = make_plan(tree)
        a = create_instance(tree, JC69(), random_patterns(tree.tip_names(), 8, seed=5))
        b = create_instance(tree, JC69(), random_patterns(tree.tip_names(), 8, seed=6))
        ll_a = execute_plan(a, plan)
        ll_b = execute_plan(b, plan)
        assert ll_a != ll_b
        assert np.isfinite(ll_a) and np.isfinite(ll_b)


class TestAdditivity:
    @given(st.integers(0, 1000))
    @settings(max_examples=10)
    def test_loglik_additive_over_site_blocks(self, seed):
        """Independent sites: logL(block A + block B) = logL(A) + logL(B)."""
        tree = balanced_tree(5, branch_length=0.2)
        model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        aln = simulate_alignment(tree, model, 30, seed=seed)
        full = pruning_log_likelihood(tree, model, compress(aln))
        a = pruning_log_likelihood(tree, model, compress(aln.site_subset(range(0, 12))))
        b = pruning_log_likelihood(tree, model, compress(aln.site_subset(range(12, 30))))
        assert full == pytest.approx(a + b, abs=1e-9)


class TestReversibilityGuard:
    def test_nonreversible_matrix_rejected(self):
        # A cyclic (irreversible) generator must be refused — silently
        # accepting it would produce wrong likelihoods under rerooting.
        Q = np.array(
            [
                [-1.0, 1.0, 0.0, 0.0],
                [0.0, -1.0, 1.0, 0.0],
                [0.0, 0.0, -1.0, 1.0],
                [1.0, 0.0, 0.0, -1.0],
            ]
        )
        with pytest.raises(ValueError):
            decompose_reversible(Q, np.full(4, 0.25))

    def test_reversible_accepted_with_matching_frequencies_only(self):
        rng = np.random.default_rng(7)
        r = np.zeros((4, 4))
        upper = np.triu_indices(4, 1)
        r[upper] = rng.uniform(0.5, 2.0, 6)
        r = r + r.T
        pi = rng.dirichlet(np.full(4, 5.0))
        Q = build_reversible_q(r, pi)
        decompose_reversible(Q, pi)  # fine
        wrong_pi = np.roll(pi, 1)
        with pytest.raises(ValueError):
            decompose_reversible(Q, wrong_pi)
