"""Tests for the one-sweep all-branch gradient engine.

The contract under test: :func:`repro.inference.all_branch_derivatives`
computes every canonical branch's ``(logL, d/dt, d²/dt²)`` in one
post-order + pre-order sweep, bit-consistent with
:func:`repro.inference.edge_log_likelihood_derivatives` run per edge
through a rerooted evaluation — at both dtypes and on as-given and
rerooted trees.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beagle.setexec import block_ops
from repro.core import make_gradient_plan
from repro.core.planner import create_instance
from repro.data import Alignment, compress, simulate_alignment
from repro.inference import (
    DerivativeSession,
    TreeLikelihood,
    all_branch_derivatives,
    canonical_edges,
    edge_log_likelihood_derivatives,
    merged_edge_length,
)
from repro.inference.derivatives import _recombine_edges
from repro.models import HKY85, JC69, discrete_gamma
from repro.models.siterates import single_rate
from repro.trees import balanced_tree, parse_newick, pectinate_tree, yule_tree
from repro.trees.reroot import reroot_above
from tests.strategies import tree_strategy

MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])


def make_patterns(tree, n_sites=40, seed=7, model=None):
    return compress(
        simulate_alignment(tree, model or MODEL, n_sites, seed=seed)
    )


def oracle_triples(tree, model, patterns, rates=None, *, dtype=np.float64):
    """Per-edge rerooted derivatives for every canonical branch."""
    session = DerivativeSession(model, patterns, rates, dtype=dtype)
    return [
        edge_log_likelihood_derivatives(
            tree, model, patterns, edge, rates=rates, session=session
        )
        for edge in canonical_edges(tree)
    ], session


class TestAllBranchDerivatives:
    @settings(max_examples=10, deadline=None)
    @given(tree=tree_strategy(min_tips=4, max_tips=10), seed=st.integers(0, 5))
    def test_matches_per_edge_oracle_exactly(self, tree, seed):
        # f64 parity is exact: the one-sweep upper bank holds the same
        # bits as the rerooted oracle's far-side half-tree partials, and
        # both paths recombine through _recombine_edges (the oracle as a
        # batch of one).
        for edge in tree.root.traverse_postorder():
            if edge.parent is not None:
                edge.length = max(float(edge.length), 0.05)
        tree.invalidate_indices()
        patterns = make_patterns(tree, n_sites=30, seed=seed)
        bg = all_branch_derivatives(tree, MODEL, patterns)
        expected, _ = oracle_triples(tree, MODEL, patterns)
        assert len(bg.derivatives) == 2 * tree.n_tips - 3
        for got, want in zip(bg.derivatives, expected):
            assert got.log_likelihood == want.log_likelihood
            assert got.first == want.first
            assert got.second == want.second

    def test_exact_on_rerooted_trees(self):
        tree = yule_tree(10, np.random.default_rng(3))
        patterns = make_patterns(tree)
        for edge in canonical_edges(tree)[::3]:
            rerooted = reroot_above(tree, edge, fraction=0.0)
            bg = all_branch_derivatives(rerooted, MODEL, patterns)
            expected, _ = oracle_triples(rerooted, MODEL, patterns)
            for got, want in zip(bg.derivatives, expected):
                assert (got.log_likelihood, got.first, got.second) == (
                    want.log_likelihood,
                    want.first,
                    want.second,
                )

    def test_float32_stays_close_to_float64(self):
        tree = balanced_tree(8, branch_length=0.15)
        patterns = make_patterns(tree)
        f64 = all_branch_derivatives(tree, MODEL, patterns)
        f32 = all_branch_derivatives(tree, MODEL, patterns, dtype=np.float32)
        # f32 parity class: exact against the f32 oracle, close to f64.
        expected32, _ = oracle_triples(tree, MODEL, patterns, dtype=np.float32)
        for got, want in zip(f32.derivatives, expected32):
            assert got.log_likelihood == want.log_likelihood
            assert got.first == want.first
        assert np.allclose(f32.gradient(), f64.gradient(), rtol=1e-3, atol=1e-2)

    def test_matches_central_finite_differences(self):
        from tests.inference.test_derivatives import finite_difference

        tree = yule_tree(8, np.random.default_rng(11))
        patterns = make_patterns(tree)
        bg = all_branch_derivatives(tree, MODEL, patterns)
        for edge, d in zip(bg.edges, bg.derivatives):
            if edge.parent is tree.root:
                continue  # unrooted length is the pulley sum; not FD-probeable
            ll, fd1, fd2 = finite_difference(tree, MODEL, patterns, edge)
            assert d.log_likelihood == pytest.approx(ll, abs=1e-9)
            assert d.first == pytest.approx(fd1, rel=1e-4, abs=1e-4)
            assert d.second == pytest.approx(fd2, rel=1e-3, abs=1e-2)

    def test_gamma_rates(self):
        tree = balanced_tree(8, branch_length=0.2)
        rates = discrete_gamma(0.5, 4)
        patterns = make_patterns(tree)
        bg = all_branch_derivatives(tree, MODEL, patterns, rates=rates)
        expected, _ = oracle_triples(tree, MODEL, patterns, rates)
        for got, want in zip(bg.derivatives, expected):
            assert (got.log_likelihood, got.first, got.second) == (
                want.log_likelihood,
                want.first,
                want.second,
            )

    def test_serial_mode_bit_identical_to_concurrent(self):
        tree = pectinate_tree(9, branch_length=0.1)
        patterns = make_patterns(tree)
        a = all_branch_derivatives(tree, MODEL, patterns, mode="concurrent")
        b = all_branch_derivatives(tree, MODEL, patterns, mode="serial")
        for x, y in zip(a.derivatives, b.derivatives):
            assert (x.log_likelihood, x.first, x.second) == (
                y.log_likelihood,
                y.first,
                y.second,
            )

    def test_log_likelihood_matches_evaluator(self):
        tree = balanced_tree(8, branch_length=0.1)
        patterns = make_patterns(tree)
        bg = all_branch_derivatives(tree, MODEL, patterns)
        ll = TreeLikelihood(tree, MODEL, patterns).log_likelihood()
        assert bg.log_likelihood == pytest.approx(ll, abs=1e-9)
        # Every per-branch recombination reproduces the same logL too.
        for d in bg.derivatives:
            assert d.log_likelihood == pytest.approx(bg.log_likelihood, abs=1e-8)

    def test_verify_flag_and_instance_reuse(self):
        tree = balanced_tree(8, branch_length=0.1)
        patterns = make_patterns(tree)
        instance = create_instance(tree, MODEL, patterns)
        a = all_branch_derivatives(tree, MODEL, patterns, verify=True)
        b = all_branch_derivatives(
            tree, MODEL, patterns, instance=instance, verify=True
        )
        assert a.log_likelihood == b.log_likelihood
        assert a.gradient().tolist() == b.gradient().tolist()

    def test_validation(self):
        with pytest.raises(ValueError, match="at least three tips"):
            all_branch_derivatives(
                parse_newick("(a:0.1,b:0.1);"),
                JC69(),
                make_patterns(balanced_tree(4), model=JC69()),
            )
        tree = balanced_tree(4)
        with pytest.raises(ValueError, match="unknown mode"):
            all_branch_derivatives(
                tree, JC69(), make_patterns(tree, model=JC69()), mode="warp"
            )


class TestBranchGradientAccessors:
    def test_shapes_and_edge_order(self):
        tree = yule_tree(7, np.random.default_rng(1))
        patterns = make_patterns(tree)
        bg = all_branch_derivatives(tree, MODEL, patterns)
        k = 2 * tree.n_tips - 3
        assert bg.gradient().shape == (k,)
        assert bg.second_derivatives().shape == (k,)
        assert list(bg.edges) == canonical_edges(tree)
        assert bg.branch_lengths().tolist() == [
            merged_edge_length(tree, e) for e in bg.edges
        ]

    def test_for_edge_aliases_the_pulley(self):
        tree = balanced_tree(8, branch_length=0.1)
        patterns = make_patterns(tree)
        bg = all_branch_derivatives(tree, MODEL, patterns)
        first, second = tree.root.children
        # The second root child shares the merged pulley edge with the
        # first — for_edge resolves both to the same derivatives.
        assert bg.for_edge(second) is bg.for_edge(first)
        with pytest.raises(KeyError):
            bg.for_edge(tree.root)

    def test_for_edge_returns_each_edges_own_derivatives(self):
        tree = yule_tree(12, np.random.default_rng(4))
        patterns = make_patterns(tree)
        bg = all_branch_derivatives(tree, MODEL, patterns)
        for i, edge in enumerate(bg.edges):
            assert bg.for_edge(edge) is bg.derivatives[i]
        first, second = tree.root.children
        assert bg.for_edge(second) is bg.derivatives[bg.edges.index(first)]
        # The lookup map is built once per gradient, not per call.
        assert bg._by_id is bg._by_id

    def test_canonical_edges_skip_second_root_child(self):
        tree = pectinate_tree(8, branch_length=0.1)
        edges = canonical_edges(tree)
        assert len(edges) == 2 * tree.n_tips - 3
        assert tree.root.children[1] not in edges
        assert tree.root not in edges

    def test_merged_edge_length_sums_the_pulley(self):
        tree = balanced_tree(4, branch_length=0.25)
        a, b = tree.root.children
        assert merged_edge_length(tree, a) == pytest.approx(
            float(a.length) + float(b.length)
        )
        grandchild = a.children[0]
        assert merged_edge_length(tree, grandchild) == float(grandchild.length)


class TestDerivativeSessionReuse:
    def test_one_instance_across_all_edges(self):
        tree = yule_tree(10, np.random.default_rng(9))
        patterns = make_patterns(tree)
        _, session = oracle_triples(tree, MODEL, patterns)
        assert session.instances_created == 1
        assert session.evaluations == 2 * tree.n_tips - 3

    def test_session_parity_with_fresh_instances(self):
        tree = yule_tree(7, np.random.default_rng(2))
        patterns = make_patterns(tree)
        edge = canonical_edges(tree)[1]
        fresh = edge_log_likelihood_derivatives(tree, MODEL, patterns, edge)
        session = DerivativeSession(MODEL, patterns)
        reused = edge_log_likelihood_derivatives(
            tree, MODEL, patterns, edge, session=session
        )
        assert (fresh.log_likelihood, fresh.first, fresh.second) == (
            reused.log_likelihood,
            reused.first,
            reused.second,
        )


class TestGradientPlanShape:
    @pytest.mark.parametrize("n", [3, 4, 8, 16])
    def test_operation_counts(self, n):
        tree = balanced_tree(n, branch_length=0.1)
        gplan = make_gradient_plan(tree)
        assert gplan.post.n_operations == n - 1
        assert gplan.n_operations == 3 * n - 5
        assert sum(gplan.upper_set_sizes) == 2 * n - 4
        assert len(gplan.seeds) == 2

    def test_serial_mode_one_op_per_launch(self):
        tree = balanced_tree(8, branch_length=0.1)
        gplan = make_gradient_plan(tree, "serial")
        assert all(s == 1 for s in gplan.upper_set_sizes)
        assert gplan.n_launches == gplan.n_operations

    def test_concurrent_batches_fewer_launches(self):
        tree = balanced_tree(16, branch_length=0.1)
        serial = make_gradient_plan(tree, "serial")
        batched = make_gradient_plan(tree)
        assert batched.n_launches < serial.n_launches
        assert batched.n_operations == serial.n_operations

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown mode"):
            make_gradient_plan(balanced_tree(4), "sideways")
        with pytest.raises(ValueError, match="at least three tips"):
            make_gradient_plan(parse_newick("(a:0.1,b:0.1);"))


# ----------------------------------------------------------------------
# Batched recombination: chunked sweep, batch-size invariance, the gather
# ----------------------------------------------------------------------
def ambiguous_patterns(tree, n_sites, seed):
    """Random DNA with unknown characters on every taxon and partial
    ambiguity codes (explicit tip partials) on every other taxon."""
    rng = np.random.default_rng(seed)
    sequences = {}
    for k, name in enumerate(tree.tip_names()):
        row = rng.choice(list("ACGT"), size=n_sites)
        row[rng.random(n_sites) < 0.1] = "N"
        if k % 2:
            row[rng.random(n_sites) < 0.1] = rng.choice(["R", "Y"])
        sequences[name] = "".join(row)
    return compress(Alignment(sequences))


def _triple(d):
    return (d.log_likelihood, d.first, d.second)


class TestBatchedRecombination:
    @settings(max_examples=12, deadline=None)
    @given(
        tree=tree_strategy(min_tips=4, max_tips=12),
        categories=st.sampled_from([1, 4]),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    def test_sweep_batches_and_gather(self, tree, categories, dtype, seed):
        for edge in tree.root.traverse_postorder():
            if edge.parent is not None:
                edge.length = max(float(edge.length), 0.02)
        tree.invalidate_indices()
        patterns = ambiguous_patterns(tree, 48, seed)
        assert patterns.partials and (patterns.codes == 4).any()
        rates = discrete_gamma(0.7, 4) if categories == 4 else None
        instance = create_instance(
            tree, MODEL, patterns, rates=rates, dtype=dtype
        )
        bg = all_branch_derivatives(
            tree, MODEL, patterns, rates=rates, instance=instance
        )

        # The sweep equals the per-edge oracle bit for bit.
        expected, _ = oracle_triples(tree, MODEL, patterns, rates, dtype=dtype)
        assert [_triple(d) for d in bg.derivatives] == [
            _triple(d) for d in expected
        ]

        # The gather equals the per-buffer getters, dtype included.
        nodes = [tree.index_of(e) for e in bg.edges]
        lower, upper = instance.edge_partials(nodes)
        assert lower.dtype == upper.dtype == np.dtype(dtype)
        for i, node in enumerate(nodes):
            want_lower = instance.get_partials(node)
            want_upper = instance.upper_partials(node)
            assert want_lower.dtype == want_upper.dtype == np.dtype(dtype)
            assert np.array_equal(lower[i], want_lower)
            assert np.array_equal(upper[i], want_upper)

        # The batched routine does not depend on the batch size.
        lengths = bg.branch_lengths()
        weights = patterns.weights
        rates = rates or single_rate()

        def batched(size):
            out = []
            for start in range(0, len(nodes), size):
                part = slice(start, start + size)
                out += _recombine_edges(
                    lower[part], upper[part], lengths[part], MODEL, rates, weights
                )
            return [_triple(d) for d in out]

        whole = batched(len(nodes))
        assert whole == [_triple(d) for d in bg.derivatives]
        for size in (1, 3, block_ops(instance)):
            assert batched(size) == whole

        # A buffer that has not been computed is rejected.
        instance.invalidate_upper_partials()
        with pytest.raises(ValueError, match="read before being computed"):
            instance.edge_partials(nodes)

    def test_gather_errors_match_the_getters(self):
        tree = balanced_tree(8, branch_length=0.1)
        patterns = make_patterns(tree)
        instance = create_instance(tree, MODEL, patterns)
        with pytest.raises(ValueError, match="upper partials not enabled"):
            instance.edge_partials([0])
        all_branch_derivatives(tree, MODEL, patterns, instance=instance)
        with pytest.raises(IndexError):
            instance.edge_partials([instance.upper_base])
        assert instance.edge_partials([])[0].shape == (0, 1, patterns.n_patterns, 4)
        internal = tree.index_of(tree.root.children[0])
        for invalidate, getter in (
            (instance.invalidate_upper_partials, instance.upper_partials),
            (instance.invalidate_partials, instance.get_partials),
        ):
            invalidate()
            with pytest.raises(ValueError) as want:
                getter(internal)
            with pytest.raises(ValueError) as got:
                instance.edge_partials([internal, 0])
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unknown_codes_at_a_root_child_tip(self, dtype):
        # The root child's children read its sibling tip through the tip
        # gather, as the rerooted evaluation does; a dense all-ones row
        # through a matmul would sum a row of P instead of giving 1.
        tree = parse_newick("(a:0.1,((b:0.2,c:0.05):0.1,d:0.3):0.15);")
        patterns = compress(
            Alignment(
                {
                    "a": "ANNAGNCTNA",
                    "b": "ACGACGCTTA",
                    "c": "ACGRCGCYTA",
                    "d": "GCGACNCTTA",
                }
            )
        )
        bg = all_branch_derivatives(tree, MODEL, patterns, dtype=dtype)
        expected, _ = oracle_triples(tree, MODEL, patterns, dtype=dtype)
        assert [_triple(d) for d in bg.derivatives] == [
            _triple(d) for d in expected
        ]

    def test_sweep_spans_several_chunks(self):
        tree = balanced_tree(32, branch_length=0.1)
        patterns = make_patterns(tree, n_sites=200)
        instance = create_instance(tree, MODEL, patterns)
        bg = all_branch_derivatives(tree, MODEL, patterns, instance=instance)
        assert len(bg.edges) > 2 * block_ops(instance)
        expected, _ = oracle_triples(tree, MODEL, patterns)
        assert [_triple(d) for d in bg.derivatives] == [
            _triple(d) for d in expected
        ]
