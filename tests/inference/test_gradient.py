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
from hypothesis import given
from hypothesis import strategies as st

from repro.beagle.setexec import batch_rows
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
from repro.inference.derivatives import (
    _EigenBasis,
    _recombine_edges,
    _SweepTopology,
)
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


def half_trees_by_getters(instance, nodes):
    """Each branch's stacked lower and upper partials, read one buffer at
    a time through the public getters."""
    return (
        np.stack([instance.get_partials(node) for node in nodes]),
        np.stack([instance.upper_partials(node) for node in nodes]),
    )


def swept_topology(tree, patterns, rates=None, dtype=np.float64):
    """A swept instance, its gradient and its :class:`_SweepTopology`."""
    instance = create_instance(tree, MODEL, patterns, rates=rates, dtype=dtype)
    bg = all_branch_derivatives(
        tree, MODEL, patterns, rates=rates, instance=instance
    )
    return instance, bg, _SweepTopology(tree, "concurrent", make_gradient_plan(tree))


def first_getter_error(instance, nodes):
    """The message of the first error the per-buffer getters raise."""
    for node in nodes:
        for getter in (instance.get_partials, instance.upper_partials):
            try:
                getter(node)
            except ValueError as error:
                return str(error)
    return None


class TestBatchedRecombination:
    @given(
        tree=tree_strategy(min_tips=4, max_tips=12),
        categories=st.sampled_from([1, 4]),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    def test_sweep_batches_and_store_views(self, tree, categories, dtype, seed):
        for edge in tree.root.traverse_postorder():
            if edge.parent is not None:
                edge.length = max(float(edge.length), 0.02)
        tree.invalidate_indices()
        patterns = ambiguous_patterns(tree, 48, seed)
        assert patterns.partials and (patterns.codes == 4).any()
        rates = discrete_gamma(0.7, 4) if categories == 4 else None
        instance, bg, topology = swept_topology(tree, patterns, rates, dtype)

        # The sweep equals the per-edge oracle bit for bit.
        expected, _ = oracle_triples(tree, MODEL, patterns, rates, dtype=dtype)
        assert [_triple(d) for d in bg.derivatives] == [
            _triple(d) for d in expected
        ]

        # The batches, in buffer order, equal the per-buffer getters,
        # dtype included; every upper and internal lower is a view of the
        # store, each tip batch is gathered from the codes.
        nodes = topology.nodes
        assert sorted(nodes) == sorted(tree.index_of(e) for e in bg.edges)
        assert [tree.index_of(bg.edges[i]) for i in topology.order] == nodes
        store = instance._partials
        batches, start = [], 0
        for low, up in topology.half_trees(instance, 3):
            assert len(low) == len(up) <= 3
            assert np.shares_memory(up, store)
            tip = nodes[start] < tree.n_tips
            assert np.shares_memory(low, store) != tip
            batches.append((low.copy(), up))
            start += len(low)
        lower = np.concatenate([low for low, _ in batches])
        upper = np.concatenate([up for _, up in batches])
        want_lower, want_upper = half_trees_by_getters(instance, nodes)
        assert lower.dtype == upper.dtype == np.dtype(dtype)
        assert np.array_equal(lower, want_lower)
        assert np.array_equal(upper, want_upper)

        # The batched routine does not depend on the batch size, on
        # whether it reads the store's views or copies, or on whether the
        # basis holds every branch or only the batch's.
        lengths = bg.branch_lengths()[topology.order]
        weights = patterns.weights
        rates = rates or single_rate()
        basis = _EigenBasis(lengths, MODEL, rates)

        def batched(pairs, own_basis=False):
            out, k = [], 0
            for low, up in pairs:
                if own_basis:
                    rows = _EigenBasis(lengths[k : k + len(low)], MODEL, rates)
                    out += _recombine_edges(low, up, rows, 0, weights).tolist()
                else:
                    out += _recombine_edges(low, up, basis, k, weights).tolist()
                k += len(low)
            return [tuple(triple) for triple in out]

        whole = batched([(want_lower, want_upper)])
        assert whole == [_triple(bg.derivatives[i]) for i in topology.order]
        for size in (1, 3, batch_rows(instance), len(nodes)):
            assert batched(topology.half_trees(instance, size)) == whole
        assert batched(topology.half_trees(instance, 3), own_basis=True) == whole

        # A buffer that has not been computed is rejected with the
        # getter's error.
        instance.invalidate_upper_partials()
        with pytest.raises(ValueError, match="read before being computed"):
            topology.half_trees(instance, 3)

    def test_view_errors_match_the_getters(self):
        tree = balanced_tree(8, branch_length=0.1)
        patterns = make_patterns(tree)
        instance = create_instance(tree, MODEL, patterns)
        topology = _SweepTopology(tree, "concurrent", make_gradient_plan(tree))
        with pytest.raises(ValueError, match="upper partials not enabled"):
            topology.half_trees(instance, 4)
        all_branch_derivatives(tree, MODEL, patterns, instance=instance)
        assert len(list(topology.half_trees(instance, 4))) > 1
        for invalidate in (
            instance.invalidate_upper_partials,
            instance.invalidate_partials,
        ):
            invalidate()
            want = first_getter_error(instance, topology.nodes)
            assert want is not None
            with pytest.raises(ValueError) as got:
                topology.half_trees(instance, 4)
            assert str(got.value) == want

    @pytest.mark.parametrize(
        "newick",
        [
            "((a:0.1,(b:0.2,c:0.05):0.1):0.2,d:0.3);",
            "(d:0.3,(a:0.1,(b:0.2,c:0.05):0.1):0.2);",
            "((a:0.1,b:0.2):0.1,(c:0.05,(d:0.3,e:0.1):0.2):0.15);",
        ],
        ids=["second-root-child-tip", "first-root-child-tip", "both-internal"],
    )
    @pytest.mark.parametrize("categories", [1, 4])
    def test_root_children_of_either_kind(self, newick, categories):
        """The merged second root child falls out of the runs whether it
        is a tip or the last internal node; the sweep still equals the
        oracle, with unknown codes and explicit tips."""
        tree = parse_newick(newick)
        patterns = ambiguous_patterns(tree, 24, 5)
        rates = discrete_gamma(0.7, 4) if categories == 4 else None
        instance, bg, topology = swept_topology(tree, patterns, rates)
        skip = tree.index_of(tree.root.children[1])
        assert skip not in topology.nodes
        assert tree.index_of(tree.root) not in topology.nodes
        if not tree.root.children[1].is_tip:
            assert skip == 2 * tree.n_tips - 3  # the last internal node
        runs = [topology.nodes[a:b] for a, b in topology.runs]
        for run in runs:
            assert run == list(range(run[0], run[0] + len(run)))
        assert len(runs) <= 3
        expected, _ = oracle_triples(tree, MODEL, patterns, rates)
        assert [_triple(d) for d in bg.derivatives] == [
            _triple(d) for d in expected
        ]

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

    def test_four_gamma_categories_in_float32(self):
        # The per-edge oracle recombines a batch of one with a basis of one
        # length; the sweep slices a basis of every length, 16 branches a
        # batch. Both agree exactly in f32 with 4 categories.
        tree = balanced_tree(32, branch_length=0.1)
        for k, edge in enumerate(tree.edges()):
            edge.length = 0.02 + 0.01 * (k % 7)
        tree.invalidate_indices()
        patterns = ambiguous_patterns(tree, 64, 11)
        rates = discrete_gamma(0.5, 4)
        instance = create_instance(
            tree, MODEL, patterns, rates=rates, dtype=np.float32
        )
        bg = all_branch_derivatives(
            tree, MODEL, patterns, rates=rates, instance=instance
        )
        assert len(bg.edges) > batch_rows(instance)
        expected, _ = oracle_triples(tree, MODEL, patterns, rates, dtype=np.float32)
        assert [_triple(d) for d in bg.derivatives] == [
            _triple(d) for d in expected
        ]

    def test_sweep_spans_several_chunks(self):
        tree = balanced_tree(32, branch_length=0.1)
        patterns = make_patterns(tree, n_sites=200)
        instance = create_instance(tree, MODEL, patterns)
        bg = all_branch_derivatives(tree, MODEL, patterns, instance=instance)
        assert len(bg.edges) > 2 * batch_rows(instance)
        expected, _ = oracle_triples(tree, MODEL, patterns)
        assert [_triple(d) for d in bg.derivatives] == [
            _triple(d) for d in expected
        ]
