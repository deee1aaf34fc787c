"""Tests for bootstrap support and the branch-score distance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import Alignment, simulate_alignment
from repro.inference import (
    bootstrap_alignments,
    bootstrap_consensus,
    bootstrap_log_likelihoods,
    bootstrap_support,
    bootstrap_trees,
)
from repro.models import JC69
from repro.trees import (
    branch_score_distance,
    distance_matrix,
    neighbor_joining,
    parse_newick,
    random_attachment_tree,
    robinson_foulds,
    same_unrooted_topology,
    yule_tree,
)


def nj_builder(alignment: Alignment):
    names, D = distance_matrix(alignment, method="jc")
    return neighbor_joining(names, D)


@pytest.fixture(scope="module")
def strong_signal():
    truth = yule_tree(8, 41, random_lengths=True)
    for edge in truth.edges():
        edge.length = max(edge.length, 0.08)
    aln = simulate_alignment(truth, JC69(), 2000, seed=42)
    return truth, aln


class TestBootstrapAlignments:
    def test_replicates_same_shape(self, strong_signal):
        _, aln = strong_signal
        reps = list(bootstrap_alignments(aln, 3, np.random.default_rng(0)))
        assert len(reps) == 3
        for rep in reps:
            assert rep.n_taxa == aln.n_taxa
            assert rep.n_sites == aln.n_sites

    def test_resampling_changes_columns(self, strong_signal):
        _, aln = strong_signal
        rep = next(bootstrap_alignments(aln, 1, np.random.default_rng(1)))
        # Some column multiset difference is (overwhelmingly) expected.
        assert any(
            rep.column(i) != aln.column(i) for i in range(aln.n_sites)
        )

    def test_validation(self, strong_signal):
        _, aln = strong_signal
        with pytest.raises(ValueError):
            list(bootstrap_alignments(aln, 0, np.random.default_rng(0)))


class TestBootstrapSupport:
    def test_strong_signal_high_support(self, strong_signal):
        truth, aln = strong_signal
        support = bootstrap_support(aln, nj_builder, 20, seed=2)
        # With 2,000 sites every true split should be recovered in
        # (nearly) every replicate.
        assert support
        assert np.mean(list(support.values())) > 0.9

    def test_consensus_matches_truth(self, strong_signal):
        truth, aln = strong_signal
        consensus = bootstrap_consensus(aln, nj_builder, 20, seed=3)
        assert robinson_foulds(consensus, truth) == 0

    def test_trees_count(self, strong_signal):
        _, aln = strong_signal
        trees = bootstrap_trees(aln, nj_builder, 5, seed=4)
        assert len(trees) == 5
        assert all(sorted(t.tip_names()) == sorted(aln.names) for t in trees)

    def test_deterministic_seed(self, strong_signal):
        _, aln = strong_signal
        a = bootstrap_support(aln, nj_builder, 5, seed=5)
        b = bootstrap_support(aln, nj_builder, 5, seed=5)
        assert a == b


class TestBranchScoreDistance:
    def test_zero_for_identical(self):
        t = yule_tree(8, 7, random_lengths=True)
        assert branch_score_distance(t, t.copy()) == pytest.approx(0.0)

    def test_pure_length_difference(self):
        a = parse_newick("((a:1,b:1):1,(c:1,d:1):1);")
        b = parse_newick("((a:1,b:1):2,(c:1,d:1):2);")
        # The internal split's unrooted length goes 2 -> 4.
        assert branch_score_distance(a, b) == pytest.approx(2.0)

    def test_rerooting_invariant(self):
        from repro.trees import reroot_on_edge, unrooted_edges

        t = yule_tree(7, 9, random_lengths=True)
        u, v, _ = unrooted_edges(t)[3]
        r = reroot_on_edge(t, u, v, fraction=0.25)
        assert branch_score_distance(t, r) == pytest.approx(0.0, abs=1e-12)

    def test_topology_difference_counts_full_lengths(self):
        a = parse_newick("((a:1,b:1):0.5,(c:1,d:1):0.5);")
        b = parse_newick("((a:1,c:1):0.5,(b:1,d:1):0.5);")
        # Each tree's internal edge (length 1 unrooted) is unique.
        assert branch_score_distance(a, b) == pytest.approx(np.sqrt(2.0))

    def test_symmetry(self):
        a = yule_tree(8, 11, random_lengths=True)
        b = yule_tree(8, 12, random_lengths=True)
        assert branch_score_distance(a, b) == pytest.approx(
            branch_score_distance(b, a)
        )

    def test_requires_same_tips(self):
        with pytest.raises(ValueError):
            branch_score_distance(
                parse_newick("((a,b),c);"), parse_newick("((a,b),d);")
            )


class TestPoolContextOptIn:
    """Builders receive a JobContext only when they explicitly opt in."""

    @pytest.fixture()
    def pool(self):
        from repro.exec import LikelihoodPool

        return LikelihoodPool(2, executor="inline")

    def test_optional_second_parameter_is_not_a_context(
        self, strong_signal, pool
    ):
        _, aln = strong_signal
        seen = []

        def builder(alignment, n_starts=3):
            seen.append(n_starts)
            return nj_builder(alignment)

        serial = bootstrap_trees(aln, builder, 2, seed=7)
        pooled = bootstrap_trees(aln, builder, 2, seed=7, pool=pool)
        # Arity never implies opt-in: the default must survive pooling.
        assert seen == [3] * 4
        for a, b in zip(serial, pooled):
            assert same_unrooted_topology(a, b)

    def test_ctx_parameter_name_opts_in(self, strong_signal, pool):
        from repro.exec import JobContext

        _, aln = strong_signal
        contexts = []

        def builder(alignment, ctx):
            contexts.append(ctx)
            return nj_builder(alignment)

        trees = bootstrap_trees(aln, builder, 2, seed=7, pool=pool)
        assert len(trees) == 2
        assert len(contexts) == 2
        assert all(isinstance(c, JobContext) for c in contexts)

    def test_keyword_only_ctx_opts_in(self, strong_signal, pool):
        from repro.exec import JobContext

        _, aln = strong_signal
        contexts = []

        def builder(alignment, *, ctx):
            contexts.append(ctx)
            return nj_builder(alignment)

        trees = bootstrap_trees(aln, builder, 2, seed=7, pool=pool)
        assert len(trees) == 2
        assert all(isinstance(c, JobContext) for c in contexts)

    def test_pool_context_marker_opts_in(self, strong_signal, pool):
        from repro.exec import JobContext

        _, aln = strong_signal
        contexts = []

        def builder(alignment, job):
            contexts.append(job)
            return nj_builder(alignment)

        builder.pool_context = True
        trees = bootstrap_trees(aln, builder, 2, seed=7, pool=pool)
        assert len(trees) == 2
        assert all(isinstance(c, JobContext) for c in contexts)

    def test_pass_context_flag_overrides(self, strong_signal, pool):
        from repro.exec import JobContext

        _, aln = strong_signal
        contexts = []

        def builder(alignment, extra):
            contexts.append(extra)
            return nj_builder(alignment)

        trees = bootstrap_trees(
            aln, builder, 2, seed=7, pool=pool, pass_context=True
        )
        assert len(trees) == 2
        assert all(isinstance(c, JobContext) for c in contexts)

    def test_pass_context_false_suppresses_ctx_builder(
        self, strong_signal, pool
    ):
        _, aln = strong_signal

        def builder(alignment, ctx=None):
            assert ctx is None
            return nj_builder(alignment)

        trees = bootstrap_trees(
            aln, builder, 2, seed=7, pool=pool, pass_context=False
        )
        assert len(trees) == 2


class TestShardedBootstrap:
    def test_sharded_values_match_unsharded(self):
        tree = random_attachment_tree(16, 5, random_lengths=True)
        aln = simulate_alignment(tree, JC69(), 1500, seed=7)
        plain = bootstrap_log_likelihoods(aln, tree, JC69(), 4, seed=1)
        sharded = bootstrap_log_likelihoods(
            aln, tree, JC69(), 4, seed=1, shards=3
        )
        assert sharded == plain
