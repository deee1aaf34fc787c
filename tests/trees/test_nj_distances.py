"""Tests for sequence distances, neighbor joining, and tree enumeration."""

from __future__ import annotations

import collections

import numpy as np
import pytest
from hypothesis import given, settings

from repro.data import Alignment, simulate_alignment
from repro.models import JC69
from repro.trees import (
    Tree,
    all_unrooted_topologies,
    balanced_tree,
    bipartitions,
    distance_matrix,
    gamma_jc_distance,
    jc_distance,
    n_rooted_topologies,
    n_unrooted_topologies,
    neighbor_joining,
    p_distance,
    same_unrooted_topology,
    yule_tree,
)
from repro.trees.reroot import unrooted_adjacency
from tests.strategies import tree_strategy


def path_distance_matrix(tree: Tree):
    """True additive (path-length) distances between tips."""
    adjacency, _ = unrooted_adjacency(tree)
    tips = tree.tips()
    names = [t.name for t in tips]
    n = len(tips)
    D = np.zeros((n, n))
    for i, tip in enumerate(tips):
        dist = {id(tip): 0.0}
        queue = collections.deque([tip])
        while queue:
            x = queue.popleft()
            for neighbor, length in adjacency[id(x)]:
                if id(neighbor) not in dist:
                    dist[id(neighbor)] = dist[id(x)] + length
                    queue.append(neighbor)
        for j, other in enumerate(tips):
            D[i, j] = dist[id(other)]
    return names, D


class TestSequenceDistances:
    def test_p_distance(self):
        aln = Alignment({"a": "AAAA", "b": "AATT"})
        assert p_distance(aln, "a", "b") == pytest.approx(0.5)

    def test_identical_sequences(self):
        aln = Alignment({"a": "ACGT", "b": "ACGT"})
        assert jc_distance(aln, "a", "b") == 0.0

    def test_jc_formula(self):
        aln = Alignment({"a": "A" * 100, "b": "A" * 90 + "C" * 10})
        p = 0.1
        expected = -0.75 * np.log(1 - 4 * p / 3)
        assert jc_distance(aln, "a", "b") == pytest.approx(expected)

    def test_saturation_capped(self):
        aln = Alignment({"a": "ACGT" * 5, "b": "CATG" * 5})  # 100% mismatch
        assert jc_distance(aln, "a", "b") == 10.0

    def test_ambiguity_excluded(self):
        aln = Alignment({"a": "AANN", "b": "ATRC"})
        # Comparable sites: positions 0, 1 only (N and R excluded).
        assert p_distance(aln, "a", "b") == pytest.approx(0.5)

    def test_no_comparable_sites(self):
        aln = Alignment({"a": "NN", "b": "AC"})
        with pytest.raises(ValueError):
            p_distance(aln, "a", "b")

    def test_gamma_reduces_to_jc_at_large_alpha(self):
        aln = Alignment({"a": "A" * 100, "b": "A" * 85 + "G" * 15})
        jc = jc_distance(aln, "a", "b")
        gamma = gamma_jc_distance(aln, "a", "b", alpha=500.0)
        assert gamma == pytest.approx(jc, rel=1e-2)

    def test_gamma_exceeds_jc_for_small_alpha(self):
        aln = Alignment({"a": "A" * 100, "b": "A" * 70 + "G" * 30})
        assert gamma_jc_distance(aln, "a", "b", 0.3) > jc_distance(aln, "a", "b")

    def test_distance_matrix_symmetric(self):
        tree = balanced_tree(5, branch_length=0.2)
        aln = simulate_alignment(tree, JC69(), 200, seed=31)
        names, D = distance_matrix(aln)
        assert np.allclose(D, D.T)
        assert np.all(np.diag(D) == 0)
        assert names == aln.names

    def test_distance_matrix_methods(self):
        tree = balanced_tree(4, branch_length=0.2)
        aln = simulate_alignment(tree, JC69(), 100, seed=32)
        for method in ("p", "jc", "gamma_jc"):
            _, D = distance_matrix(aln, method=method)
            assert np.all(D >= 0)
        with pytest.raises(ValueError):
            distance_matrix(aln, method="hamming3000")

    def test_jc_estimates_true_branch_length(self):
        # Long sequences: JC distance between two tips approaches the
        # true path length used for simulation.
        from repro.trees import parse_newick

        tree = parse_newick("(a:0.15,b:0.15);")
        aln = simulate_alignment(tree, JC69(), 50_000, seed=33)
        assert jc_distance(aln, "a", "b") == pytest.approx(0.3, abs=0.02)


class TestNeighborJoining:
    @given(tree_strategy(min_tips=4, max_tips=20, random_lengths=True))
    @settings(max_examples=20)
    def test_consistency_on_additive_distances(self, tree):
        # Guard against zero-length internal branches which make the
        # topology unidentifiable from distances.
        for edge in tree.edges():
            edge.length = max(edge.length, 0.05)
        names, D = path_distance_matrix(tree)
        result = neighbor_joining(names, D)
        assert result.is_bifurcating()
        assert same_unrooted_topology(result, tree)

    def test_recovers_branch_lengths_from_additive(self):
        tree = yule_tree(6, 5, random_lengths=True)
        for edge in tree.edges():
            edge.length = max(edge.length, 0.05)
        names, D = path_distance_matrix(tree)
        result = neighbor_joining(names, D)
        _, D_result = path_distance_matrix(result)
        # Reorder result matrix rows to original name order.
        order = [result.tip_names().index(n) for n in names]
        # Rebuild via dict for clarity:
        names_r, D_r = path_distance_matrix(result)
        index = {n: i for i, n in enumerate(names_r)}
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                assert D[i, j] == pytest.approx(D_r[index[a], index[b]], abs=1e-9)

    def test_two_taxa(self):
        tree = neighbor_joining(["a", "b"], np.array([[0.0, 0.4], [0.4, 0.0]]))
        assert tree.n_tips == 2
        assert tree.total_branch_length() == pytest.approx(0.4)

    def test_from_sequence_data(self):
        truth = yule_tree(8, 9, random_lengths=True)
        for edge in truth.edges():
            edge.length = max(edge.length, 0.08)
        aln = simulate_alignment(truth, JC69(), 5000, seed=34)
        names, D = distance_matrix(aln, method="jc")
        result = neighbor_joining(names, D)
        assert same_unrooted_topology(result, truth)

    def test_validation(self):
        with pytest.raises(ValueError):
            neighbor_joining(["a"], np.zeros((1, 1)))
        with pytest.raises(ValueError):
            neighbor_joining(["a", "b"], np.zeros((3, 3)))
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            neighbor_joining(["a", "b"], bad)  # asymmetric
        with pytest.raises(ValueError):
            neighbor_joining(["a", "b"], np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_multifurcating_option(self):
        names, D = path_distance_matrix(balanced_tree(5, branch_length=0.1))
        unresolved = neighbor_joining(names, D, bifurcating=False)
        assert len(unresolved.root.children) == 3


class TestEnumeration:
    def test_counts(self):
        assert n_unrooted_topologies(3) == 1
        assert n_unrooted_topologies(4) == 3
        assert n_unrooted_topologies(5) == 15
        assert n_unrooted_topologies(6) == 105
        assert n_unrooted_topologies(10) == 2_027_025
        assert n_rooted_topologies(3) == 3
        assert n_rooted_topologies(4) == 15

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_enumeration_complete_and_distinct(self, n):
        names = [f"t{i}" for i in range(n)]
        trees = list(all_unrooted_topologies(names))
        assert len(trees) == n_unrooted_topologies(n)
        keys = {
            frozenset(tuple(sorted(s)) for s in bipartitions(t)) for t in trees
        }
        assert len(keys) == len(trees)
        assert all(t.is_bifurcating() for t in trees)

    def test_limit(self):
        names = [f"t{i}" for i in range(7)]
        sample = list(all_unrooted_topologies(names, limit=10))
        assert len(sample) == 10

    def test_guard_for_large_n(self):
        with pytest.raises(ValueError):
            list(all_unrooted_topologies([f"t{i}" for i in range(10)]))

    def test_validation(self):
        with pytest.raises(ValueError):
            list(all_unrooted_topologies(["a", "b"]))
        with pytest.raises(ValueError):
            list(all_unrooted_topologies(["a", "a", "b"]))
