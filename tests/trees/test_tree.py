"""Unit tests for repro.trees.tree."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.trees import balanced_tree, parse_newick, pectinate_tree
from tests.strategies import tree_strategy


class TestBasics:
    def test_counts(self):
        t = balanced_tree(8)
        assert t.n_tips == 8
        assert t.n_nodes == 15
        assert len(t.internals()) == 7
        assert len(t.edges()) == 14

    def test_find(self):
        t = balanced_tree(4)
        assert t.find("t0002").name == "t0002"
        with pytest.raises(KeyError):
            t.find("nope")

    def test_tip_names_order(self):
        t = pectinate_tree(4, names=["w", "x", "y", "z"])
        assert set(t.tip_names()) == {"w", "x", "y", "z"}

    def test_total_branch_length(self):
        t = balanced_tree(4, branch_length=0.25)
        assert t.total_branch_length() == pytest.approx(0.25 * 6)

    def test_is_bifurcating(self):
        t = parse_newick("((a,b),(c,d));")
        assert t.is_bifurcating()
        m = parse_newick("(a,b,c);")
        assert not m.is_bifurcating()


class TestIndexing:
    def test_tips_before_internals(self):
        t = balanced_tree(8)
        idx = t.assign_indices()
        tips = {idx[id(n)] for n in t.tips()}
        internals = {idx[id(n)] for n in t.internals()}
        assert tips == set(range(8))
        assert internals == set(range(8, 15))

    def test_children_index_below_parent_for_internals(self):
        t = pectinate_tree(9)
        t.assign_indices()
        for node in t.internals():
            for child in node.children:
                if not child.is_tip:
                    assert t.index_of(child) < t.index_of(node)

    def test_explicit_tip_order(self):
        t = balanced_tree(4)
        order = ["t0003", "t0001", "t0004", "t0002"]
        t.assign_indices(tip_order=order)
        for i, name in enumerate(order):
            assert t.index_of(t.find(name)) == i

    def test_bad_tip_order_rejected(self):
        t = balanced_tree(4)
        with pytest.raises(ValueError):
            t.assign_indices(tip_order=["a", "b", "c", "d"])

    def test_invalidate(self):
        t = balanced_tree(4)
        t.index_of(t.find("t0001"))
        t.invalidate_indices()
        assert t._index is None

    def test_root_gets_highest_index(self):
        t = balanced_tree(16)
        t.assign_indices()
        assert t.index_of(t.root) == t.n_nodes - 1


class TestCopy:
    @given(tree_strategy(max_tips=20))
    def test_copy_is_deep_and_equal(self, tree):
        dup = tree.copy()
        assert dup.topology_key() == tree.topology_key()
        assert dup.root is not tree.root
        originals = {id(n) for n in tree.nodes()}
        assert all(id(n) not in originals for n in dup.nodes())

    def test_copy_preserves_lengths(self):
        t = balanced_tree(4, branch_length=0.33)
        dup = t.copy()
        assert dup.total_branch_length() == pytest.approx(t.total_branch_length())

    def test_mutating_copy_leaves_original(self):
        t = balanced_tree(4)
        dup = t.copy()
        dup.find("t0001").name = "changed"
        assert t.find("t0001").name == "t0001"


class TestRepair:
    def test_resolve_multifurcations(self):
        t = parse_newick("(a,b,c,d,e);")
        assert not t.is_bifurcating()
        t.resolve_multifurcations()
        assert t.is_bifurcating()
        assert t.n_tips == 5
        # Inserted branches must be zero length to preserve likelihoods.
        assert t.total_branch_length() == pytest.approx(0.0)

    def test_suppress_unary_merges_lengths(self):
        t = parse_newick("((a:1.0):2.0,b:3.0);")
        t.suppress_unary()
        assert t.is_bifurcating()
        a = t.find("a")
        assert a.length == pytest.approx(3.0)

    def test_suppress_unary_root(self):
        t = parse_newick("((a:1.0,b:2.0):5.0);")
        t.suppress_unary()
        assert t.root.name is None
        assert {c.name for c in t.root.children} == {"a", "b"}


class TestTopologyKey:
    def test_key_ignores_child_order(self):
        t1 = parse_newick("((a,b),c);")
        t2 = parse_newick("(c,(b,a));")
        assert t1.topology_key() == t2.topology_key()

    def test_key_distinguishes_shapes(self):
        t1 = parse_newick("((a,b),(c,d));")
        t2 = parse_newick("(((a,b),c),d);")
        assert t1.topology_key() != t2.topology_key()

    def test_key_ignores_lengths(self):
        t1 = parse_newick("((a:1,b:2),c:3);")
        t2 = parse_newick("((a:9,b:8),c:7);")
        assert t1.topology_key() == t2.topology_key()
