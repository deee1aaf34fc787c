"""Unit tests for tree-to-operation scheduling."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.analysis import BufferConfig, analyze_operation_sets
from repro.core import (
    matrix_updates,
    operation_for_node,
    postorder_operations,
    reverse_levelorder_operations,
)
from repro.core.schedule import preorder_upper_operations, upper_operation_for_node
from repro.trees import balanced_tree, parse_newick, pectinate_tree
from repro.trees.node import Node
from repro.trees.traversal import levelorder
from tests.strategies import tree_strategy


class TestOperationForNode:
    def test_indices(self):
        t = parse_newick("((a:0.1,b:0.2):0.3,c:0.4);")
        t.assign_indices()
        inner = t.find("a").parent
        op = operation_for_node(t, inner)
        assert op.destination == t.index_of(inner)
        assert {op.child1, op.child2} == {t.index_of(t.find("a")), t.index_of(t.find("b"))}
        assert op.child1_matrix == op.child1
        assert op.destination_scale == -1

    def test_scaling_index(self):
        t = balanced_tree(4)
        t.assign_indices()
        node = t.internals()[0]
        op = operation_for_node(t, node, scaling=True)
        assert op.destination_scale == op.destination - t.n_tips

    def test_rejects_tips_and_multifurcations(self):
        t = parse_newick("((a,b),c);")
        t.assign_indices()
        with pytest.raises(ValueError):
            operation_for_node(t, t.find("a"))
        m = parse_newick("(a,b,c);")
        m.assign_indices()
        with pytest.raises(ValueError):
            operation_for_node(m, m.root)


class TestSchedules:
    @given(tree_strategy(min_tips=2, max_tips=30))
    def test_counts(self, tree):
        assert len(postorder_operations(tree)) == tree.n_tips - 1
        assert len(reverse_levelorder_operations(tree)) == tree.n_tips - 1

    @given(tree_strategy(min_tips=2, max_tips=30))
    def test_both_orders_executable(self, tree):
        # One operation per set: every read is of a tip or of a buffer an
        # earlier operation wrote.
        config = BufferConfig.for_tree(tree)
        root = tree.index_of(tree.root)
        for ops in (postorder_operations(tree), reverse_levelorder_operations(tree)):
            sets = [[op] for op in ops]
            assert analyze_operation_sets(sets, config, root_buffer=root) == []

    @given(tree_strategy(min_tips=2, max_tips=30))
    def test_same_operation_multiset(self, tree):
        post = {op.destination: op for op in postorder_operations(tree)}
        rlo = {op.destination: op for op in reverse_levelorder_operations(tree)}
        assert post == rlo

    def test_postorder_root_last(self):
        t = balanced_tree(8)
        ops = postorder_operations(t)
        assert ops[-1].destination == t.index_of(t.root)

    def test_reverse_levelorder_deepest_first(self):
        t = pectinate_tree(6)
        ops = reverse_levelorder_operations(t)
        # The deepest cherry comes first, the root last.
        assert ops[-1].destination == t.index_of(t.root)


class TestMatrixUpdates:
    @given(tree_strategy(min_tips=2, max_tips=25))
    def test_one_entry_per_edge(self, tree):
        indices, lengths = matrix_updates(tree)
        assert len(indices) == 2 * tree.n_tips - 2
        assert len(indices) == len(set(indices))  # no duplicates

    def test_lengths_match_nodes(self):
        t = parse_newick("((a:0.1,b:0.2):0.3,c:0.4);")
        t.assign_indices()
        indices, lengths = matrix_updates(t)
        by_index = dict(zip(indices, lengths))
        assert by_index[t.index_of(t.find("a"))] == pytest.approx(0.1)
        assert by_index[t.index_of(t.find("c"))] == pytest.approx(0.4)


class TestUpperOperations:
    @given(tree_strategy(min_tips=3, max_tips=25))
    def test_pass_matches_per_node_operations(self, tree):
        tree.assign_indices()
        expected = [
            upper_operation_for_node(tree, node)
            for node in levelorder(tree)
            if node.parent is not None and node.parent.parent is not None
        ]
        assert preorder_upper_operations(tree) == expected
        assert len(expected) == 2 * tree.n_tips - 4

    def test_pass_counts_tips_once(self, monkeypatch):
        # Counting the tips walks the whole tree; once per node made the
        # pass quadratic in the tip count. The pass may walk the tree at
        # most once (to number the nodes and count the tips together).
        tree = balanced_tree(64)
        tree.invalidate_indices()
        walks = []
        for name in ("traverse_postorder", "tips"):
            method = getattr(Node, name)

            def counting(node, _method=method, _name=name):
                walks.append(_name)
                return _method(node)

            monkeypatch.setattr(Node, name, counting)
        ops = preorder_upper_operations(tree)
        assert len(ops) == 2 * 64 - 4
        assert len(walks) <= 1, walks
