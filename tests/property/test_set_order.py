"""Set-ordered buffer numbering as a property.

:meth:`repro.trees.tree.Tree.assign_indices` numbers tips as asked and
internal nodes in reverse level order, the order concurrent plans are
cut from. Over random, Yule, balanced, pectinate and coalescent trees,
as given and rerooted, with and without an explicit tip order: every
child's index is below its parent's, the root's is the last, the tip
order is honoured, and each greedy set's destinations are one run of
consecutive indices. On a perfectly balanced tree each set's first and
second children are two runs of stride 2.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    build_operation_sets,
    optimal_reroot_fast,
    reverse_levelorder_operations,
)
from repro.trees import balanced_tree
from repro.trees.reroot import reroot_above
from tests.strategies import tree_strategy


@given(
    tree_strategy(min_tips=2, max_tips=64),
    st.sampled_from(["as-given", "optimal", "above-a-tip"]),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_set_ordered_numbering(tree, rooting, permute, seed):
    rng = np.random.default_rng(seed)
    if rooting == "optimal" and tree.n_tips >= 3:
        tree = optimal_reroot_fast(tree).tree
    elif rooting == "above-a-tip" and tree.n_tips >= 3:
        tips = tree.tips()
        tree = reroot_above(tree, tips[int(rng.integers(len(tips)))])
    names = tree.tip_names()
    order = [str(n) for n in rng.permutation(names)] if permute else None
    index = tree.assign_indices(order)
    n = tree.n_tips

    # Tips as asked (left to right by default), internals after them.
    for i, name in enumerate(order or names):
        assert index[id(tree.find(name))] == i
    assert sorted(index.values()) == list(range(2 * n - 1))
    # Child < parent, and the root last.
    for node in tree.nodes():
        for child in node.children:
            assert index[id(child)] < index[id(node)]
    assert index[id(tree.root)] == 2 * n - 2
    # Each greedy set's destinations are one run of consecutive indices.
    sets = build_operation_sets(reverse_levelorder_operations(tree))
    covered = []
    for op_set in sets:
        dests = [op.destination for op in op_set]
        assert dests == list(range(dests[0], dests[0] + len(dests)))
        covered += dests
    assert covered == list(range(n, 2 * n - 1))
    # Indices come from the tree's own map; a second call gives the same.
    assert tree.assign_indices(order) == index


@given(st.integers(1, 7))
def test_balanced_sets_split_into_stride_two_sides(levels):
    tree = balanced_tree(2**levels, branch_length=0.1)
    tree.assign_indices()
    for op_set in build_operation_sets(reverse_levelorder_operations(tree)):
        for side in ("child1", "child2"):
            children = [getattr(op, side) for op in op_set]
            assert np.all(np.diff(children) == 2)
            matrices = [getattr(op, side + "_matrix") for op in op_set]
            assert matrices == children
