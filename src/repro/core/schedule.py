"""Mapping trees onto operation schedules.

The likelihood of a tree requires one operation per internal node
(``n - 1`` for ``n`` tips, paper §IV-B). *Which order* those operations
are submitted in determines how much concurrency the engine can discover:

* :func:`postorder_operations` — the prevailing serial order (paper
  Fig. 2 upper / Fig. 3 upper).
* :func:`reverse_levelorder_operations` — deepest-level-first, the order
  BEAGLE requires for its dependency-aware batching (Fig. 2 lower).

Buffer-index conventions follow :meth:`repro.trees.tree.Tree.assign_indices`:
tip buffers ``0..n-1``, internal partials buffers ``n..2n-2``, and the
transition matrix of a branch shares the buffer index of its child node.
Scale-buffer index of an internal node is ``buffer − n`` when manual
scaling is on.

The *pre-order* (upper-partial) pass reuses the same :class:`Operation`
shape over an extended buffer space: the upper partials of node ``i``
live at buffer ``upper_base(tree) + i`` where ``upper_base`` is ``2n−1``
(one upper slot per node, after every lower buffer). An upper operation's
``child1`` is the sibling's *lower* buffer, its ``child2`` the parent's
*upper* buffer (for a root child's children, the other root child's
lower buffer, which that upper buffer copies), so the greedy set builder
and the dataflow verifier work unchanged on the combined index space. The merged pulley edge (the two
root branches of the unrooted view) stores its transition matrix under
the root's own buffer index — the one matrix slot a rooted post-order
plan never uses.
"""

from __future__ import annotations

from typing import List, Tuple

from ..beagle.operations import Operation
from ..trees import Tree
from ..trees.traversal import levelorder, reverse_levelorder

__all__ = [
    "operation_for_node",
    "postorder_operations",
    "reverse_levelorder_operations",
    "matrix_updates",
    "upper_base",
    "upper_operation_for_node",
    "preorder_upper_operations",
    "upper_seeds",
    "pulley_matrix_update",
]


def operation_for_node(tree: Tree, node, *, scaling: bool = False) -> Operation:
    """The :class:`Operation` computing one internal node's partials."""
    if node.is_tip:
        raise ValueError("tips have no partial-likelihood operation")
    if len(node.children) != 2:
        raise ValueError("operations require a bifurcating tree")
    left, right = node.children
    dest = tree.index_of(node)
    return Operation(
        destination=dest,
        child1=tree.index_of(left),
        child1_matrix=tree.index_of(left),
        child2=tree.index_of(right),
        child2_matrix=tree.index_of(right),
        destination_scale=(dest - tree.n_tips) if scaling else -1,
    )


def postorder_operations(tree: Tree, *, scaling: bool = False) -> List[Operation]:
    """Operations in post-order: strictly serial dependencies."""
    return [
        operation_for_node(tree, node, scaling=scaling)
        for node in tree.root.traverse_postorder()
        if not node.is_tip
    ]


def reverse_levelorder_operations(
    tree: Tree, *, scaling: bool = False
) -> List[Operation]:
    """Operations in reverse level-order (BEAGLE's required order)."""
    return [
        operation_for_node(tree, node, scaling=scaling)
        for node in reverse_levelorder(tree)
        if not node.is_tip
    ]


def matrix_updates(tree: Tree) -> tuple[List[int], List[float]]:
    """The (matrix index, branch length) pairs for every non-root node.

    Feed directly to
    :meth:`repro.beagle.instance.BeagleInstance.update_transition_matrices`.
    """
    indices: List[int] = []
    lengths: List[float] = []
    for node in tree.root.traverse_postorder():
        if node.parent is None:
            continue
        indices.append(tree.index_of(node))
        lengths.append(node.length)
    return indices, lengths


def upper_base(tree: Tree) -> int:
    """First upper-partial buffer index: one past the lower buffers.

    The upper partials of the node with buffer index ``i`` live at
    ``upper_base(tree) + i``; offsetting keeps the two banks disjoint in
    one integer space so dependency analysis over mixed operations needs
    no out-of-band bank tag.
    """
    return 2 * tree.n_tips - 1


def upper_operation_for_node(tree: Tree, node) -> Operation:
    """The :class:`Operation` computing one node's *upper* partials.

    The upper partials of ``node`` are the far-side half-tree partials of
    its branch — exactly the ``V`` buffer the per-edge rerooted evaluation
    computes — built from the sibling's lower partials (through the
    sibling's own matrix) and the parent's upper partials (through the
    parent's branch matrix). When the parent is a root child its upper
    partials are the other root child's lowers, which are read directly
    through the merged pulley matrix. Root children themselves are
    *seeded*, not computed (see :func:`upper_seeds`).
    """
    parent = node.parent
    if parent is None:
        raise ValueError("the root has no branch, hence no upper partials")
    if parent.parent is None:
        raise ValueError(
            "root children are seeded, not computed; see upper_seeds()"
        )
    sibling = node.sibling()
    if sibling is None:
        raise ValueError("upper operations require a bifurcating tree")
    base = upper_base(tree)
    sibling_index = tree.index_of(sibling)
    parent_index = tree.index_of(parent)
    if parent.parent.parent is None and len(tree.root.children) == 2:
        # Parent is a root child: its upward branch is the merged pulley
        # edge, whose matrix lives under the root's buffer index, and its
        # upper partials are a copy of the other root child's lowers.
        # Read those lowers directly: a compact-code tip then goes through
        # the tip gather, as in the rerooted evaluation, rather than as
        # dense partials through a matmul (an unknown code's all-ones row
        # times P sums a row of P, which need not be exactly 1).
        parent_matrix = tree.index_of(tree.root)
        parent_source = tree.index_of(parent.sibling())
    else:
        parent_matrix = parent_index
        parent_source = base + parent_index
    return Operation(
        destination=base + tree.index_of(node),
        child1=sibling_index,
        child1_matrix=sibling_index,
        child2=parent_source,
        child2_matrix=parent_matrix,
        destination_scale=-1,
    )


def preorder_upper_operations(tree: Tree) -> List[Operation]:
    """Upper-partial operations in level order (parents before children).

    One operation per non-root node whose parent is not the root —
    ``2n − 4`` for ``n ≥ 3`` tips — emitted breadth-first so the greedy
    set builder (:func:`repro.core.opsets.build_operation_sets`) groups
    whole levels, mirroring the reroot-aware batching of the post-order
    pass: a shallower (better-rooted) tree yields fewer pre-order sets.
    """
    return [
        upper_operation_for_node(tree, node)
        for node in levelorder(tree)
        if node.parent is not None and node.parent.parent is not None
    ]


def upper_seeds(tree: Tree) -> List[Tuple[int, int]]:
    """``(upper destination, lower source)`` seed pairs for the root children.

    For the pulley-suppressed root the far side of a root child's branch
    is simply its sibling's subtree, so each root child's upper partials
    are a copy of the sibling's lower partials — no matrices involved.
    """
    children = tree.root.children
    if len(children) != 2:
        raise ValueError("upper seeds require a bifurcating root")
    a, b = children
    base = upper_base(tree)
    return [
        (base + tree.index_of(a), tree.index_of(b)),
        (base + tree.index_of(b), tree.index_of(a)),
    ]


def pulley_matrix_update(tree: Tree) -> Tuple[int, float]:
    """The merged pulley edge's ``(matrix index, branch length)`` pair.

    The unrooted view joins the two root children by one edge of length
    ``a.length + b.length``; its transition matrix is stored under the
    root's buffer index — the single matrix slot the rooted post-order
    plan leaves unused.
    """
    children = tree.root.children
    if len(children) != 2:
        raise ValueError("the pulley edge requires a bifurcating root")
    a, b = children
    return tree.index_of(tree.root), float(a.length) + float(b.length)
