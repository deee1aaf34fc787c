"""Operation-set construction — the paper's central quantity.

BEAGLE batches partial-likelihood operations into *operation sets*, each
executed as one concurrent (multi-operation) kernel launch. The grouping
algorithm (paper §VI-A) is greedy over the submission order:

    "BEAGLE adds each consecutive operation to a set until it finds an
    operation that is dependent on the result of a previous operation in
    the set. The library then starts a new operation set."

:func:`build_operation_sets` reproduces that algorithm exactly.
:func:`count_operation_sets` applies it to a tree via the reverse
level-order schedule — the number it returns is the "number of kernel
launches" plotted in the paper's Figure 4.

The library also provides the *optimal* grouping
(:func:`level_schedule`): compute a node as soon as all of its children
are available, grouping by topological height. Its set count —
``node_heights(root)`` — is a lower bound for any submission order, and
the two are compared in the scheduling ablation benchmark.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..beagle.operations import Operation
from ..trees import Tree
from ..trees.traversal import node_heights
from .schedule import operation_for_node, reverse_levelorder_operations

__all__ = [
    "build_operation_sets",
    "count_operation_sets",
    "level_schedule",
    "min_operation_sets",
    "set_index_by_node",
]


def build_operation_sets(operations: Sequence[Operation]) -> List[List[Operation]]:
    """Greedy BEAGLE batching of an operation sequence.

    Scans the sequence in order, accumulating operations into the current
    set; an operation that reads any destination already in the set closes
    it and opens a new one. Every returned set is internally independent
    (no set member reads another member's destination) by construction.
    """
    sets: List[List[Operation]] = []
    current: List[Operation] = []
    current_destinations: set[int] = set()
    for op in operations:
        # op.reads(), spelled out: this loop runs once per operation.
        if op.child1 in current_destinations or op.child2 in current_destinations:
            sets.append(current)
            current = []
            current_destinations = set()
        current.append(op)
        current_destinations.add(op.destination)
    if current:
        sets.append(current)
    return sets


def count_operation_sets(tree: Tree) -> int:
    """Kernel launches needed for ``tree`` with subtree concurrency.

    This is the paper's per-tree measurement: greedy sets over the
    reverse level-order schedule. Equals ``ceil(log2 n)`` for perfectly
    balanced trees and ``n − 1`` for pectinate trees.
    """
    if tree.n_tips < 2:
        return 0
    return len(build_operation_sets(reverse_levelorder_operations(tree)))


def level_schedule(tree: Tree, *, scaling: bool = False) -> List[List[Operation]]:
    """Optimal (ASAP) schedule: group internal nodes by topological height.

    A node of height ``h`` (tips are height 0) only depends on nodes of
    smaller height, so all nodes of equal height form an independent set,
    and the number of sets — the root's height — is the minimum achievable
    by *any* grouping.
    """
    heights = node_heights(tree)
    by_height: Dict[int, List[Operation]] = {}
    for node in tree.root.traverse_postorder():
        if node.is_tip:
            continue
        op = operation_for_node(tree, node, scaling=scaling)
        by_height.setdefault(heights[id(node)], []).append(op)
    return [by_height[h] for h in sorted(by_height)]


def min_operation_sets(tree: Tree) -> int:
    """Lower bound on operation sets for this rooting: the root's height."""
    if tree.n_tips < 2:
        return 0
    return node_heights(tree)[id(tree.root)]


def set_index_by_node(tree: Tree) -> Dict[int, int]:
    """Map ``id(internal node) -> operation-set index`` (greedy grouping).

    Used by :func:`repro.trees.render.render_schedule` to draw the
    Figure 2/3 style diagrams.
    """
    ops = reverse_levelorder_operations(tree)
    sets = build_operation_sets(ops)
    dest_to_set = {
        op.destination: k for k, group in enumerate(sets) for op in group
    }
    return {
        id(node): dest_to_set[tree.index_of(node)]
        for node in tree.internals()
    }
