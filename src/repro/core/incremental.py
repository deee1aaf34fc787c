"""Incremental (dirty-path) likelihood updates — paper §VIII, factor 2.

Modern inference programs do not recompute the whole tree after every
move: changing one branch length only invalidates the partials of that
branch's *ancestors* (the path up to the root), and programs recompute
exactly that path. The paper's Discussion asks how its concurrency gains
interact with such partial updates; this module implements them and
exposes the quantitative link to rerooting:

* the update path from a random branch to the root has expected length
  O(n) in a pectinate tree but O(log n)–O(ceil(n/2)) after balanced
  rerooting — so **rerooting also shrinks incremental updates**, not just
  full traversals (measured in ``benchmarks/bench_incremental_updates.py``);
* when several branches change at once (e.g. an NNI plus a multiplier),
  the union of their dirty paths still forms independent operation sets
  that batch into few launches.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from ..beagle.operations import Operation
from ..trees import Tree
from ..trees.node import Node
from .opsets import build_operation_sets
from .planner import ExecutionPlan
from .schedule import operation_for_node

__all__ = [
    "dirty_nodes",
    "incremental_operation_sets",
    "incremental_plan",
]


def dirty_nodes(tree: Tree, changed: Iterable[Node]) -> List[Node]:
    """Internal nodes whose partials a set of branch changes invalidates.

    Changing the branch above ``node`` invalidates ``node.parent`` and all
    its ancestors. The union over all changed nodes is returned in
    reverse level-order (deepest first) so the greedy set builder can
    batch updates from disjoint paths.

    Each ancestor's depth comes from its own walk, counted down from the
    root's 0 or from the depth of the marked node where the walk stopped,
    so the cost is the length of the paths, not the size of the tree.
    """
    marked: Dict[int, Node] = {}
    depths: Dict[int, int] = {}
    for node in changed:
        path: List[Node] = []
        ancestor = node.parent
        while ancestor is not None and id(ancestor) not in marked:
            marked[id(ancestor)] = ancestor
            path.append(ancestor)
            ancestor = ancestor.parent
        # Everything above a marked node is already marked.
        top = -1 if ancestor is None else depths[id(ancestor)]
        for offset, walked in enumerate(reversed(path), start=1):
            depths[id(walked)] = top + offset
    return sorted(marked.values(), key=lambda n: -depths[id(n)])


def _operation(tree: Tree, node: Node, scaling: bool, known) -> Operation:
    """``node``'s operation: the known one while it still reads the
    node's children, else a new one."""
    index = tree.index_of
    op = known.get(index(node)) if known else None
    if op is not None and (op.destination_scale >= 0) == scaling:
        left, right = node.children
        if (op.child1, op.child2) == (index(left), index(right)):
            return op
    return operation_for_node(tree, node, scaling=scaling)


def incremental_operation_sets(
    tree: Tree,
    changed: Iterable[Node],
    *,
    scaling: bool = False,
    verify: bool = False,
    operations: Optional[Mapping[int, Operation]] = None,
) -> List[List[Operation]]:
    """Greedy operation sets recomputing only the dirty ancestors.

    ``operations`` maps destinations to a full plan's operations: a dirty
    node whose children are unchanged reuses its own, so only the nodes
    an NNI rewired get new ones.

    With ``verify=True`` the sets are statically checked by
    :func:`repro.analysis.verify_operation_sets` before being returned:
    partials *outside* the dirty path are assumed live from the previous
    full evaluation, so the analyzer proves exactly the incremental
    contract — every dirty buffer is recomputed before any dirty reader
    consumes it. Raises :class:`repro.analysis.PlanVerificationError` on
    a hazard.
    """
    ops = [
        _operation(tree, node, scaling, operations)
        for node in dirty_nodes(tree, changed)
    ]
    sets = build_operation_sets(ops)
    if verify:
        # Imported lazily: repro.analysis depends on repro.core.
        from ..analysis.config import BufferConfig
        from ..analysis.verifier import verify_operation_sets

        config = BufferConfig.for_tree(tree, scaling=scaling)
        clean = set(range(tree.n_tips, config.n_buffers))
        clean -= {op.destination for op in ops}
        verify_operation_sets(
            sets,
            config,
            assume_valid=clean,
            root_buffer=tree.index_of(tree.root),
        ).raise_if_errors()
    return sets


def incremental_plan(
    tree: Tree,
    changed: Iterable[Node],
    *,
    matrices_for: Optional[Iterable[Node]] = None,
    scaling: bool = False,
    verify: bool = False,
    operations: Optional[Mapping[int, Operation]] = None,
) -> ExecutionPlan:
    """A first-class :class:`~repro.core.planner.ExecutionPlan` covering
    only the dirty root-ward path of a set of changed nodes.

    The plan's operation sets recompute exactly the ancestors invalidated
    by ``changed`` (reverse level-order, greedily batched — the same
    reroot-aware scheduling as full plans, so a rerooted tree yields a
    shorter, wider dirty path). Its matrix updates cover ``matrices_for``
    (default: the changed nodes themselves), and ``incremental=True``
    tells :func:`~repro.core.planner.execute_plan` to reuse the partials
    left by the previous full evaluation instead of invalidating them.

    Indices must already be assigned (by the full plan that preceded this
    one); this function never reassigns them, so buffer numbering stays
    stable across the full/incremental sequence.

    With ``verify=True`` the dirty-path schedule is proven safe by the
    static analyzer under the incremental contract (clean buffers assumed
    live); see :func:`incremental_operation_sets`, also for ``operations``.
    """
    changed = list(changed)
    sets = incremental_operation_sets(
        tree, changed, scaling=scaling, verify=verify, operations=operations
    )
    targets = changed if matrices_for is None else list(matrices_for)
    indices: List[int] = []
    lengths: List[float] = []
    for node in targets:
        if node.parent is None:
            raise ValueError("the root has no branch to update")
        indices.append(tree.index_of(node))
        lengths.append(float(node.length))
    return ExecutionPlan(
        tree=tree,
        operation_sets=sets,
        matrix_indices=indices,
        branch_lengths=lengths,
        root_buffer=tree.index_of(tree.root),
        scaling=scaling,
        mode="incremental",
        incremental=True,
    )
