"""MCMC proposal moves over trees.

The two classic moves a MrBayes-style sampler needs:

* :func:`random_nni` — nearest-neighbour interchange around a random
  *unrooted-internal* edge (topology move). Symmetric, Hastings ratio 1.
* :func:`multiply_branch` — multiplier (log-uniform scaling) of one random
  branch length. Hastings ratio equals the multiplier.

Both return *new* trees; inputs are never mutated, so a rejected proposal
needs no undo bookkeeping. The :class:`Move` functions
(:func:`branch_length_move`, :func:`nni_move`, :func:`nni_move_at`) are
their in-place counterparts for the incremental sampler: they mutate the
working tree and return an ``undo`` that restores it exactly.

A subtlety worth documenting: in a rooted representation of an unrooted
tree the root is a "pulley" — the edge between the root's two children is
a single edge of the unrooted topology. Swapping a subtree across the
root (child of root-child A with root-child B itself) does **not** change
the unrooted topology, so a correct NNI around the pulley edge swaps a
child of A with a child of B instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..trees import Tree
from ..trees.node import Node
from ..trees.tree import new_topology_epoch

__all__ = [
    "Proposal",
    "Move",
    "random_nni",
    "random_spr",
    "multiply_branch",
    "branch_length_move",
    "nni_move",
    "nni_move_count",
    "nni_move_at",
    "internal_edges",
    "nni_candidates",
]


@dataclass(frozen=True)
class Proposal:
    """A proposed tree plus the log Hastings ratio of the move."""

    tree: Tree
    log_hastings: float
    kind: str


def internal_edges(tree: Tree) -> List[Node]:
    """Regular internal edges: internal child with an internal, non-root
    parent. The root's pulley edge is reported separately by
    :func:`nni_candidates`."""
    root = tree.root
    return [
        node
        for node in tree.internals()
        if node.parent is not None and node.parent is not root
    ]


def nni_candidates(tree: Tree) -> Tuple[List[Node], bool]:
    """NNI-eligible edges of the unrooted topology.

    Returns
    -------
    (regular, has_pulley)
        ``regular`` are internal children below internal non-root parents;
        ``has_pulley`` is True when the edge through the root (both root
        children internal) is itself an internal edge. Together they
        number ``n − 3`` for a bifurcating tree of ``n ≥ 4`` tips — the
        internal-edge count of the unrooted topology.

    Each call builds fresh lists; the in-place NNI moves share one result
    per topology epoch through :meth:`~repro.trees.Tree.derived`.
    """
    regular = internal_edges(tree)
    root = tree.root
    has_pulley = len(root.children) == 2 and all(
        not c.is_tip for c in root.children
    )
    return regular, has_pulley


def _swap(parent_a: Node, child_a: Node, parent_b: Node, child_b: Node) -> None:
    """Exchange two subtrees between their parents (branch lengths travel
    with their subtree, keeping the move symmetric)."""
    pos_a = parent_a.children.index(child_a)
    pos_b = parent_b.children.index(child_b)
    parent_a.remove_child(child_a)
    parent_b.remove_child(child_b)
    child_b.parent = parent_a
    parent_a.children.insert(pos_a, child_b)
    child_a.parent = parent_b
    parent_b.children.insert(pos_b, child_a)


def _exchange(
    tree: Tree, parent_a: Node, child_a: Node, parent_b: Node, child_b: Node
) -> Callable[[], None]:
    """Apply an in-place NNI exchange and return its undo.

    The exchange starts a new topology epoch but keeps the frozen index
    map. The undo puts back the epoch from before the exchange when the
    tree still holds the exchange's own epoch, so a rejected move keeps
    the tree's cached post-order; after any other topology edit it takes
    a fresh epoch.
    """
    before = tree.topology_epoch
    _swap(parent_a, child_a, parent_b, child_b)
    after = tree.topology_epoch = new_topology_epoch()

    def undo() -> None:
        _swap(parent_a, child_b, parent_b, child_a)
        restored = tree.topology_epoch == after
        tree.topology_epoch = before if restored else new_topology_epoch()

    return undo


@dataclass(frozen=True)
class Move:
    """An **in-place** tree move that declares exactly what it touched.

    Unlike :class:`Proposal` (which copies the tree), a move mutates the
    working tree directly and carries everything the incremental
    evaluation path needs:

    Attributes
    ----------
    kind:
        ``"branch"`` or ``"nni"``.
    log_hastings:
        Log Hastings ratio of the move.
    touched:
        Nodes whose root-ward paths are dirtied — the input to
        :func:`repro.core.incremental.dirty_nodes`. For an NNI these are
        the two exchanged subtrees (in their *new* positions); for a
        branch-length change, the node below the scaled branch.
    changed_edges:
        Nodes whose branch (the edge above them) changed length — the
        transition matrices to recompute. NNI moves change no lengths
        (lengths travel with their subtree), so this is empty for them.
    undo:
        Zero-argument callable restoring the tree exactly (topology,
        child positions and branch lengths), so a rejected proposal
        leaves no trace.
    """

    kind: str
    log_hastings: float
    touched: List[Node] = field(default_factory=list)
    changed_edges: List[Node] = field(default_factory=list)
    undo: Callable[[], None] = lambda: None


def branch_length_move(
    tree: Tree,
    rng: np.random.Generator,
    *,
    tuning: float = 2.0 * math.log(1.2),
) -> Move:
    """In-place multiplier proposal on one random branch.

    Draws exactly the same random variates as :func:`multiply_branch`
    (edge pick, then multiplier), so a sampler switching between the
    copy-based and in-place proposals follows the same trajectory.
    """
    edges = tree.edges()
    edge = edges[int(rng.integers(len(edges)))]
    m = math.exp(tuning * (float(rng.random()) - 0.5))
    old_length = edge.length
    edge.length = max(edge.length * m, 1e-12)

    def undo() -> None:
        edge.length = old_length

    return Move(
        kind="branch",
        log_hastings=math.log(m),
        touched=[edge],
        changed_edges=[edge],
        undo=undo,
    )


def nni_move(tree: Tree, rng: np.random.Generator) -> Optional[Move]:
    """In-place nearest-neighbour interchange around a random internal edge.

    Mutates the tree with the position-preserving subtree exchange of
    :func:`random_nni` (same random variates, same resulting topology)
    but keeps node identities intact, so a frozen node→buffer index map
    stays valid and only the exchanged subtrees' root-ward paths need
    recomputation. Returns ``None`` when the tree has no internal edge.
    """
    regular, has_pulley = tree.derived(nni_candidates)
    total = len(regular) + (1 if has_pulley else 0)
    if total == 0:
        return None
    pick = int(rng.integers(total))
    if pick < len(regular):
        v = regular[pick]
        u = v.parent
        assert u is not None
        sibling = v.sibling()
        assert sibling is not None
        child = v.children[int(rng.integers(2))]
        undo = _exchange(tree, v, child, u, sibling)
        touched = [child, sibling]
    else:
        a, b = tree.root.children
        child_a = a.children[int(rng.integers(2))]
        child_b = b.children[int(rng.integers(2))]
        undo = _exchange(tree, a, child_a, b, child_b)
        touched = [child_a, child_b]
    return Move(kind="nni", log_hastings=0.0, touched=touched, undo=undo)


def nni_move_count(tree: Tree) -> int:
    """Number of in-place NNI moves :func:`nni_move_at` can produce.

    Equals the size of the :func:`repro.inference.search.nni_neighbors`
    neighbourhood: two interchanges per regular internal edge plus two
    across the root pulley when that edge is internal.
    """
    regular, has_pulley = tree.derived(nni_candidates)
    return 2 * len(regular) + (2 if has_pulley else 0)


def nni_move_at(tree: Tree, index: int) -> Move:
    """The ``index``-th in-place NNI move, in the exact order of
    :func:`repro.inference.search.nni_neighbors`.

    Regular edges come first (two interchanges each: the edge's flat
    index is ``index // 2``, the exchanged child ``index % 2``), then the
    two pulley interchanges. Applying the move and copying the tree
    yields the same topology as ``nni_neighbors(tree)[index]``, which is
    what lets the incremental hill-climb visit the same trees as the
    copy-based one.
    """
    regular, has_pulley = tree.derived(nni_candidates)
    n_regular = 2 * len(regular)
    if not 0 <= index < n_regular + (2 if has_pulley else 0):
        raise IndexError(f"NNI move index {index} out of range")
    if index < n_regular:
        v = regular[index // 2]
        u = v.parent
        assert u is not None
        sibling = v.sibling()
        assert sibling is not None
        child = v.children[index % 2]
        undo = _exchange(tree, v, child, u, sibling)
        touched = [child, sibling]
    else:
        a, b = tree.root.children
        child_a = a.children[index - n_regular]
        child_b = b.children[0]
        undo = _exchange(tree, a, child_a, b, child_b)
        touched = [child_a, child_b]
    return Move(kind="nni", log_hastings=0.0, touched=touched, undo=undo)


def random_nni(tree: Tree, rng: np.random.Generator) -> Optional[Proposal]:
    """Nearest-neighbour interchange around a uniform random internal edge.

    Returns ``None`` when the tree has no internal edge (n ≤ 3), mirroring
    how samplers skip topology moves on tiny trees.
    """
    duplicate = tree.copy()
    regular, has_pulley = nni_candidates(duplicate)
    total = len(regular) + (1 if has_pulley else 0)
    if total == 0:
        return None
    pick = int(rng.integers(total))
    if pick < len(regular):
        v = regular[pick]
        u = v.parent
        assert u is not None
        sibling = v.sibling()
        assert sibling is not None
        child = v.children[int(rng.integers(2))]
        _swap(v, child, u, sibling)
    else:
        a, b = duplicate.root.children
        child_a = a.children[int(rng.integers(2))]
        child_b = b.children[int(rng.integers(2))]
        _swap(a, child_a, b, child_b)
    duplicate.invalidate_indices()
    return Proposal(tree=duplicate, log_hastings=0.0, kind="nni")


def multiply_branch(
    tree: Tree, rng: np.random.Generator, *, tuning: float = 2.0 * math.log(1.2)
) -> Proposal:
    """Scale one random branch by ``exp(tuning · (u − ½))``.

    The classic multiplier proposal; its Hastings ratio is the multiplier
    ``m`` itself (log-Hastings ``log m``).
    """
    duplicate = tree.copy()
    edges = duplicate.edges()
    edge = edges[int(rng.integers(len(edges)))]
    m = math.exp(tuning * (float(rng.random()) - 0.5))
    edge.length = max(edge.length * m, 1e-12)
    duplicate.invalidate_indices()
    return Proposal(tree=duplicate, log_hastings=math.log(m), kind="branch")


def _subtree_node_ids(node: Node) -> set:
    return {id(n) for n in node.traverse_preorder()}


def random_spr(tree: Tree, rng: np.random.Generator) -> Optional[Proposal]:
    """Subtree prune-and-regraft with a uniform reattachment point.

    A non-root subtree is pruned (its parent spliced out, the sibling
    absorbing the parent's branch), then regrafted onto a uniformly
    chosen remaining branch at a uniform position along it. The forward
    proposal density includes ``1 / L_target`` for the uniform attachment
    point, so the log Hastings ratio is
    ``log(L_target / L_merged_source)`` — the standard correction for
    uniform-reattachment SPR.

    Returns ``None`` for trees too small to admit a non-trivial SPR
    (fewer than 4 tips).
    """
    if tree.n_tips < 4:
        return None
    duplicate = tree.copy()
    root = duplicate.root

    # Prune candidates: any non-root node whose parent is not the root
    # with a tip sibling... in fact any non-root node works as long as
    # the remainder keeps >= 2 nodes and an edge to regraft onto.
    candidates = [n for n in root.traverse_postorder() if n.parent is not None]
    prune = candidates[int(rng.integers(len(candidates)))]
    parent = prune.parent
    assert parent is not None
    sibling = prune.sibling()
    if sibling is None:
        return None

    # Detach: splice parent out; sibling absorbs the parent's branch.
    merged_length = sibling.length + (parent.length if parent.parent else 0.0)
    grandparent = parent.parent
    parent.remove_child(prune)
    parent.remove_child(sibling)
    if grandparent is None:
        # Parent was the root: the sibling becomes the new root.
        sibling.length = 0.0
        merged_length = max(sibling.length, 1e-12)
        duplicate.root = sibling
        new_root_case = True
    else:
        position = grandparent.children.index(parent)
        grandparent.remove_child(parent)
        sibling.length = merged_length
        sibling.parent = grandparent
        grandparent.children.insert(position, sibling)
        new_root_case = False

    # Regraft target: any branch of the remaining tree.
    forbidden = _subtree_node_ids(prune)
    targets = [
        n
        for n in duplicate.root.traverse_postorder()
        if n.parent is not None and id(n) not in forbidden
    ]
    if not targets:
        return None
    target = targets[int(rng.integers(len(targets)))]
    target_length = max(target.length, 1e-12)
    split = float(rng.random())

    target_parent = target.parent
    assert target_parent is not None
    position = target_parent.children.index(target)
    target_parent.remove_child(target)
    junction = Node(None, target_length * (1.0 - split))
    target.length = target_length * split
    junction.add_child(target)
    junction.add_child(prune)
    junction.parent = target_parent
    target_parent.children.insert(position, junction)

    duplicate.invalidate_indices()
    if not new_root_case:
        log_hastings = math.log(target_length / max(merged_length, 1e-12))
    else:
        log_hastings = 0.0
    return Proposal(tree=duplicate, log_hastings=log_hastings, kind="spr")
