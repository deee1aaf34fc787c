"""Rooted bifurcating tree container with BEAGLE-style buffer indexing.

A :class:`Tree` owns a root :class:`~repro.trees.node.Node` and provides the
index maps the likelihood engine needs: tips are numbered ``0 .. n-1`` (in
left-to-right order unless explicit names are mapped) and internal nodes
``n .. 2n-2`` in operation-set order (:meth:`Tree.assign_indices`),
matching the partials-buffer layout used by the BEAGLE library. Every
child's index is below its parent's, and the root's is the highest.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .node import Node

__all__ = ["Tree", "Edge", "new_topology_epoch"]

#: One counter for every tree, so an epoch a move restores can never be
#: issued again to a different topology.
_epochs = itertools.count(1)


def new_topology_epoch() -> int:
    """A topology epoch no tree has held before."""
    return next(_epochs)

#: An edge is identified by its child endpoint: the branch from
#: ``node.parent`` down to ``node``. The root has no edge.
Edge = Node


class Tree:
    """A rooted tree of :class:`Node` objects.

    Parameters
    ----------
    root:
        The root node. For likelihood evaluation the tree must be strictly
        bifurcating (every internal node has two children); use
        :meth:`is_bifurcating` to check and
        :meth:`resolve_multifurcations` to repair parsed input.

    Topology queries (:meth:`nodes`, :meth:`edges`, :meth:`tips`,
    :meth:`internals`, :attr:`n_tips`, :attr:`n_nodes`) read one post-order
    list, walked once per :attr:`topology_epoch`. The epoch changes on
    :meth:`invalidate_indices`, on reassigning :attr:`root` and on the
    in-place NNI moves of :mod:`repro.inference.proposals`; after editing
    a live tree through :class:`Node` directly, call
    :meth:`invalidate_indices`. :meth:`derived` caches other values built
    from the topology the same way.
    """

    #: Identifies the current topology; see the class docstring.
    topology_epoch: int

    def __init__(self, root: Node) -> None:
        if root is None:
            raise ValueError("tree requires a root node")
        self._index: Optional[Dict[int, int]] = None  # id(node) -> buffer index
        self._post: List[Node] = []
        self._post_epoch = 0  # no epoch is 0: the first query walks the tree
        self._n_tips = 0
        # build -> (epoch, value): see derived()
        self._derived: Dict[Callable, Tuple[int, object]] = {}
        self.root = root

    @property
    def root(self) -> Node:
        """The root node; reassigning it starts a new topology epoch."""
        return self._root

    @root.setter
    def root(self, node: Node) -> None:
        """Make ``node`` the root and start a new topology epoch."""
        self._root = node
        self.topology_epoch = new_topology_epoch()

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def _postorder(self) -> List[Node]:
        """The post-order node list of this topology epoch (do not mutate).

        Walked once per epoch; every topology query below derives from it.
        """
        if self._post_epoch != self.topology_epoch:
            self._post = list(self._root.traverse_postorder())
            self._n_tips = sum(1 for n in self._post if not n.children)
            self._post_epoch = self.topology_epoch
        return self._post

    def derived(self, build: Callable[["Tree"], Any]) -> Any:
        """``build(self)``, computed once per topology epoch and shared by
        every caller until the epoch changes (do not mutate it)."""
        epoch, value = self._derived.get(build, (0, None))
        if epoch != self.topology_epoch:
            value = build(self)
            self._derived[build] = (self.topology_epoch, value)
        return value

    def nodes(self) -> List[Node]:
        """All nodes in post-order."""
        return list(self._postorder())

    def tips(self) -> List[Node]:
        """Tips in stable left-to-right order."""
        return [n for n in self._postorder() if not n.children]

    def internals(self) -> List[Node]:
        """Internal nodes in post-order (children before parents)."""
        return [n for n in self._postorder() if n.children]

    def edges(self) -> List[Node]:
        """Every edge, identified by its child node (root excluded)."""
        # The root is last in post-order and is the only parentless node.
        return self._postorder()[:-1]

    @property
    def n_tips(self) -> int:
        self._postorder()
        return self._n_tips

    @property
    def n_nodes(self) -> int:
        return len(self._postorder())

    def is_bifurcating(self) -> bool:
        """True when every internal node has exactly two children."""
        return all(n.is_binary for n in self._postorder())

    def tip_names(self) -> List[str]:
        """Tip labels in left-to-right order."""
        return [t.name or "" for t in self.tips()]

    def find(self, name: str) -> Node:
        """Return the first node with the given name.

        Raises
        ------
        KeyError
            If no node carries the name.
        """
        for node in self.root.traverse_preorder():
            if node.name == name:
                return node
        raise KeyError(name)

    def total_branch_length(self) -> float:
        """Sum of branch lengths over all edges."""
        return sum(e.length for e in self.edges())

    # ------------------------------------------------------------------
    # Buffer indexing (BEAGLE layout)
    # ------------------------------------------------------------------
    def assign_indices(self, tip_order: Optional[Sequence[str]] = None) -> Dict[int, int]:
        """Assign buffer indices: tips first, then internals in set order.

        Parameters
        ----------
        tip_order:
            Optional explicit tip-name ordering; tip ``tip_order[i]`` gets
            index ``i``. Defaults to left-to-right tree order.

        Internal nodes are numbered ``n_tips ..`` in reverse level order
        — deepest level first, left to right within a level — the order
        :func:`~repro.core.schedule.reverse_levelorder_operations` submits
        them in and concurrent plans are cut from. So:

        * every child's index is below its parent's, the property the
          engine's dependency analysis relies on, and the root's index is
          the highest (``2n − 2``);
        * each greedy operation set's destinations are consecutive
          indices (one run), and on a balanced tree the first and second
          children of a set are the alternate indices of the level below
          (two runs of stride 2). Transition matrices share their
          child's index, so they form the same runs. The set executor
          lowers a set whose operands form a few runs to strided views of
          the store (:mod:`repro.beagle.setexec`), and the gradient sweep
          recombines its branches from runs of store rows
          (:mod:`repro.inference.derivatives`).

        Returns
        -------
        dict
            Mapping from ``id(node)`` to buffer index. The same mapping is
            cached and reused by :meth:`index_of`; the default numbering
            is built once per topology epoch and shared (do not mutate
            it).
        """
        if tip_order is None:
            index = self.derived(_numbering)
        else:
            tips = self.tips()
            by_name = {t.name: t for t in tips}
            if set(by_name) != set(tip_order) or len(tip_order) != len(tips):
                raise ValueError("tip_order must be a permutation of tip names")
            index = _numbering(self, [by_name[name] for name in tip_order])
        self._index = index
        return index

    def index_of(self, node: Node) -> int:
        """Buffer index of ``node`` (assigns defaults on first use)."""
        if self._index is None:
            self.assign_indices()
        assert self._index is not None
        return self._index[id(node)]

    def invalidate_indices(self) -> None:
        """Drop cached indices and start a new topology epoch.

        Call it after editing the structure through :class:`Node` directly:
        the post-order every topology query reads is cached per epoch.
        """
        self._index = None
        self.topology_epoch = new_topology_epoch()

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------
    def copy(self) -> "Tree":
        """Deep copy of the tree topology, names and branch lengths."""
        mapping: Dict[int, Node] = {}
        for node in self.root.traverse_postorder():
            clone = Node(node.name, node.length)
            mapping[id(node)] = clone
            for child in node.children:
                clone_child = mapping[id(child)]
                clone_child.parent = clone
                clone.children.append(clone_child)
        return Tree(mapping[id(self.root)])

    # ------------------------------------------------------------------
    # Repair helpers
    # ------------------------------------------------------------------
    def resolve_multifurcations(self) -> None:
        """Resolve every multifurcation into a ladder of binary nodes.

        New internal nodes are inserted with zero-length branches, which
        leaves the likelihood of reversible models unchanged (a zero-length
        branch contributes an identity transition matrix).
        """
        for node in list(self.root.traverse_postorder()):
            while len(node.children) > 2:
                a = node.children.pop()
                b = node.children.pop()
                a.parent = None
                b.parent = None
                joint = Node(None, 0.0)
                joint.add_child(b)
                joint.add_child(a)
                node.add_child(joint)
        self.invalidate_indices()

    def suppress_unary(self) -> None:
        """Splice out internal nodes with a single child.

        The child's branch length absorbs the removed node's branch length,
        preserving path lengths (and hence reversible-model likelihoods).
        """
        changed = True
        while changed:
            changed = False
            for node in list(self.root.traverse_postorder()):
                if node.is_tip or len(node.children) != 1:
                    continue
                child = node.children[0]
                if node.parent is None:
                    # unary root: child becomes the new root
                    node.remove_child(child)
                    child.length = 0.0
                    self.root = child
                else:
                    parent = node.parent
                    pos = parent.children.index(node)
                    parent.remove_child(node)
                    node.remove_child(child)
                    child.length += node.length
                    child.parent = parent
                    parent.children.insert(pos, child)
                changed = True
        self.invalidate_indices()

    # ------------------------------------------------------------------
    # Structural identity
    # ------------------------------------------------------------------
    def topology_key(self) -> Tuple:
        """A hashable canonical key for the *rooted* topology with names.

        Two trees compare equal under this key iff they have the same
        rooted shape and tip labelling (branch lengths ignored). Children
        are sorted by key, so left/right order does not matter.
        """

        keys: Dict[int, Tuple] = {}
        for node in self.root.traverse_postorder():
            if node.is_tip:
                keys[id(node)] = ("tip", node.name)
            else:
                child_keys = sorted(keys[id(c)] for c in node.children)
                keys[id(node)] = ("int", tuple(child_keys))
        return keys[id(self.root)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tree n_tips={self.n_tips} n_nodes={self.n_nodes}>"


def _numbering(tree: Tree, tips: Optional[List[Node]] = None) -> Dict[int, int]:
    """``id(node)`` → buffer index: ``tips`` (default left to right)
    first, then the internal nodes in set order."""
    if tips is None:
        tips = tree.tips()
    index = {id(tip): i for i, tip in enumerate(tips)}
    for i, node in enumerate(tree.derived(_set_order), start=len(tips)):
        index[id(node)] = i
    return index


def _set_order(tree: Tree) -> List[Node]:
    """Internal nodes in reverse level order: deepest level first, each
    level left to right (the order of a forward breadth-first pass)."""
    levels, level = [], [tree.root]
    while level:
        levels.append(level)
        level = [child for node in level for child in node.children]
    return [node for level in reversed(levels) for node in level if node.children]
