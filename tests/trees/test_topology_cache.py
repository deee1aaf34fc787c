"""The tree's cached post-order, valid for one topology epoch.

Every topology query of :class:`repro.trees.Tree` (``nodes``, ``edges``,
``tips``, ``internals``, ``n_tips``, ``n_nodes``) and the proposal
helpers built on them (``internal_edges``, ``nni_candidates``) read one
post-order list that is walked once per ``topology_epoch``. The property
below applies random sequences of in-place moves, undos, index
invalidations, repairs of parsed multifurcating input and root
reassignments, and after every step compares each query with a fresh
walk of the nodes; ``dirty_nodes`` is compared with an oracle that takes
depths from a whole-tree breadth-first pass.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core import create_instance, dirty_nodes
from repro.data import random_patterns
from repro.inference import (
    TreeLikelihood,
    branch_length_move,
    internal_edges,
    nni_candidates,
    nni_move,
    nni_move_at,
    nni_move_count,
)
from repro.models import JC69
from repro.trees import Tree, balanced_tree, parse_newick, write_newick
from repro.trees.node import Node
from repro.trees.traversal import node_depths, reverse_levelorder
from tests.strategies import tree_strategy

STEPS = (
    "branch",
    "nni",
    "nni_at",
    "invalidate",
    "move_invalidate_undo",
    "reroot",
)


def _ids(nodes) -> List[int]:
    return [id(n) for n in nodes]


def _dirty_oracle(tree: Tree, changed) -> List[Node]:
    """``dirty_nodes`` as it was written against a whole-tree depth map."""
    marked: Dict[int, Node] = {}
    for node in changed:
        ancestor = node.parent
        while ancestor is not None:
            if id(ancestor) in marked:
                break
            marked[id(ancestor)] = ancestor
            ancestor = ancestor.parent
    depths = node_depths(tree)
    return sorted(marked.values(), key=lambda n: -depths[id(n)])


def assert_queries_fresh(tree: Tree, rng: np.random.Generator) -> None:
    """Every cached query equals a fresh walk of the current nodes."""
    root = tree.root
    post = list(root.traverse_postorder())
    assert _ids(tree.nodes()) == _ids(post)
    assert _ids(tree.edges()) == _ids(n for n in post if n.parent is not None)
    assert _ids(tree.tips()) == _ids(root.tips())
    assert _ids(tree.internals()) == _ids(n for n in post if not n.is_tip)
    assert tree.n_tips == sum(1 for _ in root.tips())
    assert tree.n_nodes == len(post)
    regular = [
        n
        for n in post
        if not n.is_tip and n.parent is not None and n.parent is not root
    ]
    assert _ids(internal_edges(tree)) == _ids(regular)
    cached_regular, has_pulley = nni_candidates(tree)
    assert _ids(cached_regular) == _ids(regular)
    assert has_pulley == (
        len(root.children) == 2 and all(not c.is_tip for c in root.children)
    )
    # The in-place moves' per-epoch copy agrees with the fresh one.
    shared_regular, shared_pulley = tree.derived(nni_candidates)
    assert _ids(shared_regular) == _ids(regular) and shared_pulley == has_pulley
    assert nni_move_count(tree) == 2 * len(regular) + 2 * has_pulley
    # Dirty paths of a random handful of nodes, in the oracle's order.
    picks = rng.choice(len(post), size=min(len(post), 3), replace=False)
    changed = [post[int(i)] for i in picks]
    assert _ids(dirty_nodes(tree, changed)) == _ids(_dirty_oracle(tree, changed))


def _multifurcating_newick(tree: Tree, rng: np.random.Generator) -> str:
    """The tree with some internal edges collapsed and some tips behind a
    unary node, written as Newick."""
    work = tree.copy()
    for node in list(work.root.traverse_postorder()):
        parent = node.parent
        if node.is_tip or parent is None or rng.random() < 0.6:
            continue
        position = parent.children.index(node)
        parent.remove_child(node)
        for offset, child in enumerate(list(node.children)):
            node.remove_child(child)
            child.parent = parent
            parent.children.insert(position + offset, child)
    for tip in [n for n in work.root.traverse_postorder() if n.is_tip]:
        if rng.random() < 0.2:
            parent = tip.parent
            position = parent.children.index(tip)
            parent.remove_child(tip)
            unary = Node(None, 0.05)
            unary.add_child(tip)
            unary.parent = parent
            parent.children.insert(position, unary)
    work.invalidate_indices()
    return write_newick(work)


def _split_tip(tree: Tree, tip: Node) -> None:
    """Give a tip two children: a kept structural edit through ``Node``."""
    tip.add_child(Node(f"{tip.name}.0", 0.1))
    tip.add_child(Node(f"{tip.name}.1", 0.1))
    tip.name = None
    tree.invalidate_indices()


def _apply(tree: Tree, step: str, keep: bool, rng: np.random.Generator) -> None:
    if step in ("branch", "nni", "nni_at"):
        if step == "branch":
            move = branch_length_move(tree, rng)
        elif step == "nni":
            move = nni_move(tree, rng)
        else:
            count = nni_move_count(tree)
            move = nni_move_at(tree, int(rng.integers(count))) if count else None
        if move is None:
            return
        if rng.random() < 0.5:
            assert_queries_fresh(tree, rng)  # a query while the move stands
        if not keep:
            move.undo()
    elif step == "invalidate":
        tree.invalidate_indices()
    elif step == "move_invalidate_undo":
        # An NNI, then invalidate_indices (after a kept edit when `keep`),
        # then the NNI's undo.
        move = nni_move(tree, rng)
        if move is None:
            return
        if rng.random() < 0.5:
            assert_queries_fresh(tree, rng)
        if keep:
            tips = tree.tips()
            _split_tip(tree, tips[int(rng.integers(len(tips)))])
        else:
            tree.invalidate_indices()
        if rng.random() < 0.5:
            assert_queries_fresh(tree, rng)
        move.undo()
    elif step == "reroot":
        # Reassign the root to a new unary node above it, then splice it
        # out again: suppress_unary reassigns the root back.
        wrapper = Node(None, 0.0)
        wrapper.add_child(tree.root)
        tree.root = wrapper
        assert_queries_fresh(tree, rng)
        tree.suppress_unary()
    else:  # pragma: no cover - the strategy draws from STEPS
        raise AssertionError(step)


class TestTopologyCacheProperty:
    @given(
        tree=tree_strategy(min_tips=4, max_tips=40),
        seed=st.integers(0, 2**32 - 1),
        parsed=st.booleans(),
        steps=st.lists(
            st.tuples(st.sampled_from(STEPS), st.booleans()), max_size=12
        ),
    )
    def test_queries_match_fresh_walks(self, tree, seed, parsed, steps):
        rng = np.random.default_rng(seed)
        assert_queries_fresh(tree, rng)
        if parsed:
            tree = parse_newick(_multifurcating_newick(tree, rng))
            assert_queries_fresh(tree, rng)
            tree.resolve_multifurcations()
            assert_queries_fresh(tree, rng)
            tree.suppress_unary()
            assert_queries_fresh(tree, rng)
            assert tree.is_bifurcating()
        for step, keep in steps:
            _apply(tree, step, keep, rng)
            assert_queries_fresh(tree, rng)


def _count_walks(monkeypatch) -> List[int]:
    walks: List[int] = []
    walk = Node.traverse_postorder

    def counting(node):
        walks.append(1)
        return walk(node)

    monkeypatch.setattr(Node, "traverse_postorder", counting)
    return walks


class TestTopologyEpoch:
    def test_rejected_nni_keeps_the_cached_list(self):
        tree = balanced_tree(16)
        cached = tree._postorder()
        epoch = tree.topology_epoch
        move = nni_move_at(tree, 3)
        assert tree.topology_epoch != epoch
        move.undo()
        assert tree.topology_epoch == epoch
        assert tree._postorder() is cached

    def test_rejected_proposal_keeps_the_cached_list(self):
        tree = balanced_tree(16)
        patterns = random_patterns(tree.tip_names(), 8, seed=1)
        evaluator = TreeLikelihood(tree, JC69(), patterns)
        evaluator.log_likelihood()
        cached = tree._postorder()
        for index in range(nni_move_count(tree)):
            evaluator.propose(nni_move_at(tree, index))
            evaluator.reject()
            assert tree._postorder() is cached

    def test_accepted_nni_rebuilds_once(self, monkeypatch):
        tree = balanced_tree(16)
        cached = tree._postorder()
        walks = _count_walks(monkeypatch)
        nni_move_at(tree, 3)
        for _ in range(3):
            tree.nodes(), tree.edges(), tree.tips(), tree.internals()
            tree.n_tips, tree.n_nodes
            nni_candidates(tree)
        assert len(walks) == 1
        assert tree._postorder() is not cached
        assert tree._postorder() != cached

    def test_nni_moves_share_one_candidate_list_per_epoch(self, monkeypatch):
        from repro.inference import proposals

        calls = []
        build = proposals.nni_candidates

        def counting(tree):
            calls.append(1)
            return build(tree)

        monkeypatch.setattr(proposals, "nni_candidates", counting)
        tree = balanced_tree(16)
        count = nni_move_count(tree)
        for index in range(count):
            nni_move_at(tree, index).undo()  # a rejected move restores the epoch
        assert len(calls) == 1
        nni_move_at(tree, 0)  # kept: a new epoch builds once more
        assert nni_move_count(tree) == count
        nni_move_at(tree, 1).undo()
        assert len(calls) == 2
        # The public accessor still hands out lists the caller may edit.
        regular, _ = build(tree)
        regular.clear()
        assert nni_move_count(tree) == count

    def test_undo_after_another_edit_takes_a_fresh_epoch(self):
        tree = balanced_tree(16)
        tree.nodes()
        before = tree.topology_epoch
        move = nni_move_at(tree, 0)
        _split_tip(tree, tree.tips()[-1])
        edited = tree.topology_epoch
        move.undo()
        assert tree.topology_epoch not in (before, edited)
        assert _ids(tree.nodes()) == _ids(tree.root.traverse_postorder())
        assert tree.n_tips == 17

    def test_epochs_are_never_reissued(self):
        first, second = balanced_tree(4), balanced_tree(4)
        epochs = {first.topology_epoch, second.topology_epoch}
        first.invalidate_indices()
        second.root = second.root
        epochs |= {first.topology_epoch, second.topology_epoch}
        assert len(epochs) == 4

    def test_returned_lists_can_be_mutated(self):
        tree = balanced_tree(16)
        for query in (tree.nodes, tree.edges, tree.tips, tree.internals):
            got = query()
            got.reverse()
            got.pop()
            got.append(Node("stray"))
        post = list(tree.root.traverse_postorder())
        assert _ids(tree.nodes()) == _ids(post)
        assert _ids(tree.edges()) == _ids(post[:-1])
        assert tree.n_nodes == 31 and tree.n_tips == 16

    def test_node_edits_need_invalidate_indices(self):
        tree = balanced_tree(8)
        assert tree.n_tips == 8
        _split_tip(tree, tree.tips()[0])
        assert tree.n_tips == 9
        assert _ids(tree.tips()) == _ids(tree.root.tips())


def _fresh_indices(tree: Tree) -> Dict[int, int]:
    """Buffer indices numbered from fresh walks: tips left to right, then
    internal nodes in reverse level order."""
    tips = list(tree.root.tips())
    internals = [n for n in reverse_levelorder(tree) if not n.is_tip]
    index = {id(tip): i for i, tip in enumerate(tips)}
    index.update({id(n): len(tips) + i for i, n in enumerate(internals)})
    return index


class TestIndicesFromTheCachedWalk:
    @given(tree=tree_strategy(min_tips=2, max_tips=40), seed=st.integers(0, 99))
    def test_create_instance_numbers_nodes_as_fresh_walks(self, tree, seed):
        patterns = random_patterns(tree.tip_names(), 4, seed=seed)
        instance = create_instance(tree, JC69(), patterns)
        expected = _fresh_indices(tree)
        nodes = tree.root.traverse_postorder()
        assert {id(n): tree.index_of(n) for n in nodes} == expected
        assert tree.assign_indices() == expected
        for tip in tree.root.tips():
            row = instance._tip_codes_dense[expected[id(tip)]]
            codes = patterns.codes[patterns.taxa.index(tip.name)]
            assert np.array_equal(row, codes)
