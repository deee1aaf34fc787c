"""Unit and property tests for incremental (dirty-path) updates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    dirty_nodes,
    incremental_operation_sets,
    optimal_reroot_fast,
)
from repro.beagle import operations_independent
from repro.data import compress, simulate_alignment
from repro.inference import Move, TreeLikelihood
from repro.models import HKY85, discrete_gamma
from repro.trees import balanced_tree, node_depths, pectinate_tree
from tests.strategies import tree_strategy


class TestDirtyNodes:
    def test_path_to_root(self):
        t = pectinate_tree(6)
        deepest_tip = max(t.tips(), key=lambda n: node_depths(t)[id(n)])
        path = dirty_nodes(t, [deepest_tip])
        # Every internal node is an ancestor of the deepest tip.
        assert len(path) == 5

    def test_balanced_path_is_logarithmic(self):
        t = balanced_tree(64)
        tip = t.tips()[0]
        assert len(dirty_nodes(t, [tip])) == 6  # log2(64)

    def test_union_of_paths(self):
        t = balanced_tree(8)
        tips = t.tips()
        # Two tips in the same cherry share all ancestors.
        same_cherry = dirty_nodes(t, [tips[0], tips[1]])
        assert len(same_cherry) == 3
        # Tips from opposite halves share only the root.
        opposite = dirty_nodes(t, [tips[0], tips[7]])
        assert len(opposite) == 5

    def test_root_child(self):
        t = balanced_tree(4)
        child = t.root.children[0]
        assert dirty_nodes(t, [child]) == [t.root]

    @given(tree_strategy(min_tips=3, max_tips=30), st.integers(0, 10**6))
    def test_order_deepest_first(self, tree, pick):
        edges = tree.edges()
        node = edges[pick % len(edges)]
        path = dirty_nodes(tree, [node])
        depths = node_depths(tree)
        values = [depths[id(n)] for n in path]
        assert values == sorted(values, reverse=True)
        assert path[-1] is tree.root


class TestIncrementalOperationSets:
    @given(tree_strategy(min_tips=3, max_tips=30), st.integers(0, 10**6))
    def test_sets_independent_and_cover_path(self, tree, pick):
        tree.assign_indices()
        edges = tree.edges()
        node = edges[pick % len(edges)]
        sets = incremental_operation_sets(tree, [node])
        assert all(operations_independent(s) for s in sets)
        n_ops = sum(len(s) for s in sets)
        assert n_ops == len(dirty_nodes(tree, [node]))

    def test_single_path_is_serial(self):
        # A lone path has strictly chained dependencies: one op per set.
        t = pectinate_tree(8)
        t.assign_indices()
        deepest = max(t.tips(), key=lambda n: node_depths(t)[id(n)])
        sets = incremental_operation_sets(t, [deepest])
        assert all(len(s) == 1 for s in sets)

    def test_disjoint_paths_batch(self):
        # Changes in opposite halves of a balanced tree produce paths
        # whose same-depth nodes share launches.
        t = balanced_tree(16)
        t.assign_indices()
        tips = t.tips()
        sets = incremental_operation_sets(t, [tips[0], tips[15]])
        n_ops = sum(len(s) for s in sets)
        assert n_ops == 7  # 4 + 4 ancestors sharing the root
        assert len(sets) == 4  # but only tree-height launches


def _set_length(edge, length):
    """An in-place move setting one branch length, shaped like
    :func:`repro.inference.branch_length_move`'s moves."""
    old = edge.length
    edge.length = float(length)

    def undo():
        edge.length = old

    return Move(
        kind="branch",
        log_hastings=0.0,
        touched=[edge],
        changed_edges=[edge],
        undo=undo,
    )


class TestIncrementalLikelihood:
    """Dirty-path updates through the production route,
    :meth:`TreeLikelihood.propose` / ``accept`` / ``reject``: each update
    equals a fresh full evaluation bit for bit and costs exactly
    ``len(dirty_nodes)`` operations."""

    MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])

    def make(self, tree, patterns=None, sites=30, **kwargs):
        if patterns is None:
            aln = simulate_alignment(tree, self.MODEL, sites, seed=61)
            patterns = compress(aln)
        return TreeLikelihood(tree, self.MODEL, patterns, **kwargs), patterns

    def fresh(self, tree, patterns, **kwargs):
        return TreeLikelihood(
            tree.copy(), self.MODEL, patterns, **kwargs
        ).log_likelihood()

    def test_matches_full_recompute(self):
        tree = balanced_tree(12, branch_length=0.2)
        ev, patterns = self.make(tree)
        ev.log_likelihood()
        updated = ev.propose(_set_length(tree.edges()[3], 0.7))
        ev.accept()
        assert ev.last_incremental_plan is not None
        assert updated == self.fresh(tree, patterns)

    def test_sequence_of_updates(self):
        tree = balanced_tree(8, branch_length=0.1)
        ev, patterns = self.make(tree)
        ev.log_likelihood()
        rng = np.random.default_rng(62)
        kept = ev.log_likelihood()
        for step in range(6):
            edges = tree.edges()
            edge = edges[int(rng.integers(len(edges)))]
            value = ev.propose(_set_length(edge, float(rng.uniform(0.01, 1.0))))
            if step % 2:
                ev.reject()
            else:
                ev.accept()
                kept = value
        assert kept == self.fresh(tree, patterns)

    def test_auto_initial_evaluation(self):
        tree = balanced_tree(8, branch_length=0.1)
        ev, patterns = self.make(tree)
        # A proposal before any full evaluation is evaluated in full.
        value = ev.propose(_set_length(tree.edges()[0], 0.4))
        ev.accept()
        assert ev.last_incremental_plan is None
        assert value == self.fresh(tree, patterns)

    def test_update_is_cheaper_than_full(self):
        tree = balanced_tree(64, branch_length=0.1)
        ev, _ = self.make(tree)
        ev.log_likelihood()
        ev.instance.stats.reset()
        tip = tree.tips()[0]
        ev.propose(_set_length(tip, 0.5))
        # Only log2(64) = 6 operations, not 63.
        assert ev.instance.stats.operations == 6
        assert ev.instance.stats.operations == len(dirty_nodes(tree, [tip]))

    def test_update_cost_and_launches(self):
        tree = pectinate_tree(16)
        ev, _ = self.make(tree)
        ev.log_likelihood()
        deepest = max(tree.tips(), key=lambda n: node_depths(tree)[id(n)])
        ev.instance.stats.reset()
        ev.propose(_set_length(deepest, 0.3))
        plan = ev.last_incremental_plan
        assert plan.n_operations == len(dirty_nodes(tree, [deepest])) == 15
        assert plan.n_launches == 15
        assert ev.instance.stats.operations == 15
        ev.reject()
        shallow = tree.root.children[-1]
        ev.propose(_set_length(shallow, 0.3))
        assert ev.last_incremental_plan.n_operations == 1
        ev.reject()

    def test_gamma_rates(self):
        tree = balanced_tree(8, branch_length=0.2)
        rates = discrete_gamma(0.5, 4)
        ev, patterns = self.make(tree, sites=20, rates=rates)
        ev.log_likelihood()
        value = ev.propose(_set_length(tree.edges()[2], 0.9))
        ev.accept()
        assert value == self.fresh(tree, patterns, rates=rates)

    def test_validation(self):
        tree = balanced_tree(4, branch_length=0.1)
        ev, _ = self.make(tree)
        ev.log_likelihood()
        with pytest.raises(ValueError, match="root"):
            ev.propose(_set_length(tree.root, 0.5))
        scaled, _ = self.make(tree, scaling=True)
        with pytest.raises(ValueError, match="scaling"):
            scaled.propose(_set_length(tree.edges()[0], 0.5))


class TestRerootingShrinksUpdates:
    """The §VIII connection: rerooting shortens dirty paths too."""

    def test_pectinate_mean_update_cost_halves(self):
        tree = pectinate_tree(64)
        rerooted = optimal_reroot_fast(tree).tree
        def mean_cost(t):
            return np.mean([len(dirty_nodes(t, [e])) for e in t.edges()])
        assert mean_cost(rerooted) < 0.6 * mean_cost(tree)

    @given(tree_strategy(min_tips=8, max_tips=40, kinds=("pectinate", "random")))
    @settings(max_examples=15)
    def test_worst_case_never_longer(self, tree):
        # Rerooting minimises topological height = the worst-case dirty
        # path, a theorem. (The *mean* path can tick up slightly on some
        # shapes, so only a loose bound holds for it.)
        rerooted = optimal_reroot_fast(tree).tree

        def costs(t):
            return [len(dirty_nodes(t, [e])) for e in t.edges()]

        before, after = costs(tree), costs(rerooted)
        assert max(after) <= max(before)
        assert np.mean(after) <= np.mean(before) * 1.2


class TestIncrementalPlan:
    """`incremental_plan` as a first-class ExecutionPlan producer."""

    def _warm(self, tree, sites=24):
        model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        patterns = compress(simulate_alignment(tree, model, sites, seed=3))
        from repro.core import create_instance, execute_plan, make_plan

        inst = create_instance(tree, model, patterns)
        full = make_plan(tree)
        baseline = execute_plan(inst, full)
        return inst, full, baseline, model, patterns

    def test_plan_is_marked_incremental_and_smaller(self):
        from repro.core import incremental_plan

        tree = balanced_tree(16)
        inst, full, _, _, _ = self._warm(tree)
        tip = tree.tips()[0]
        plan = incremental_plan(tree, [tip])
        assert plan.incremental
        assert not full.incremental
        assert plan.n_operations < full.n_operations
        assert plan.matrix_indices == [tree.index_of(tip)]

    def test_execution_matches_fresh_full_traversal(self):
        from repro.core import create_instance, execute_plan, incremental_plan, make_plan

        tree = balanced_tree(16)
        inst, full, baseline, model, patterns = self._warm(tree)
        edge = tree.tips()[3]
        edge.length = 0.37
        value = execute_plan(inst, incremental_plan(tree, [edge]))
        fresh = create_instance(tree, model, patterns)
        assert value == execute_plan(fresh, make_plan(tree))
        assert value != baseline

    def test_matrices_for_root_raises(self):
        from repro.core import incremental_plan

        tree = balanced_tree(8)
        tree.assign_indices()
        with pytest.raises(ValueError, match="root"):
            incremental_plan(tree, [tree.tips()[0]], matrices_for=[tree.root])

    def test_verifier_accepts_dirty_path_schedules(self):
        from repro.core import incremental_plan

        tree = optimal_reroot_fast(pectinate_tree(16)).tree
        tree.assign_indices()
        for tip in tree.tips():
            plan = incremental_plan(tree, [tip], verify=True)
            assert plan.n_operations >= 1

    @pytest.mark.parametrize("scaling", [False, True])
    def test_known_operations_are_reused_until_rewired(self, scaling):
        from repro.core import incremental_plan, make_plan
        from repro.inference import nni_move_at

        tree = balanced_tree(16)
        full = make_plan(tree, scaling=scaling)
        known = {op.destination: op for s in full.operation_sets for op in s}
        tip = tree.tips()[5]
        plan = incremental_plan(tree, [tip], scaling=scaling, operations=known)
        assert plan.operation_sets == incremental_plan(
            tree, [tip], scaling=scaling
        ).operation_sets
        assert all(
            known[op.destination] is op for s in plan.operation_sets for op in s
        )
        # An NNI rewires two nodes: only their operations are new.
        move = nni_move_at(tree, 0)
        plan = incremental_plan(
            tree, move.touched, scaling=scaling, operations=known
        )
        fresh = incremental_plan(tree, move.touched, scaling=scaling)
        assert plan.operation_sets == fresh.operation_sets
        new = [
            op for s in plan.operation_sets for op in s
            if known[op.destination] is not op
        ]
        rewired = {tree.index_of(node.parent) for node in move.touched}
        assert {op.destination for op in new} == rewired
        move.undo()
        # A scaling mismatch never reuses an operation.
        other = incremental_plan(tree, [tip], scaling=not scaling, operations=known)
        assert not any(
            known[op.destination] is op for s in other.operation_sets for op in s
        )
