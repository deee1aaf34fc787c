"""Incremental proposal evaluation: bitwise equality with full traversals.

The contract is exact, not approximate: a proposal evaluated through the
dirty-path incremental plan (with snapshot-restore rejection and the
transition-matrix cache) must return the same bits a fresh
rebuild-everything evaluator computes for the mutated tree — float32 and
float64, rooted as given and rerooted for concurrency. The samplers
built on top (``run_mcmc(incremental=True)``,
``ml_search(incremental=True)``) must walk chains and hill-climbs that
are indistinguishable from their full-traversal counterparts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import random_patterns
from repro.inference import (
    TreeLikelihood,
    branch_length_move,
    ml_search,
    multiply_branch,
    nni_move,
    nni_move_at,
    nni_move_count,
    nni_neighbors,
    random_nni,
    run_mcmc,
)
from repro.models import HKY85, discrete_gamma
from repro.trees import balanced_tree, write_newick, yule_tree

MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
RATES = discrete_gamma(0.5, 4)


def _evaluator(seed, precision="double", reroot=False, n_taxa=8, **kwargs):
    rng = np.random.default_rng(seed)
    tree = yule_tree(n_taxa, rng, random_lengths=True)
    patterns = random_patterns(tree.tip_names(), 8, seed=seed)
    kwargs.setdefault("matrix_cache", True)
    ev = TreeLikelihood(
        tree,
        MODEL,
        patterns,
        rates=RATES,
        precision=precision,
        **kwargs,
    )
    if reroot:
        ev = ev.rerooted_for_concurrency()
    return ev


def _fresh_ll(ev):
    """The reference value: a brand-new evaluator, full traversal."""
    return TreeLikelihood(
        ev.tree.copy(),
        ev.model,
        ev.patterns,
        rates=ev.rates,
        precision=ev.precision,
    ).log_likelihood()


class TestPropertyBitIdentity:
    """The ISSUE's property test: random proposal sequences, evaluated
    incrementally with accept/reject snapshots, match fresh full
    traversals bit for bit in every precision/rooting combination."""

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("reroot", [False, True])
    @given(
        seed=st.integers(0, 2**16),
        steps=st.lists(
            st.tuples(st.sampled_from(["branch", "nni"]), st.booleans()),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=12, deadline=None)
    def test_incremental_matches_fresh_traversal(
        self, precision, reroot, seed, steps
    ):
        rng = np.random.default_rng(seed + 1)
        ev = _evaluator(seed, precision=precision, reroot=reroot)
        ev.log_likelihood()  # populate every partial (warm state)
        for kind, accept in steps:
            if kind == "branch":
                move = branch_length_move(ev.tree, rng)
            else:
                move = nni_move(ev.tree, rng)
                if move is None:
                    continue
            assert ev.propose(move) == _fresh_ll(ev)
            if accept:
                ev.accept()
            else:
                ev.reject()
            # The evaluator's state after accept/reject is the tree it
            # claims to hold: a full traversal agrees with a fresh one.
            assert ev.log_likelihood() == _fresh_ll(ev)


class TestMoveAPI:
    def test_branch_length_move_rng_parity(self):
        """In-place and copy-based proposals consume identical draws and
        land on the same tree."""
        tree = _evaluator(3).tree
        proposal = multiply_branch(tree, np.random.default_rng(9))
        move = branch_length_move(tree, np.random.default_rng(9))
        assert write_newick(tree) == write_newick(proposal.tree)
        assert move.log_hastings == proposal.log_hastings
        assert move.changed_edges == move.touched

    def test_nni_move_rng_parity(self):
        tree = _evaluator(4).tree
        proposal = random_nni(tree, np.random.default_rng(5))
        move = nni_move(tree, np.random.default_rng(5))
        assert write_newick(tree) == write_newick(proposal.tree)
        assert move.changed_edges == []  # lengths travel with subtrees

    def test_undo_restores_tree_exactly(self):
        ev = _evaluator(5)
        before = write_newick(ev.tree)
        rng = np.random.default_rng(2)
        for maker in (branch_length_move, nni_move):
            move = maker(ev.tree, rng)
            assert write_newick(ev.tree) != before
            move.undo()
            assert write_newick(ev.tree) == before

    def test_nni_move_at_enumerates_neighbors_in_order(self):
        tree = balanced_tree(8, branch_length=0.1)
        neighbors = nni_neighbors(tree)
        assert nni_move_count(tree) == len(neighbors)
        for index, neighbor in enumerate(neighbors):
            move = nni_move_at(tree, index)
            assert write_newick(tree) == write_newick(neighbor)
            move.undo()
        with pytest.raises(IndexError):
            nni_move_at(tree, len(neighbors))


class TestProposalProtocol:
    def test_pending_guards(self):
        ev = _evaluator(6)
        ev.log_likelihood()
        ev.propose(branch_length_move(ev.tree, np.random.default_rng(0)))
        assert ev.proposal_pending
        with pytest.raises(RuntimeError):
            ev.propose(branch_length_move(ev.tree, np.random.default_rng(1)))
        with pytest.raises(RuntimeError):
            ev.log_likelihood()
        ev.reject()
        with pytest.raises(RuntimeError):
            ev.reject()
        with pytest.raises(RuntimeError):
            ev.accept()

    def test_unsupported_configurations_raise(self):
        rng = np.random.default_rng(7)
        tree = yule_tree(8, rng, random_lengths=True)
        patterns = random_patterns(tree.tip_names(), 8, seed=7)
        move_rng = np.random.default_rng(0)
        scaled = TreeLikelihood(tree.copy(), MODEL, patterns, scaling=True)
        with pytest.raises(ValueError, match="scaling"):
            scaled.propose(branch_length_move(scaled.tree, move_rng))
        resilient = TreeLikelihood(tree.copy(), MODEL, patterns, resilience=True)
        with pytest.raises(ValueError, match="resilience"):
            resilient.propose(branch_length_move(resilient.tree, move_rng))

    def test_cold_proposal_lifecycle(self):
        """A propose() before any full evaluation runs a full traversal,
        reports no incremental plan, and degrades gracefully on reject."""
        ev = _evaluator(8)
        assert not ev.incremental_ready
        move = branch_length_move(ev.tree, np.random.default_rng(1))
        ll = ev.propose(move)
        assert ev.last_incremental_plan is None
        assert ll == _fresh_ll(ev)
        ev.reject()
        assert not ev.incremental_ready  # buffers held the rejected state
        assert ev.log_likelihood() == _fresh_ll(ev)
        # Accepting a cold proposal leaves the evaluator warm.
        ev2 = _evaluator(8)
        ev2.propose(branch_length_move(ev2.tree, np.random.default_rng(2)))
        ev2.accept()
        assert ev2.incremental_ready

    def test_cold_nni_reject_rebuilds_instance(self):
        """Rejecting a cold NNI reverts the topology; the instance built
        for the moved topology must not leak into later evaluations."""
        ev = _evaluator(18)
        reference = _fresh_ll(ev)
        move = nni_move(ev.tree, np.random.default_rng(3))
        assert move is not None
        ev.propose(move)
        ev.reject()
        assert ev.log_likelihood() == reference

    def test_full_traversal_after_accepted_nni(self):
        """log_likelihood() after an accepted in-place NNI must use the
        instance's frozen buffer indices, not a reassigned plan."""
        ev = _evaluator(19)
        ev.log_likelihood()
        plan = ev.plan
        move = nni_move(ev.tree, np.random.default_rng(4))
        assert move is not None
        ll = ev.propose(move)
        ev.accept()
        assert ev.log_likelihood() == ll == _fresh_ll(ev)
        assert ev.plan is not plan

    def test_accepted_branch_move_keeps_the_plan(self):
        """An accepted move that leaves the topology alone keeps the full
        plan object, and with it the program the instance compiled for
        it; the plan's branch lengths follow the accepted tree."""
        ev = _evaluator(20)
        ev.log_likelihood()
        plan = ev.plan
        for seed in range(3):
            move = branch_length_move(ev.tree, np.random.default_rng(seed))
            ev.propose(move)
            ev.accept()
            assert ev.log_likelihood() == _fresh_ll(ev)
            assert ev.plan is plan

    def test_warm_proposal_uses_incremental_plan(self):
        ev = _evaluator(9)
        ev.log_likelihood()
        move = branch_length_move(ev.tree, np.random.default_rng(3))
        ev.propose(move)
        plan = ev.last_incremental_plan
        assert plan is not None
        assert plan.incremental
        assert plan.n_operations < ev.plan.n_operations
        ev.reject()
        assert ev.log_likelihood() == _fresh_ll(ev)

    def test_nni_proposal_updates_no_transition_matrix(self, monkeypatch):
        """An NNI dirty path changes no branch length, so its plan holds
        no matrix and execute_plan skips the matrix update altogether; a
        branch-length proposal still makes exactly one call."""
        from repro.beagle.instance import BeagleInstance

        calls = []
        update = BeagleInstance.update_transition_matrices

        def counted(self, eigen_index, matrix_indices, branch_lengths):
            calls.append(len(matrix_indices))
            return update(self, eigen_index, matrix_indices, branch_lengths)

        monkeypatch.setattr(BeagleInstance, "update_transition_matrices", counted)
        ev = _evaluator(21, matrix_cache=False)
        ev.log_likelihood()
        for index in range(nni_move_count(ev.tree)):
            del calls[:]
            value = ev.propose(nni_move_at(ev.tree, index))
            assert ev.last_incremental_plan.matrix_indices == []
            assert calls == []
            assert value == _fresh_ll(ev)
            ev.reject()
        del calls[:]
        value = ev.propose(branch_length_move(ev.tree, np.random.default_rng(5)))
        assert calls == [1]
        assert value == _fresh_ll(ev)
        ev.reject()

    def test_invalidate_clears_proposal_state(self):
        ev = _evaluator(10)
        ev.log_likelihood()
        ev.propose(branch_length_move(ev.tree, np.random.default_rng(4)))
        ev.accept()
        ev.invalidate()
        assert not ev.incremental_ready
        assert ev.last_incremental_plan is None


class TestIncrementalMCMC:
    def _pair(self, seed, iterations=25, **kwargs):
        full_ev = _evaluator(seed, matrix_cache=False)
        inc_ev = _evaluator(seed)
        full = run_mcmc(full_ev, iterations, seed=seed, device=None, **kwargs)
        inc = run_mcmc(
            inc_ev, iterations, seed=seed, device=None, incremental=True, **kwargs
        )
        return full, inc

    def test_chain_is_bit_identical(self):
        full, inc = self._pair(11)
        assert full.log_likelihoods == inc.log_likelihoods
        assert full.accepted == inc.accepted
        assert inc.operations < full.operations

    def test_chain_matches_under_rerooting(self):
        full, inc = self._pair(12, reroot_every=5)
        assert full.log_likelihoods == inc.log_likelihoods
        assert full.rerootings == inc.rerootings

    def test_single_precision_chain_matches(self):
        full_ev = _evaluator(13, precision="single", matrix_cache=False)
        inc_ev = _evaluator(13, precision="single")
        full = run_mcmc(full_ev, 20, seed=13, device=None)
        inc = run_mcmc(inc_ev, 20, seed=13, device=None, incremental=True)
        assert full.log_likelihoods == inc.log_likelihoods

    def test_spr_proposals_are_rejected(self):
        ev = _evaluator(14)
        with pytest.raises(ValueError, match="SPR"):
            run_mcmc(ev, 5, incremental=True, spr_probability=0.1)

    def test_operations_counted_for_full_runs_too(self):
        ev = _evaluator(15, matrix_cache=False)
        result = run_mcmc(ev, 5, seed=15, device=None)
        assert result.operations > 0


class TestIncrementalSearch:
    def test_hill_climb_matches_full_search(self):
        # Start from a deliberately wrong topology: random data on a
        # fresh random tree leaves room for NNI improvement.
        full_ev = _evaluator(16, n_taxa=10, matrix_cache=False)
        inc_ev = _evaluator(16, n_taxa=10)
        full = ml_search(full_ev, max_rounds=4)
        inc = ml_search(inc_ev, max_rounds=4, incremental=True)
        assert inc.log_likelihood == full.log_likelihood
        assert write_newick(inc.tree) == write_newick(full.tree)
        assert inc.rounds == full.rounds

    def test_pool_is_mutually_exclusive(self):
        ev = _evaluator(17)
        with pytest.raises(ValueError, match="pool"):
            ml_search(ev, incremental=True, pool=object())
