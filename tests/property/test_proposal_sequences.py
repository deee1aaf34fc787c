"""Proposal sequences on reused operations and lowered entries, as a property.

A warm proposal takes its dirty path's operations from the evaluator's
full plan and runs each narrow set from entries the instance lowered once
per destination slot. That reuse must be unobservable. For random trees
of 4–24 tips in both precisions and random sequences of branch-length and
NNI proposals, each accepted or rejected, every proposal's logL must be
bit-identical to a fresh full evaluation of the moved tree and to the
same proposal run with the lowering table cleared first. The table never
holds more entries than the instance has destination slots, and after
``set_tip_states`` or ``set_tip_partials`` the next proposal lowers its
sets again.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.data import compress, simulate_alignment
from repro.inference import (
    TreeLikelihood,
    branch_length_move,
    nni_move_at,
    nni_move_count,
)
from repro.models import HKY85
from tests.strategies import tree_strategy

MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])

STEPS = ("branch", "nni", "tip-states", "tip-partials")


def _patterns(tree, seed):
    """Simulated patterns; two taxa carry explicit (ambiguous) partials."""
    patterns = compress(simulate_alignment(tree, MODEL, 24, seed=seed))
    rng = np.random.default_rng(seed)
    partials = {
        name: rng.uniform(0.05, 1.0, size=(patterns.n_patterns, 4))
        for name in sorted(patterns.taxa)[:2]
    }
    return dataclasses.replace(patterns, partials=partials)


def _reload_tips(instance, explicit):
    """Set every tip of one kind again with the data it already holds."""
    if explicit:
        for tip, partials in list(instance._tip_partials.items()):
            instance.set_tip_partials(tip, partials[0].copy())
    else:
        for tip, kind in enumerate(instance._tip_kinds):
            if kind == 1:  # compact codes
                instance.set_tip_states(tip, instance._tip_codes_dense[tip].copy())


def _fresh(ev):
    """logL of a brand-new evaluator on a copy of the tree."""
    return TreeLikelihood(
        ev.tree.copy(), ev.model, ev.patterns, precision=ev.precision
    ).log_likelihood()


@given(
    tree=tree_strategy(min_tips=4, max_tips=24),
    seed=st.integers(0, 10**6),
    precision=st.sampled_from(["double", "single"]),
    steps=st.lists(
        st.tuples(st.sampled_from(STEPS), st.booleans(), st.integers(0, 10**6)),
        min_size=1,
        max_size=12,
    ),
)
def test_proposals_match_fresh_and_unlowered_evaluations(
    tree, seed, precision, steps
):
    patterns = _patterns(tree, seed)
    ev = TreeLikelihood(tree, MODEL, patterns, precision=precision)
    twin = TreeLikelihood(tree.copy(), MODEL, patterns, precision=precision)
    assert ev.log_likelihood() == twin.log_likelihood()
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    for step, accept, pick in steps:
        if step.startswith("tip"):
            _reload_tips(ev.instance, step == "tip-partials")
            _reload_tips(twin.instance, step == "tip-partials")
            move = branch_length_move(ev.tree, rngs[0])
            twin_move = branch_length_move(twin.tree, rngs[1])
        elif step == "branch":
            move = branch_length_move(ev.tree, rngs[0])
            twin_move = branch_length_move(twin.tree, rngs[1])
        else:
            n_moves = nni_move_count(ev.tree)
            if not n_moves:
                continue
            move = nni_move_at(ev.tree, pick % n_moves)
            twin_move = nni_move_at(twin.tree, pick % n_moves)
        instance = ev.instance
        twin.instance._lowered.clear()
        value = ev.propose(move)
        assert value == twin.propose(twin_move) == _fresh(ev)
        # One entry per destination slot, and every set's operations
        # lowered for this tip data.
        lowered = instance._lowered
        assert len(lowered) <= instance.partials_buffer_count
        assert all(0 <= slot < instance.partials_buffer_count for slot in lowered)
        kinds = instance._tip_kinds
        for op_set in ev.last_incremental_plan.operation_sets:
            for op in op_set:
                entry = lowered[op.destination - instance.tip_count]
                assert entry[0] == op and entry[1] == kinds
        if accept:
            ev.accept()
            twin.accept()
        else:
            ev.reject()
            twin.reject()
    assert ev.log_likelihood() == twin.log_likelihood() == _fresh(ev)
