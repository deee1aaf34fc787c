"""The static race verdict against an execution oracle.

The prover (:func:`repro.analysis.races.check_set_races`) claims that a
race-free operation set may execute its operations in *any* order with
bit-identical results, and that an intra-set WAW hazard makes the result
order-dependent. Both directions are checked here by actually executing
random schedules (drawn by ``operation_schedule_strategy``) operation by
operation: clean schedules are run in submission order and in a random
per-set permutation and must agree to the last bit; aliased (racy)
schedules are run forward and reversed and the doubly-written buffer
must come out different.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import check_set_races
from repro.analysis.diagnostics import Severity
from repro.core import create_instance
from repro.data import random_patterns
from repro.models import JC69
from tests.strategies import operation_schedule_strategy


def _run_ordered(plan, orders, n_sets=None):
    """Execute the plan one operation at a time, per-set order given."""
    tree = plan.tree
    patterns = random_patterns(tree.tip_names(), 16, seed=7)
    instance = create_instance(tree, JC69(), patterns)
    instance.invalidate_partials()
    instance.update_transition_matrices(
        0, plan.matrix_indices, plan.branch_lengths
    )
    sets = plan.operation_sets if n_sets is None else plan.operation_sets[:n_sets]
    for op_set, order in zip(sets, orders):
        for j in order:
            instance.update_partials_set([op_set[j]])
    return instance


def _identity_orders(plan):
    return [list(range(len(s))) for s in plan.operation_sets]


def _aliased_destination(plan):
    """``(set_index, destination)`` written twice in one set, or None.

    Returned so the racy oracle can stop executing after the corrupted
    set — the alias leaves the victim's original destination unwritten,
    so later sets reading it would trip the engine's read-before-write
    guard instead of exercising the race.
    """
    for s, op_set in enumerate(plan.operation_sets):
        destinations = [op.destination for op in op_set]
        for d in destinations:
            if destinations.count(d) > 1:
                return s, d
    return None


@settings(max_examples=20, deadline=None)
@given(operation_schedule_strategy(max_tips=12), st.integers(0, 2**31 - 1))
def test_race_verdict_agrees_with_execution_oracle(schedule, perm_seed):
    plan, racy = schedule
    diagnostics = check_set_races(plan.operation_sets)
    clean = not [d for d in diagnostics if d.severity is Severity.ERROR]
    if not racy:
        # Verdict must be clean, and the claim it encodes must hold:
        # any within-set execution order is bit-identical.
        assert clean, [d.format() for d in diagnostics]
        rng = np.random.default_rng(perm_seed)
        shuffled = [
            list(rng.permutation(len(s))) for s in plan.operation_sets
        ]
        sequential = _run_ordered(plan, _identity_orders(plan))
        permuted = _run_ordered(plan, shuffled)
        ref = sequential.calculate_root_log_likelihood(plan.root_buffer)
        got = permuted.calculate_root_log_likelihood(plan.root_buffer)
        assert ref == got
        for op_set in plan.operation_sets:
            for op in op_set:
                np.testing.assert_array_equal(
                    sequential.get_partials(op.destination),
                    permuted.get_partials(op.destination),
                )
    else:
        # The prover must flag the WAW hazard...
        assert not clean
        assert any(d.code == "race-waw" for d in diagnostics)
        # ...and the hazard must be real: the doubly-written buffer's
        # contents depend on which write lands last. Execute only
        # through the corrupted set — the race is decided there.
        found = _aliased_destination(plan)
        assert found is not None
        set_index, aliased = found
        prefix = plan.operation_sets[: set_index + 1]
        forward = _run_ordered(
            plan, [list(range(len(s))) for s in prefix], n_sets=len(prefix)
        )
        backward = _run_ordered(
            plan,
            [list(reversed(range(len(s)))) for s in prefix],
            n_sets=len(prefix),
        )
        assert not np.array_equal(
            forward.get_partials(aliased), backward.get_partials(aliased)
        )


@settings(max_examples=20, deadline=None)
@given(operation_schedule_strategy(allow_racy=False, max_tips=16))
def test_planner_schedules_always_prove_race_free(schedule):
    plan, racy = schedule
    assert not racy
    assert check_set_races(plan.operation_sets) == []
