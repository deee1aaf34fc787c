"""The set executor's strategies as one property: any set, any split, same bits.

:func:`repro.beagle.setexec.execute_set` picks per-operation or arena
execution from a set's width, and cuts wide sets into blocks. That is only
safe if the choice is unobservable. For random trees, precisions, scaling,
tip encodings and rootings, every operation set must produce the same
partials, scale logs and log-likelihood bits whether it runs per
operation, as one arena block, or in arena blocks of one or two.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.beagle.setexec import execute_arena, execute_per_operation, execute_set
from repro.core import create_instance, execute_plan, make_plan, optimal_reroot_fast
from repro.data import compress, simulate_alignment
from repro.models import HKY85
from tests.strategies import tree_strategy

MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])

STRATEGIES = {
    "selected": execute_set,
    "per-operation": execute_per_operation,
    "one-block": lambda instance, ops: execute_arena(instance, ops, len(ops)),
    "blocks-of-1": lambda instance, ops: execute_arena(instance, ops, 1),
    "blocks-of-2": lambda instance, ops: execute_arena(instance, ops, 2),
}


def _patterns(tree, seed, n_ambiguous):
    """Simulated patterns; the first ``n_ambiguous`` taxa get explicit
    (ambiguous) tip partials instead of compact codes."""
    patterns = compress(simulate_alignment(tree, MODEL, 24, seed=seed))
    rng = np.random.default_rng(seed)
    partials = {
        name: rng.uniform(0.05, 1.0, size=(patterns.n_patterns, 4))
        for name in sorted(patterns.taxa)[:n_ambiguous]
    }
    return dataclasses.replace(patterns, partials=partials)


def _run(tree, patterns, dtype, scaling, mode, strategy):
    """Run a plan set by set through ``strategy``; return every output."""
    instance = create_instance(
        tree, MODEL, patterns, dtype=dtype, scaling=scaling
    )
    plan = make_plan(tree, mode, scaling=scaling)
    instance.update_transition_matrices(
        0, plan.matrix_indices, plan.branch_lengths
    )
    for op_set in plan.operation_sets:
        strategy(instance, list(op_set))
    cumulative = -1
    if scaling:
        cumulative = instance.scale.count - 1
        instance.scale.reset(cumulative)
        instance.scale.accumulate(
            [op.destination_scale for s in plan.operation_sets for op in s],
            cumulative,
        )
    log_likelihood = instance.calculate_root_log_likelihood(
        plan.root_buffer, cumulative
    )
    return instance._partials.copy(), instance.scale._logs.copy(), log_likelihood


@given(
    tree_strategy(min_tips=3, max_tips=12),
    st.integers(0, 10**6),
    st.sampled_from([np.float64, np.float32]),
    st.booleans(),
    st.booleans(),
    st.integers(0, 3),
)
def test_every_strategy_and_split_gives_the_same_bits(
    tree, seed, dtype, scaling, reroot, n_ambiguous
):
    patterns = _patterns(tree, seed, n_ambiguous)
    if reroot:
        tree = optimal_reroot_fast(tree).tree
    partials, logs, log_likelihood = _run(
        tree, patterns, dtype, scaling, "concurrent", execute_per_operation
    )
    for name, strategy in STRATEGIES.items():
        got = _run(tree, patterns, dtype, scaling, "concurrent", strategy)
        assert np.array_equal(got[0], partials), name
        assert np.array_equal(got[1], logs), name
        assert got[2] == log_likelihood, name
    # The serial schedule (one operation per launch) computes the same
    # per-operation bits; only its scale-log accumulation order differs.
    serial = _run(tree, patterns, dtype, scaling, "serial", execute_set)
    assert np.array_equal(serial[0], partials)
    assert np.array_equal(serial[1][:-1], logs[:-1])
    if not scaling:
        assert serial[2] == log_likelihood
    # And the engine's own entry point reproduces the same logL.
    instance = create_instance(tree, MODEL, patterns, dtype=dtype, scaling=scaling)
    assert (
        execute_plan(instance, make_plan(tree, "concurrent", scaling=scaling))
        == log_likelihood
    )
