"""The set executor as properties: any set, any split, any program, same bits.

Lowering picks a narrow or an arena step from a set's width and the
instance's row bytes, and cuts wide sets into blocks. That is only safe
if the choice is unobservable. For random trees, precisions, scaling,
tip encodings and rootings, every operation set must produce the same
partials, scale logs and log-likelihood bits whether it runs as a narrow
step, as one arena block, or in arena blocks of one or two. And a whole
plan run through the program an instance compiled for it must leave
exactly what running its sets one by one leaves, with arena steps, with
tip chunks of one step each, and with rows too large for the arena.
"""

from __future__ import annotations

import dataclasses
from contextlib import ExitStack
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.beagle import setexec
from repro.beagle.setexec import execute_set
from repro.core import create_instance, execute_plan, make_plan, optimal_reroot_fast
from repro.data import compress, simulate_alignment
from repro.models import HKY85
from tests.executor import forced_executor
from tests.strategies import tree_strategy

MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])


def _forced(block):
    def run(instance, ops):
        with forced_executor(len(ops) if block == "whole" else block):
            execute_set(instance, ops)

    return run


STRATEGIES = {
    "selected": execute_set,
    "narrow": _forced(None),
    "one-block": _forced("whole"),
    "blocks-of-1": _forced(1),
    "blocks-of-2": _forced(2),
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


def _outputs(instance, plan):
    """Partials, scale logs, valid flags and logL after ``plan``'s sets."""
    cumulative = -1
    if plan.scaling:
        cumulative = instance.scale.count - 1
        instance.scale.reset(cumulative)
        instance.scale.accumulate(
            [op.destination_scale for s in plan.operation_sets for op in s],
            cumulative,
        )
    log_likelihood = instance.calculate_root_log_likelihood(
        plan.root_buffer, cumulative
    )
    return (
        instance._partials.copy(),
        instance.scale._logs.copy(),
        instance._partials_valid.copy(),
        log_likelihood,
    )


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
    return _outputs(instance, plan)


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
    partials, logs, _, log_likelihood = _run(
        tree, patterns, dtype, scaling, "concurrent", STRATEGIES["narrow"]
    )
    for name, strategy in STRATEGIES.items():
        got = _run(tree, patterns, dtype, scaling, "concurrent", strategy)
        assert np.array_equal(got[0], partials), name
        assert np.array_equal(got[1], logs), name
        assert got[3] == log_likelihood, name
    # The serial schedule (one operation per launch) computes the same
    # per-operation bits; only its scale-log accumulation order differs.
    serial = _run(tree, patterns, dtype, scaling, "serial", execute_set)
    assert np.array_equal(serial[0], partials)
    assert np.array_equal(serial[1][:-1], logs[:-1])
    if not scaling:
        assert serial[3] == log_likelihood
    # And the engine's own entry point reproduces the same logL.
    instance = create_instance(tree, MODEL, patterns, dtype=dtype, scaling=scaling)
    assert (
        execute_plan(instance, make_plan(tree, "concurrent", scaling=scaling))
        == log_likelihood
    )


def _split(plan, cuts):
    """The plan with each set cut in two at ``cuts[i] mod width`` — a
    valid regrouping that puts narrow sets before wide ones and back."""
    sets = []
    for op_set, cut in zip(plan.operation_sets, cuts):
        cut %= len(op_set)
        sets += [s for s in (op_set[:cut], op_set[cut:]) if s]
    return dataclasses.replace(plan, operation_sets=sets)


def _spy_steps(stack, log):
    """Record ``(width, kind)`` for every narrow and arena step run."""
    for cls, kind in ((setexec._NarrowStep, "narrow"), (setexec._ArenaStep, "arena")):

        def run(step, instance, ws, inner=cls.run, kind=kind):
            log.append((len(step.ops), kind))
            inner(step, instance, ws)

        stack.enter_context(mock.patch.object(cls, "run", run))


#: The row regimes a program is lowered in. ``arena``: the test's small
#: rows, arena steps from ``arena_min``. ``one-tip-chunks``: a 1-byte
#: budget, so each narrow step gathers its tips alone. ``large-rows``: a
#: 0-byte row cut through the real row-bytes rule, which then lowers
#: every set to per-operation steps.
REGIMES = {
    "arena": {},
    "one-tip-chunks": {"CACHE_BUDGET_BYTES": 1},
    "large-rows": {"ARENA_MAX_ROW_BYTES": 0},
}


@given(
    tree_strategy(min_tips=3, max_tips=16),
    st.integers(0, 10**6),
    st.sampled_from([np.float64, np.float32]),
    st.booleans(),
    st.booleans(),
    st.integers(0, 3),
    st.sampled_from([1, 2, 3, 4, 10**9]),
    st.sampled_from(sorted(REGIMES)),
    st.lists(st.integers(0, 64), min_size=16, max_size=16),
)
def test_compiled_program_matches_set_by_set_execution(
    tree, seed, dtype, scaling, reroot, n_ambiguous, arena_min, regime, cuts
):
    patterns = _patterns(tree, seed, n_ambiguous)
    if reroot:
        tree = optimal_reroot_fast(tree).tree
    plan = _split(make_plan(tree, "concurrent", scaling=scaling), cuts)
    ran = []
    # Arena steps from ``arena_min`` operations, in blocks of two so wide
    # sets also cut.
    with ExitStack() as stack:
        stack.enter_context(
            mock.patch.multiple(
                setexec,
                ARENA_MIN_OPS=arena_min,
                block_ops=lambda instance: 2,
                **REGIMES[regime],
            )
        )
        _spy_steps(stack, ran)
        reference = create_instance(
            tree, MODEL, patterns, dtype=dtype, scaling=scaling
        )
        reference.invalidate_partials()
        reference.update_transition_matrices(
            0, plan.matrix_indices, plan.branch_lengths
        )
        for op_set in plan.operation_sets:
            execute_set(reference, op_set)
        expected = _outputs(reference, plan)

        instance = create_instance(
            tree, MODEL, patterns, dtype=dtype, scaling=scaling
        )
        assert setexec.arena_fits(instance) == (regime != "large-rows")
        # The plan is new to this example, so its program is lowered
        # under this example's patched constants.
        first = execute_plan(instance, plan)  # uncompiled: one-set programs
        assert plan.programs.by_key == {}
        second = execute_plan(instance, plan)  # compiles, then runs bound
        program = plan.programs.get(instance)
        assert program is not None
        third = execute_plan(instance, plan)  # the plan's program again
    assert first == second == third
    got = _outputs(instance, plan)
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])
    assert np.array_equal(got[2], expected[2])
    assert got[3] == expected[3] == third
    assert instance.stats.kernel_launches == 3 * plan.n_launches
    # Every step that ran is the kind the regime forces.
    assert len(ran) == 4 * plan.n_launches
    for width, kind in ran:
        arena = regime != "large-rows" and width >= arena_min
        assert kind == ("arena" if arena else "narrow"), (width, regime)
    chunks = [getattr(step, "chunk", None) for step in program.steps]
    chunks = [chunk for chunk in chunks if chunk is not None]
    if regime == "one-tip-chunks":
        assert len({id(chunk) for chunk in chunks}) == len(chunks)
    elif regime == "large-rows":
        assert chunks == []
        assert instance.workspace.capacity == 0
        assert len(instance.workspace.gathered_tips) == 0
