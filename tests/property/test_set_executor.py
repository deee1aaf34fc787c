"""The set executor as properties: any set, any split, any program, same bits.

Lowering picks a per-operation or a run step from the layout of a set's
operands and the instance's row bytes. That is only safe if the choice
is unobservable. For random trees, precisions, scaling, tip encodings
and rootings, every operation set must produce the same partials, scale
logs and log-likelihood bits whether it runs in a one-set program, per
operation in a compiled program, or as a run step whose runs are whole
or cut to one or two operations. And a whole plan run through the
program an instance compiled for it must leave exactly what running its
sets one by one leaves, with runs cut anyhow, with tip chunks of one
step each, and with rows above the hoisting cut. A run step — one
``matmul`` per computed side and one ``multiply`` over strided store
views — must give those bits too, whatever the strides' signs and the
order of each operation's children, and so must a wide set split into
several runs, its tip rows cut across chunks mid-set, and a dirty path's
wide set run from per-destination entries.
"""

from __future__ import annotations

import copy
import dataclasses
from contextlib import ExitStack
from unittest import mock

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.beagle import BeagleInstance, Operation, setexec
from repro.beagle.setexec import execute_set
from repro.core import (
    create_instance,
    execute_gradient_plan,
    execute_plan,
    incremental_plan,
    make_gradient_plan,
    make_plan,
    optimal_reroot_fast,
)
from repro.data import compress, simulate_alignment
from repro.models import HKY85, discrete_gamma
from repro.trees import random_attachment_tree
from tests.executor import cut_runs, forced_executor, step_kind
from tests.strategies import topology_kinds, tree_strategy

MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])


def _one_set_programs(instance, sets):
    for ops in sets:
        execute_set(instance, ops)


def _compiled(runs):
    """Run the sets as one compiled program, its sets lowered under
    ``forced_executor(runs)`` (``"as-lowered"``: unpatched)."""

    def run(instance, sets):
        if runs == "as-lowered":
            program = setexec.compile_program(instance, sets)
        else:
            with forced_executor(runs):
                program = setexec.compile_program(instance, sets)
        bound = program.start(instance)
        for ops in sets:
            bound.step_for(ops).run(instance, instance.workspace)

    return run


STRATEGIES = {
    "one-set-programs": _one_set_programs,
    "compiled": _compiled("as-lowered"),
    "per-operation": _compiled(None),
    "whole-runs": _compiled(10**9),
    "runs-of-1": _compiled(1),
    "runs-of-2": _compiled(2),
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
    """Run a plan's sets through ``strategy``; return every output."""
    instance = create_instance(
        tree, MODEL, patterns, dtype=dtype, scaling=scaling
    )
    plan = make_plan(tree, mode, scaling=scaling)
    instance.update_transition_matrices(
        0, plan.matrix_indices, plan.branch_lengths
    )
    strategy(instance, [list(op_set) for op_set in plan.operation_sets])
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
        tree, patterns, dtype, scaling, "concurrent", STRATEGIES["per-operation"]
    )
    for name, strategy in STRATEGIES.items():
        got = _run(tree, patterns, dtype, scaling, "concurrent", strategy)
        assert np.array_equal(got[0], partials), name
        assert np.array_equal(got[1], logs), name
        assert got[3] == log_likelihood, name
    # The serial schedule (one operation per launch) computes the same
    # per-operation bits; only its scale-log accumulation order differs.
    serial = _run(tree, patterns, dtype, scaling, "serial", _one_set_programs)
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
    """Record ``(width, kind)`` for every step run."""
    inner = setexec._NarrowStep.run

    def run(step, instance, ws):
        log.append((len(step.ops), step_kind(step)))
        inner(step, instance, ws)

    stack.enter_context(mock.patch.object(setexec._NarrowStep, "run", run))


#: The row regimes a program is lowered in. ``small-rows``: the test's
#: rows, tips gathered ahead. ``one-tip-chunks``: a 1-byte budget, so
#: each step gathers its tips alone. ``large-rows``: a 0-byte row cut
#: through the real row-bytes rule, which then lowers every set to
#: per-operation steps.
REGIMES = {
    "small-rows": {},
    "one-tip-chunks": {"CACHE_BUDGET_BYTES": 1},
    "large-rows": {"HOIST_MAX_ROW_BYTES": 0},
}


@given(
    tree_strategy(min_tips=3, max_tips=16),
    st.integers(0, 10**6),
    st.sampled_from([np.float64, np.float32]),
    st.booleans(),
    st.booleans(),
    st.integers(0, 3),
    st.sampled_from([None, 1, 2, 3]),
    st.sampled_from(sorted(REGIMES)),
    st.lists(st.integers(0, 64), min_size=16, max_size=16),
)
def test_compiled_program_matches_set_by_set_execution(
    tree, seed, dtype, scaling, reroot, n_ambiguous, run_cut, regime, cuts
):
    patterns = _patterns(tree, seed, n_ambiguous)
    if reroot:
        tree = optimal_reroot_fast(tree).tree
    plan = _split(make_plan(tree, "concurrent", scaling=scaling), cuts)
    ran = []
    # Sets lowered as the rule has it, or (``run_cut``) every set that
    # can be a run step one, its runs cut to at most ``run_cut``
    # operations.
    patches = dict(REGIMES[regime])
    if run_cut is not None:
        patches["_runs"] = cut_runs(run_cut)
    with ExitStack() as stack:
        if patches:
            stack.enter_context(mock.patch.multiple(setexec, **patches))
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
        assert setexec.hoists_tips(instance) == (regime != "large-rows")
        # One operation's two tips may exceed a one-row budget.
        budget = max(setexec._chunk_rows(instance), 2)
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
    # Only the compiled program's steps may be run steps, and none above
    # the row cut; as lowered, a run step has fewer runs than operations.
    assert len(ran) == 4 * plan.n_launches
    runs = [step_kind(step) for step in program.steps].count("run")
    assert [kind for _, kind in ran].count("run") == 2 * runs
    for step in program.steps:
        if step.is_run:
            assert regime != "large-rows"
            lengths = [setexec._length(dest) for dest, *_ in step.products]
            if run_cut is None:
                assert len(lengths) < len(step.ops)
            else:
                assert max(lengths) <= run_cut
    # The tip chunks of each step, each within the budget; no chunk
    # serves two steps when each holds one tip row. A product with no
    # compact-tip child has no chunk.
    chunks = [
        chunk
        for step in program.steps
        for chunk in {id(c): c for c in step.chunks or () if c}.values()
    ]
    for step in program.steps:
        for c, (_, *sides) in zip(step.chunks or (), step.products):
            assert (c is not None) == any(
                side[0] == setexec._GATHERED for side in sides
            )
    assert all(len(chunk.rows) <= budget for chunk in chunks)
    if regime == "one-tip-chunks":
        assert len(set(chunks)) == len(chunks)
    elif regime == "large-rows":
        assert chunks == []
        assert len(instance.workspace.scratch) == 0
        assert len(instance.workspace.gathered_tips) == 0


#: Store regions (16 slots each) of a run set's first-side children,
#: second-side children and destinations: a run of 5 at stride 3 spans 13.
REGION = 16


def _run_indices(base, stride, n):
    """``n`` indices from region ``base`` at ``stride``; a negative stride
    starts at the region's end."""
    start = base if stride > 0 else base + REGION - 1
    return [start + stride * i for i in range(n)]


@given(
    st.sampled_from([np.float64, np.float32]),
    st.integers(2, 5),
    st.sampled_from([1, 2]),
    st.booleans(),
    st.sampled_from(["slot", "tip"]),
    st.sampled_from(["slot", "tip"]),
    st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=5, max_size=5),
    st.lists(st.booleans(), min_size=5, max_size=5),
    st.integers(0, 10**6),
)
def test_run_steps_give_the_bits_of_set_by_set_execution(
    dtype, n, categories, scaling, first, second, strides, swaps, seed
):
    """A set of ``n`` operations whose destinations, children and matrices
    are runs of the drawn strides (negative too), with each operation's
    children swapped as drawn, after a set that computes the store
    children from tip pairs: the two-set program gives the bits of
    running the sets one by one, and the second set lowers to a run step
    unless swapping breaks a side's run."""
    rng = np.random.default_rng(seed)
    tips, patterns = 4 * n, 24
    d_stride, a_stride, b_stride, a_mat, b_mat = strides
    dests = _run_indices(2 * REGION, d_stride, n)
    sides = []
    for kind, base, stride, mat_stride in (
        (first, 0, a_stride, a_mat),
        (second, REGION, b_stride, b_mat),
    ):
        if kind == "slot":
            children = [tips + i for i in _run_indices(base, stride, n)]
            mats = _run_indices(tips + base, mat_stride, n)
        else:
            children = [int(t) for t in rng.integers(0, tips, size=n)]
            mats = [int(m) for m in rng.integers(0, tips, size=n)]
        sides.append((children, mats))
    instance = BeagleInstance(
        tip_count=tips,
        partials_buffer_count=3 * REGION + 1,
        matrix_count=tips + 2 * REGION,
        pattern_count=patterns,
        state_count=4,
        category_count=categories,
        scale_buffer_count=n,
        dtype=dtype,
    )
    for tip in range(tips):
        instance.set_tip_states(tip, rng.integers(0, 5, size=patterns))
    instance.set_eigen_decomposition(0, MODEL.eigen)
    instance.set_category_rates(np.linspace(0.5, 1.5, categories))
    n_mats = tips + 2 * REGION
    instance.update_transition_matrices(
        0, list(range(n_mats)), rng.uniform(0.01, 0.5, size=n_mats)
    )
    # Set 0 computes every store child from a pair of tips, and one more
    # slot, so there are always two sets and the tips are gathered ahead.
    sources = [c for children, _ in sides for c in children if c >= tips]
    sources.append(tips + 3 * REGION)
    set0 = [
        Operation(c, 2 * (i % (tips // 2)), c % n_mats, 2 * (i % (tips // 2)) + 1, i)
        for i, c in enumerate(sources)
    ]
    set1 = []
    for i in range(n):
        pair = [(sides[0][0][i], sides[0][1][i]), (sides[1][0][i], sides[1][1][i])]
        if swaps[i]:
            pair.reverse()
        (c1, m1), (c2, m2) = pair
        scale = i if scaling else -1
        set1.append(Operation(tips + dests[i], c1, m1, c2, m2, scale))
    sets = [set0, set1]

    def state(inst):
        return inst._partials.copy(), inst.scale._logs.copy(), inst._partials_valid

    reference = copy.deepcopy(instance)
    for op_set in sets:
        execute_set(reference, op_set)
    program = setexec.compile_program(instance, sets)
    for _ in range(2):  # bound on the first run, the same views on the second
        run = program.start(instance)
        for op_set in sets:
            run.step_for(op_set).run(instance, instance.workspace)
        for got, expected in zip(state(instance), state(reference)):
            assert np.array_equal(got, expected)
    # Swapping keeps a side a run unless it mixes two store runs in a set
    # of three or more (any two indices are a run); a mixed set splits
    # into runs that cover each operation once.
    mixed = first == second == "slot" and n > 2 and len(set(swaps[:n])) > 1
    step = program.steps[-1]
    if not mixed:
        assert step_kind(step) == "run" and len(step.products) == 1
    if step_kind(step) == "run":
        covered = [d for run, *_ in step.products for d in range(4 * REGION)[run]]
        assert sorted(covered) == sorted(dests)


def _passes(tree, patterns, rates, dtype, scaling):
    """A lower plan and a gradient sweep, each run three times (one-set
    programs, then compiled ones) on a fresh instance, then a dirty path
    through every node run twice (lowered, then from its entries): every
    logL, the store and the scale logs, and the programs the plans
    lowered."""
    instance = create_instance(
        tree, MODEL, patterns, rates=rates, dtype=dtype, scaling=scaling
    )
    plan = make_plan(tree, "concurrent", scaling=scaling)
    gplan = make_gradient_plan(tree)
    values = []
    for _ in range(3):
        values.append(execute_plan(instance, plan))
        values.append(execute_gradient_plan(instance, gplan))
    programs = [
        p.programs.get(instance) for p in (plan, gplan.post, gplan)
    ]
    # Every tip changed: the dirty path's sets are the full plan's, as
    # wide, and run per operation from per-destination entries.
    dirty = incremental_plan(tree, tree.tips(), scaling=scaling)
    values += [execute_plan(instance, dirty) for _ in range(2)]
    return values, instance._partials.copy(), instance.scale._logs.copy(), programs


def _random_tree(reroot):
    """A random-attachment tree of 256 tips, as given or rerooted: sets
    that mix tips and subtrees of every depth and split into many runs."""
    tree = random_attachment_tree(256, 1, branch_length=0.1)
    return ("random", optimal_reroot_fast(tree).tree if reroot else tree)


@given(
    st.sampled_from(topology_kinds).flatmap(
        lambda kind: st.tuples(
            st.just(kind), tree_strategy(min_tips=8, max_tips=40, kinds=(kind,))
        )
    ),
    st.integers(0, 10**6),
    st.sampled_from([np.float64, np.float32]),
    st.sampled_from([1, 4]),
    st.booleans(),
    st.integers(0, 3),
    st.integers(2, 24),
)
@example(_random_tree(False), 5, np.float64, 1, False, 0, 24)
@example(_random_tree(True), 6, np.float32, 4, True, 2, 7)
def test_wide_run_steps_give_the_bits_of_per_operation_steps(
    kind_tree, seed, dtype, categories, scaling, n_ambiguous, chunk_rows
):
    """Lower plans and gradient sweeps whose compiled wide sets run as
    run steps — split into several runs, their tip rows cut across chunks
    of ``chunk_rows`` mid-set — leave the bits per-operation steps leave,
    and so does a dirty path whose sets are as wide. The explicit
    examples are random 256-tip trees, as given and rerooted, whose sets
    split into six runs or more."""
    kind, tree = kind_tree
    patterns = _patterns(tree, seed, n_ambiguous)
    rates = discrete_gamma(0.5, 4) if categories == 4 else None
    with forced_executor(None):
        expected = _passes(tree, patterns, rates, dtype, scaling)
    with mock.patch.object(setexec, "_chunk_rows", lambda instance: chunk_rows):
        got = _passes(tree, patterns, rates, dtype, scaling)
    assert got[0] == expected[0]
    assert got[0][-2:] == [got[0][0]] * 2
    assert np.array_equal(got[1], expected[1])
    assert np.array_equal(got[2], expected[2])
    steps = [step for program in got[3] for step in program.steps]
    for step in steps:
        # Per-operation steps too keep every chunk within its rows.
        assert all(len(c.rows) <= max(chunk_rows, 2) for c in step.chunks or () if c)
        if step_kind(step) == "run":
            assert len(step.products) < len(step.ops)
            covered = [
                d for run, *_ in step.products for d in range(10**4)[run]
            ]
            slots = [op.destination - tree.n_tips for op in step.ops]
            assert sorted(covered) == sorted(slots)
    if kind == "balanced" and n_ambiguous == 0:
        # A balanced tree's upper sets above its tips hold no tip rows;
        # those after the first (the 4 operations round the root) split
        # into their first- and second-child halves.
        for step in got[3][2].steps:
            n = tree.n_tips
            tips = any(min(op.child1, op.child2) < n for op in step.ops)
            if len(step.ops) > 4 and not tips:
                assert step_kind(step) == "run" and len(step.products) >= 2
