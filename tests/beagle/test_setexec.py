"""The set executor's selector, its accounting and the program cache.

Lowering picks a narrow or an arena step from a set's width and from the
bytes of one partials row of the instance. Rows up to the cut
(``setexec.ARENA_MAX_ROW_BYTES``, 12 KiB) take the width rule alone: narrow
steps below ``ARENA_MIN_OPS``, the arena from there, whatever the
precision. Larger rows run every set as per-operation steps and never
allocate the arena or gathered tip rows. Whichever step runs, a set is
one kernel launch, gives the bits of every other step kind, and the arena
stops allocating once warm. A plan's second execution runs as a program
the plan lowered for the instance's layout; the plan must never serve a
stale program, and every wrapper in a worker stack must still see each
launch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.beagle import setexec
from repro.core import (
    create_instance,
    execute_gradient_plan,
    execute_plan,
    make_gradient_plan,
    make_plan,
    optimal_reroot_fast,
)
from repro.data import random_patterns
from repro.models import GTR, discrete_gamma
from repro.trees import balanced_tree, pectinate_tree
from tests.executor import forced_executor

MODEL = GTR([1.0, 2.0, 0.5, 0.7, 3.0, 1.0], [0.3, 0.2, 0.2, 0.3])


def narrow_case():
    """Tiny eval-narrow: rerooted pectinate, 1 category (sets of ≤ 2)."""
    tree = optimal_reroot_fast(pectinate_tree(16, branch_length=0.1)).tree
    patterns = random_patterns(tree.tip_names(), 16, seed=1)
    return tree, create_instance(tree, MODEL, patterns)


def wide_case():
    """Tiny eval-wide: balanced, 4 discrete-Γ categories (sets up to 8)."""
    tree = balanced_tree(16, branch_length=0.1)
    patterns = random_patterns(tree.tip_names(), 64, seed=2)
    rates = discrete_gamma(0.5, 4)
    return tree, create_instance(tree, MODEL, patterns, rates=rates)


@pytest.fixture
def chosen(monkeypatch):
    """Record ``(width, step kind)`` for every step the executor runs."""
    log = []
    for cls, kind in ((setexec._NarrowStep, "narrow"), (setexec._ArenaStep, "arena")):

        def spy(step, instance, ws, run=cls.run, kind=kind):
            log.append((len(step.ops), kind))
            run(step, instance, ws)

        monkeypatch.setattr(cls, "run", spy)
    return log


@pytest.mark.parametrize("case", [narrow_case, wide_case], ids=["narrow", "wide"])
class TestAccounting:
    def test_each_set_is_one_launch(self, case, chosen):
        tree, instance = case()
        plan = make_plan(tree)
        instance.update_transition_matrices(
            0, plan.matrix_indices, plan.branch_lengths
        )
        for op_set in plan.operation_sets:
            before = instance.stats.kernel_launches
            instance.update_partials_set(op_set)
            assert instance.stats.kernel_launches == before + 1
        assert instance.stats.operations == plan.n_operations
        assert len(chosen) == plan.n_launches

    def test_gradient_sweep_counts_one_launch_per_set(self, case):
        tree, instance = case()
        gplan = make_gradient_plan(tree)
        execute_gradient_plan(instance, gplan)
        assert instance.stats.kernel_launches == gplan.n_launches
        assert instance.stats.operations == gplan.n_operations

    def test_workspace_allocations_stay_flat(self, case):
        tree, instance = case()
        plan = make_plan(tree)
        # Warm-up: the first execution runs set by set; the second
        # compiles the plan, whose narrow steps gather tips ahead.
        first = execute_plan(instance, plan)
        assert execute_plan(instance, plan) == first
        allocations = instance.workspace.allocations
        token = instance.workspace.buffer_token()
        for _ in range(3):
            assert execute_plan(instance, plan) == first
        assert instance.workspace.allocations == allocations
        assert instance.workspace.buffer_token() == token


class TestSelector:
    def test_strategy_follows_the_width_rule(self, chosen):
        for case in (narrow_case, wide_case):
            tree, instance = case()
            execute_plan(instance, make_plan(tree))
        assert chosen
        for width, strategy in chosen:
            expected = "arena" if width >= setexec.ARENA_MIN_OPS else "narrow"
            assert strategy == expected, width

    def test_strategy_depends_on_width_only(self, chosen):
        """One plan at the narrow and wide shapes (rows of 4 KiB and
        less), both precisions: the same widths get the same choices."""
        tree = balanced_tree(16, branch_length=0.1)
        choices = []
        for n_patterns, rates in ((16, None), (64, discrete_gamma(0.5, 4))):
            for dtype in (np.float64, np.float32):
                patterns = random_patterns(tree.tip_names(), n_patterns, seed=3)
                instance = create_instance(
                    tree, MODEL, patterns, rates=rates, dtype=dtype
                )
                chosen.clear()
                execute_plan(instance, make_plan(tree))
                choices.append(list(chosen))
        assert all(c == choices[0] for c in choices)
        assert {s for _, s in choices[0]} == {"narrow", "arena"}

    def test_block_size_from_row_bytes(self):
        _, narrow = narrow_case()
        _, wide = wide_case()
        assert setexec.block_ops(narrow) == 64  # clamped: 512 B rows
        assert setexec.block_ops(wide) == 16  # 8 KiB rows: 768 KiB / 48 KiB
        # The benchmark shapes quoted in the constants' comments.
        for patterns, categories, block in ((1024, 4, 4), (128, 1, 32), (64, 1, 64)):
            tree = balanced_tree(4, branch_length=0.1)
            instance = create_instance(
                tree,
                MODEL,
                random_patterns(tree.tip_names(), patterns, seed=4),
                rates=discrete_gamma(0.5, categories) if categories > 1 else None,
            )
            assert setexec.block_ops(instance) == block


# 4 categories x 4 states: one partials row is 16 * patterns * itemsize
# bytes. Rows of 16 KiB are above the cut, rows of 12 KiB the largest
# below it.
ABOVE = {np.float64: 128, np.float32: 256}
BELOW = {np.float64: 96, np.float32: 192}
DTYPES = [np.float64, np.float32]


def row_case(n_patterns, dtype, scaling=False):
    """Balanced 16 tips (sets of 8, 4, 2 and 1) at a chosen row size."""
    tree = balanced_tree(16, branch_length=0.1)
    patterns = random_patterns(tree.tip_names(), n_patterns, seed=5)
    rates = discrete_gamma(0.5, 4)
    instance = create_instance(
        tree, MODEL, patterns, rates=rates, dtype=dtype, scaling=scaling
    )
    return tree, instance


def run_passes(tree, instance, scaling=False):
    """Three lower passes (one-set programs, then the compiled program)
    and two gradient sweeps; every logL and the whole store afterwards,
    upper rows and scale logs included."""
    plan = make_plan(tree, scaling=scaling)
    values = [execute_plan(instance, plan) for _ in range(3)]
    gplan = make_gradient_plan(tree)
    values += [execute_gradient_plan(instance, gplan) for _ in range(2)]
    return values, instance._partials.copy(), instance.scale._logs.copy()


class TestRowBytesRule:
    """Sets of rows too large for the arena run per-operation steps."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_the_cut_lies_between_12_and_16_kib_rows(self, dtype):
        assert not setexec.arena_fits(row_case(ABOVE[dtype], dtype)[1])
        assert setexec.arena_fits(row_case(BELOW[dtype], dtype)[1])

    def test_only_eval_wide_rows_are_above_the_cut(self):
        """eval-narrow (4 KiB rows), mcmc and gradient (8 KiB) and serve
        (2 KiB) keep their steps; eval-wide (128 KiB) runs per operation."""
        tree = balanced_tree(4, branch_length=0.1)
        for patterns, categories, fits in (
            (128, 1, True),
            (256, 1, True),
            (64, 1, True),
            (1024, 4, False),
        ):
            instance = create_instance(
                tree,
                MODEL,
                random_patterns(tree.tip_names(), patterns, seed=4),
                rates=discrete_gamma(0.5, categories) if categories > 1 else None,
            )
            assert setexec.arena_fits(instance) == fits

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_above_the_cut_every_set_runs_per_operation(self, dtype, chosen):
        tree, instance = row_case(ABOVE[dtype], dtype)
        run_passes(tree, instance)
        assert max(width for width, _ in chosen) >= setexec.ARENA_MIN_OPS
        assert {kind for _, kind in chosen} == {"narrow"}
        ws = instance.workspace
        assert ws.capacity == 0 and len(ws.gathered_tips) == 0
        assert ws.tip_capacity == 0 and ws.allocations == 0

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_at_the_cut_the_arena_runs_from_width_6(self, dtype, chosen):
        tree, instance = row_case(BELOW[dtype], dtype)
        run_passes(tree, instance)
        assert {kind for _, kind in chosen} == {"narrow", "arena"}
        for width, kind in chosen:
            expected = "arena" if width >= setexec.ARENA_MIN_OPS else "narrow"
            assert kind == expected, width
        assert instance.workspace.capacity > 0

    @pytest.mark.parametrize("shape", [ABOVE, BELOW], ids=["above", "below"])
    def test_dirty_path_wide_sets_follow_the_rule(self, shape):
        """A dirty path's wide set runs from per-destination entries
        above the cut and as a one-set arena program below it."""
        tree, instance = row_case(shape[np.float64], np.float64)
        plan = make_plan(tree)
        execute_plan(instance, plan)
        widest = max(plan.operation_sets, key=len)
        step = setexec.DirtyPath(instance).step_for(widest)
        if shape is ABOVE:
            assert isinstance(step, setexec._NarrowStep)
            assert step.chunk is None and len(step.products) == len(widest)
        else:
            assert step is None

    @pytest.mark.parametrize("scaling", [False, True], ids=["plain", "scaled"])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [ABOVE, BELOW], ids=["above", "below"])
    def test_each_shape_gives_the_bits_of_every_step_kind(
        self, shape, dtype, scaling, chosen
    ):
        expected = run_passes(*row_case(shape[dtype], dtype, scaling), scaling)
        for block in (None, 1, 2, 64):  # narrow, arena blocks, one block
            chosen.clear()
            with forced_executor(block):
                got = run_passes(*row_case(shape[dtype], dtype, scaling), scaling)
            # The pinned kind runs whatever the row size.
            assert {kind for _, kind in chosen} == {
                "narrow" if block is None else "arena"
            }
            assert got[0] == expected[0], block
            assert np.array_equal(got[1], expected[1]), block
            assert np.array_equal(got[2], expected[2]), block


def _count_one_set_programs(monkeypatch):
    """Record every set the instance runs as a one-set program."""
    from repro.beagle import instance as instance_module

    calls = []
    run = instance_module.execute_set

    def spy(instance, ops):
        calls.append(len(ops))
        run(instance, ops)

    monkeypatch.setattr(instance_module, "execute_set", spy)
    return calls


def _fresh_value(tree, patterns, edit=None):
    """logL of a fresh instance (after ``edit``) and a fresh plan."""
    instance = create_instance(tree, MODEL, patterns)
    if edit is not None:
        edit(instance)
    return execute_plan(instance, make_plan(tree))


class TestProgramCache:
    def setup_method(self):
        self.tree = optimal_reroot_fast(pectinate_tree(16, branch_length=0.1)).tree
        self.patterns = random_patterns(self.tree.tip_names(), 16, seed=1)
        self.instance = create_instance(self.tree, MODEL, self.patterns)

    def test_second_execution_compiles(self, monkeypatch):
        plan = make_plan(self.tree)
        first = execute_plan(self.instance, plan)
        assert plan.programs.by_key == {}
        one_set = _count_one_set_programs(monkeypatch)
        assert execute_plan(self.instance, plan) == first
        program = plan.programs.get(self.instance)
        assert program is not None
        assert execute_plan(self.instance, plan) == first
        assert plan.programs.get(self.instance) is program
        assert one_set == []  # every set ran its compiled step

    def test_second_execution_on_another_instance_compiles(self, monkeypatch):
        """Executions count per plan: a fresh instance runs the program
        lowered on the plan's second execution, whichever instance ran it."""
        plan = make_plan(self.tree)
        first = execute_plan(self.instance, plan)
        one_set = _count_one_set_programs(monkeypatch)
        fresh = create_instance(self.tree, MODEL, self.patterns)
        assert execute_plan(fresh, plan) == first
        program = plan.programs.get(fresh)
        assert program is not None and one_set == []
        compiles = _count_compiles(monkeypatch)
        for _ in range(3):
            fresh = create_instance(self.tree, MODEL, self.patterns)
            assert execute_plan(fresh, plan) == first
        assert compiles == [] and one_set == []
        assert plan.programs.get(self.instance) is program

    def test_tip_data_change_is_never_served_stale(self):
        plan = make_plan(self.tree)
        for _ in range(2):
            execute_plan(self.instance, plan)
        rng = np.random.default_rng(5)
        codes = rng.integers(0, 5, size=16)
        ambiguous = rng.uniform(0.05, 1.0, size=(16, 4))

        def edit(instance):
            instance.set_tip_states(0, codes)
            instance.set_tip_partials(1, ambiguous)

        edit(self.instance)
        expected = _fresh_value(self.tree, self.patterns, edit)
        for _ in range(3):
            assert execute_plan(self.instance, plan) == expected

    def test_new_matrices_are_gathered_again(self):
        """Tip rows gathered ahead in one run never serve the next run,
        even when only the matrices changed under the same plan."""
        plan = make_plan(self.tree)
        for _ in range(2):
            execute_plan(self.instance, plan)
        lengths = [1.7 * t for t in plan.branch_lengths]
        self.instance.update_transition_matrices(0, plan.matrix_indices, lengths)
        got = execute_plan(self.instance, plan, update_matrices=False)
        fresh = create_instance(self.tree, MODEL, self.patterns)
        fresh.update_transition_matrices(0, plan.matrix_indices, lengths)
        assert got == execute_plan(fresh, make_plan(self.tree), update_matrices=False)

    def test_alternating_plans_each_match_a_fresh_instance(self):
        plan_a = make_plan(self.tree)
        other = self.tree.copy()
        for edge in other.edges():
            edge.length *= 1.5
        plan_b = make_plan(other, "serial")
        value_a = _fresh_value(self.tree, self.patterns)
        value_b = _fresh_value(other, self.patterns)
        assert value_a != value_b
        for plan, expected in [(plan_a, value_a)] * 2 + [(plan_b, value_b)] * 2 + [
            (plan_a, value_a),
            (plan_b, value_b),
            (plan_a, value_a),
        ]:
            assert execute_plan(self.instance, plan) == expected

    def test_one_shot_plans_keep_the_full_plans_program(self):
        from repro.core import incremental_plan

        tree = balanced_tree(16, branch_length=0.1)
        patterns = random_patterns(tree.tip_names(), 16, seed=2)
        instance = create_instance(tree, MODEL, patterns)
        plan = make_plan(tree)
        for _ in range(2):
            full = execute_plan(instance, plan)
        program = plan.programs.get(instance)
        tip = tree.tips()[3]
        tip.length = 0.37
        dirty = incremental_plan(tree, [tip])
        for _ in range(2):
            value = execute_plan(instance, dirty)
        assert value == _fresh_value(tree, patterns) != full
        assert plan.programs.get(instance) is program is not None
        assert dirty.programs.by_key == {} and not dirty.programs.executed
        # The full plan carries the branch lengths it was made with.
        assert execute_plan(instance, plan) == full
        assert plan.programs.get(instance) is program

    def test_unread_buffer_still_rejected_when_compiled(self):
        from repro.core import incremental_plan

        tree = balanced_tree(8, branch_length=0.1)
        patterns = random_patterns(tree.tip_names(), 8, seed=3)
        instance = create_instance(tree, MODEL, patterns)
        plan = incremental_plan(tree, [tree.tips()[0]])
        instance.invalidate_partials()
        for _ in range(2):
            with pytest.raises(ValueError, match="read before being computed"):
                execute_plan(instance, plan)


def _count_compiles(monkeypatch):
    """Record the width of every set ``compile_program`` lowers."""
    calls = []
    compile_program = setexec.compile_program

    def spy(instance, operation_sets):
        calls.append(sum(len(s) for s in operation_sets))
        return compile_program(instance, operation_sets)

    monkeypatch.setattr(setexec, "compile_program", spy)
    return calls


class TestDirtyPathEntries:
    """Dirty-path sets run from entries lowered once per destination."""

    def setup_method(self):
        from repro.inference import TreeLikelihood

        tree = balanced_tree(16, branch_length=0.1)
        patterns = random_patterns(tree.tip_names(), 16, seed=6)
        self.ev = TreeLikelihood(tree, MODEL, patterns)
        self.full = self.ev.log_likelihood()
        self.instance = self.ev.instance

    def branch(self, edge, factor=1.3):
        """Propose a new length for one edge and return the logL."""
        from repro.inference import Move

        node = self.ev.tree.edges()[edge]
        old = node.length
        node.length = old * factor

        def undo():
            node.length = old

        return self.ev.propose(
            Move("branch", 0.0, touched=[node], changed_edges=[node], undo=undo)
        )

    def test_a_repeated_dirty_path_is_never_lowered_again(self, monkeypatch):
        compiles = _count_compiles(monkeypatch)
        one_set = _count_one_set_programs(monkeypatch)
        first = self.branch(3)
        self.ev.reject()
        lowered = len(compiles)
        assert lowered == self.ev.last_incremental_plan.n_launches
        assert self.branch(3) == first
        self.ev.reject()
        assert len(compiles) == lowered and one_set == []
        # One entry per destination, and dirty paths never get a program:
        # the full plan, executed once, holds none either.
        assert len(self.instance._lowered) <= self.instance.partials_buffer_count
        full = self.ev.plan.programs
        assert full.executed and full.by_key == {}
        dirty = self.ev.last_incremental_plan.programs
        assert not dirty.executed and dirty.by_key == {}

    def test_a_rejected_nni_leaves_its_old_entries(self, monkeypatch):
        from repro.inference import nni_move_at

        for edge in range(len(self.ev.tree.edges())):
            self.branch(edge)
            self.ev.reject()
        compiles = _count_compiles(monkeypatch)
        self.ev.propose(nni_move_at(self.ev.tree, 0))
        assert compiles  # the rewired operations are lowered
        self.ev.reject()
        del compiles[:]
        for edge in range(len(self.ev.tree.edges())):
            self.branch(edge)
            self.ev.reject()
        assert compiles == []
        assert self.ev.log_likelihood() == self.full

    def test_tip_data_change_lowers_again(self, monkeypatch):
        """Entries bake in each tip's kind of data, not the data: new codes
        run from the same entries, and a tip switched to explicit
        partials is lowered again."""
        first = self.branch(2)
        self.ev.reject()
        compiles = _count_compiles(monkeypatch)
        codes = self.instance._tip_codes[0].copy()
        self.instance.set_tip_states(0, codes)
        assert self.branch(2) == first
        assert compiles == []
        self.ev.reject()
        self.instance.set_tip_partials(0, np.eye(5, 4)[codes])  # same states
        assert self.branch(2) == pytest.approx(first, rel=1e-12)
        plan = self.ev.last_incremental_plan
        assert len(compiles) == plan.n_launches
        kinds = self.instance._tip_kinds
        tip_count = self.instance.tip_count
        for op in (op for op_set in plan.operation_sets for op in op_set):
            assert self.instance._lowered[op.destination - tip_count][1] == kinds
        self.ev.reject()

    @pytest.mark.parametrize("proposals", [0, 1, 2, 3, 5])
    def test_full_plan_compiles_whatever_the_proposals_between(
        self, proposals, monkeypatch
    ):
        from repro.inference import nni_move_at

        one_set = _count_one_set_programs(monkeypatch)
        for round_ in range(4):
            for k in range(proposals):
                if k % 2:
                    self.ev.propose(nni_move_at(self.ev.tree, k))
                else:
                    self.branch(k)
                self.ev.reject()
            del one_set[:]
            assert self.ev.log_likelihood() == self.full
            if round_ == 0:  # the full plan's second execution
                assert self.ev.plan.programs.get(self.instance) is not None
                assert one_set == []


class _LaunchCounter:
    """Counts launch calls on their way to the engine."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def update_partials_set(self, operations):
        self.calls += 1
        self._inner.update_partials_set(operations)


class TestWrappersSeeEveryLaunch:
    """A compiled plan still reaches every wrapper once per set."""

    def stack(self, instance, rate, seed):
        from repro.analysis.sanitizer import RaceDetector, SanitizedInstance
        from repro.exec import FaultInjector, FaultSpec, ResilientInstance

        counter = _LaunchCounter(SanitizedInstance(instance, RaceDetector()))
        injector = FaultInjector(counter, FaultSpec(rate=rate, seed=seed))
        return ResilientInstance(injector, sleep=lambda s: None), injector, counter

    @pytest.mark.parametrize("case", [narrow_case, wide_case], ids=["narrow", "wide"])
    def test_fault_free_stack_counts_one_call_per_set(self, case, monkeypatch):
        tree, instance = case()
        plan = make_plan(tree)
        resilient, injector, counter = self.stack(instance, 0.0, 0)
        execute_plan(resilient, plan)
        one_set = _count_one_set_programs(monkeypatch)
        for run in range(2, 5):
            execute_plan(resilient, plan)
            assert counter.calls == run * plan.n_launches
            assert injector._launch_counter == run * plan.n_launches
        assert plan.programs.get(instance) is not None
        assert one_set == []  # the wrappers forwarded every compiled step

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("case", [narrow_case, wide_case], ids=["narrow", "wide"])
    def test_chaos_value_equals_fault_free(self, case, seed):
        tree, clean = case()
        plan = make_plan(tree)
        expected = execute_plan(clean, plan)
        _, instance = case()
        resilient, injector, counter = self.stack(instance, 0.3, seed)
        for _ in range(3):
            assert execute_plan(resilient, plan) == expected
        assert injector.schedule.injected > 0
        # Faults raised before execution never reach the inner wrappers;
        # every set still reached them at least once per run.
        assert counter.calls >= 3 * plan.n_launches
