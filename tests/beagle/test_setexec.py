"""The set executor's selector and its accounting.

``execute_set`` picks per-operation or arena execution from a set's width
alone. Whichever strategy runs, a set is one kernel launch, the arena
stops allocating once warm, and the choice never depends on the
instance's shape or precision.
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
    """Record ``(width, strategy)`` for every set ``execute_set`` runs."""
    log = []
    per_op, arena = setexec.execute_per_operation, setexec.execute_arena

    def spy_per_op(instance, ops):
        log.append((len(ops), "per-operation"))
        per_op(instance, ops)

    def spy_arena(instance, ops, block):
        log.append((len(ops), "arena"))
        arena(instance, ops, block)

    monkeypatch.setattr(setexec, "execute_per_operation", spy_per_op)
    monkeypatch.setattr(setexec, "execute_arena", spy_arena)
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
        first = execute_plan(instance, plan)
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
            expected = "arena" if width >= setexec.ARENA_MIN_OPS else "per-operation"
            assert strategy == expected, width

    def test_strategy_depends_on_width_only(self, chosen):
        """One plan at the narrow and wide shapes, both precisions: the
        same widths get the same choices."""
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
        assert {s for _, s in choices[0]} == {"per-operation", "arena"}

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
