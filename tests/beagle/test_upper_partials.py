"""Engine-level tests for the pre-order upper-partial bank.

The load-bearing parity fact: after one ``execute_gradient_plan`` sweep,
the upper buffer of every non-root node holds, bit for bit, the far-side
half-tree partials that a per-edge rerooted evaluation computes for that
branch — whichever set-executor strategy ran the pre-order sets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import execute_gradient_plan, make_gradient_plan
from repro.core.planner import create_instance
from repro.data import compress, simulate_alignment
from repro.inference import DerivativeSession, canonical_edges
from repro.models import HKY85
from repro.trees import balanced_tree, pectinate_tree, yule_tree
from repro.trees.reroot import reroot_above
from tests.executor import forced_executor

MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])


def sweep_instance(tree, patterns, dtype=np.float64, sweeps=1):
    """An instance after ``sweeps`` gradient sweeps of one plan: the first
    runs one-set programs, later ones the plan's compiled programs."""
    instance = create_instance(tree, MODEL, patterns, dtype=dtype)
    gplan = make_gradient_plan(tree)
    for _ in range(sweeps):
        execute_gradient_plan(instance, gplan)
    return instance


def make_patterns(tree, n_sites=32, seed=4):
    return compress(simulate_alignment(tree, MODEL, n_sites, seed=seed))


class TestUpperBankLifecycle:
    def test_enable_is_idempotent(self):
        tree = balanced_tree(4, branch_length=0.1)
        instance = create_instance(tree, MODEL, make_patterns(tree))
        instance.enable_upper_partials()
        store = instance._partials
        instance.enable_upper_partials()
        assert instance._partials is store

    def test_read_before_enable_raises(self):
        tree = balanced_tree(4, branch_length=0.1)
        instance = create_instance(tree, MODEL, make_patterns(tree))
        with pytest.raises(ValueError, match="not enabled"):
            instance.upper_partials(0)

    def test_read_before_compute_raises(self):
        tree = balanced_tree(4, branch_length=0.1)
        instance = create_instance(tree, MODEL, make_patterns(tree))
        instance.enable_upper_partials()
        with pytest.raises(ValueError, match="read before being computed"):
            instance.upper_partials(0)

    def test_out_of_range_raises(self):
        tree = balanced_tree(4, branch_length=0.1)
        instance = create_instance(tree, MODEL, make_patterns(tree))
        instance.enable_upper_partials()
        with pytest.raises(IndexError, match="out of range"):
            instance.upper_partials(instance.upper_base)

    def test_invalidate_forces_recompute(self):
        tree = balanced_tree(4, branch_length=0.1)
        patterns = make_patterns(tree)
        instance = sweep_instance(tree, patterns)
        instance.upper_partials(0)  # computed
        instance.invalidate_upper_partials()
        with pytest.raises(ValueError, match="read before being computed"):
            instance.upper_partials(0)

    def test_dependent_set_rejected(self):
        tree = pectinate_tree(6, branch_length=0.1)
        patterns = make_patterns(tree)
        instance = create_instance(tree, MODEL, patterns)
        instance.enable_upper_partials()
        gplan = make_gradient_plan(tree, "serial")
        chained = [s[0] for s in gplan.upper_operation_sets]
        # A pectinate pre-order pass is a strict chain: flattening it
        # into one launch is exactly the hazard the guard must catch.
        if len(chained) > 1:
            with pytest.raises(ValueError, match="internal dependencies"):
                instance.update_upper_partials_set(chained)

    def test_upper_ops_require_enabled_bank(self):
        tree = balanced_tree(4, branch_length=0.1)
        instance = create_instance(tree, MODEL, make_patterns(tree))
        gplan = make_gradient_plan(tree)
        with pytest.raises(ValueError, match="not enabled"):
            instance.update_upper_partials_set(gplan.upper_operation_sets[0])


class TestUpperEqualsRerootedFarSide:
    @pytest.mark.parametrize(
        "tree",
        [
            balanced_tree(8, branch_length=0.15),
            pectinate_tree(7, branch_length=0.1),
        ],
        ids=["balanced", "pectinate"],
    )
    def test_bitwise_equal_to_oracle_half_tree(self, tree):
        patterns = make_patterns(tree)
        instance = sweep_instance(tree, patterns)
        session = DerivativeSession(MODEL, patterns)
        for edge in canonical_edges(tree):
            rerooted = reroot_above(tree, edge, fraction=0.0)
            _, V, _ = session.half_tree_partials(rerooted)
            upper = instance.upper_partials(tree.index_of(edge))
            assert np.array_equal(upper, V), edge.name or "internal"

    def test_float32_bank_dtype(self):
        tree = balanced_tree(4, branch_length=0.1)
        patterns = make_patterns(tree)
        instance = sweep_instance(tree, patterns, dtype=np.float32)
        assert instance.upper_partials(0).dtype == np.float32


class TestBackendBitIdentity:
    """The compiled sweep pinned to one strategy — run steps in blocks of
    at most two operations ("blocked") or one operation at a time
    ("pattern-blocked") — leaves the same upper bank as the lowering rule
    as shipped."""

    @pytest.mark.parametrize("backend", ["blocked", "pattern-blocked"])
    def test_upper_bank_matches_reference(self, backend):
        tree = yule_tree(9, np.random.default_rng(6))
        patterns = make_patterns(tree)
        ref = sweep_instance(tree, patterns, sweeps=2)
        with forced_executor(2 if backend == "blocked" else None):
            alt = sweep_instance(tree, patterns, sweeps=2)
        for node in tree.root.traverse_postorder():
            if node.parent is None or node is tree.root.children[1]:
                continue
            index = tree.index_of(node)
            assert np.array_equal(
                ref.upper_partials(index), alt.upper_partials(index)
            )


class TestUnifiedExecutorUppers:
    """Upper sets run through the same executor as lower sets: every
    strategy of the compiled sweep — per operation, whole runs, or runs
    cut into blocks of one or two operations — reproduces the rerooted
    far side exactly."""

    @pytest.fixture(
        params=["per-operation", "one-block", "blocks-of-1", "blocks-of-2"]
    )
    def strategy(self, request):
        if request.param == "per-operation":
            runs = None
        elif request.param == "one-block":
            runs = 10**9
        else:
            runs = int(request.param.rsplit("-", 1)[1])
        with forced_executor(runs):
            yield request.param

    @pytest.mark.parametrize(
        "tree",
        [yule_tree(9, np.random.default_rng(6)), balanced_tree(16, branch_length=0.1)],
        ids=["yule", "balanced-wide"],
    )
    def test_strategy_matches_oracle_half_tree(self, tree, strategy):
        patterns = make_patterns(tree)
        instance = sweep_instance(tree, patterns, sweeps=2)
        session = DerivativeSession(MODEL, patterns)
        for edge in canonical_edges(tree):
            rerooted = reroot_above(tree, edge, fraction=0.0)
            _, V, _ = session.half_tree_partials(rerooted)
            upper = instance.upper_partials(tree.index_of(edge))
            assert np.array_equal(upper, V), (strategy, edge.name)

    def test_sweep_never_touches_scale_bank(self):
        # The gradient engine runs unscaled, like the per-edge oracle;
        # rescaling an upper destination would silently break parity.
        tree = balanced_tree(8, branch_length=0.1)
        patterns = make_patterns(tree)
        instance = sweep_instance(tree, patterns)
        assert instance.scale.count == 0
