"""Single- vs double-precision behaviour (the paper's §VI-F motivation).

The paper enables ``--manualscale`` because single-precision partials
underflow on trees with many taxa. These tests reproduce that failure
mode in the engine and show rescaling curing it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import create_instance, execute_plan, make_plan
from repro.data import random_patterns
from repro.inference import TreeLikelihood
from repro.models import HKY85
from repro.trees import balanced_tree, pectinate_tree


MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])


def loglik(tree, patterns, dtype, scaling=False):
    inst = create_instance(tree, MODEL, patterns, scaling=scaling, dtype=dtype)
    return execute_plan(inst, make_plan(tree, scaling=scaling))


class TestDtypePlumbing:
    def test_instance_dtype(self):
        tree = balanced_tree(4)
        patterns = random_patterns(tree.tip_names(), 8, seed=1)
        inst = create_instance(tree, MODEL, patterns, dtype=np.float32)
        assert inst._partials.dtype == np.float32
        assert inst._matrices.dtype == np.float32

    def test_rejects_odd_dtype(self):
        from repro.beagle import BeagleInstance

        with pytest.raises(ValueError):
            BeagleInstance(2, 1, 3, 4, 4, dtype=np.int32)

    def test_treelikelihood_precision_option(self):
        tree = balanced_tree(8, branch_length=0.1)
        patterns = random_patterns(tree.tip_names(), 16, seed=2)
        single = TreeLikelihood(tree, MODEL, patterns, precision="single")
        double = TreeLikelihood(tree, MODEL, patterns)
        assert single.log_likelihood() == pytest.approx(
            double.log_likelihood(), rel=1e-4
        )
        with pytest.raises(ValueError):
            TreeLikelihood(tree, MODEL, patterns, precision="half")

    def test_precision_propagates_to_derived_evaluators(self):
        tree = pectinate_tree(8, branch_length=0.1)
        patterns = random_patterns(tree.tip_names(), 8, seed=3)
        single = TreeLikelihood(tree, MODEL, patterns, precision="single")
        assert single.rerooted_for_concurrency().precision == "single"
        assert single.with_tree(tree.copy()).precision == "single"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_get_partials_of_a_code_tip_keeps_the_instance_dtype(self, dtype):
        from repro.beagle import BeagleInstance

        inst = BeagleInstance(2, 1, 2, 3, 4, category_count=2, dtype=dtype)
        inst.set_tip_states(0, [0, 4, 2])  # 4 is the "unknown" code
        got = inst.get_partials(0)
        assert got.dtype == dtype
        assert got.shape == (2, 3, 4)
        assert np.array_equal(got[:, 0], [[1, 0, 0, 0]] * 2)
        assert np.array_equal(got[:, 1], np.ones((2, 4)))
        assert np.array_equal(got[:, 2], [[0, 0, 1, 0]] * 2)

    def test_kernels_preserve_instance_dtype(self):
        """The set executor must never silently widen float32: every
        working buffer, workspace scratch array and stored partial keeps
        the instance dtype end to end, the compiled program's too."""
        tree = balanced_tree(8, branch_length=0.1)
        patterns = random_patterns(tree.tip_names(), 16, seed=7)
        for dtype in (np.float32, np.float64):
            inst = create_instance(tree, MODEL, patterns, dtype=dtype)
            plan = make_plan(tree)
            for _ in range(2):
                execute_plan(inst, plan)
            assert inst._partials.dtype == dtype
            assert inst._matrices.dtype == dtype
            ws = inst.workspace
            assert len(ws.scratch) and len(ws.gathered_tips)
            assert ws.scratch.dtype == dtype
            assert ws.gathered_tips.dtype == dtype
            assert ws.row.dtype == dtype
            assert inst._padded.dtype == dtype

    def test_child_contribution_dtype_follows_matrices(self):
        from repro.beagle.kernels import child_contribution

        mats = np.eye(4, dtype=np.float32)[None].repeat(2, axis=0)
        part = np.full((2, 8, 4), 0.25, dtype=np.float32)
        out = child_contribution(mats, partials=part)
        assert out.dtype == np.float32
        codes = np.zeros(8, dtype=np.int64)
        assert child_contribution(mats, codes=codes).dtype == np.float32


class TestAccuracy:
    def test_small_tree_agreement(self):
        tree = balanced_tree(16, branch_length=0.2)
        patterns = random_patterns(tree.tip_names(), 32, seed=4)
        f64 = loglik(tree, patterns, np.float64)
        f32 = loglik(tree, patterns, np.float32)
        assert f32 == pytest.approx(f64, rel=1e-4)

    def test_single_precision_underflows_first(self):
        """Find a depth where float32 underflows but float64 survives —
        the exact situation the paper's --manualscale addresses."""
        for n in (80, 160, 320, 640, 1280):
            tree = pectinate_tree(n, branch_length=0.8)
            patterns = random_patterns(tree.tip_names(), 4, seed=5)
            f32 = loglik(tree, patterns, np.float32)
            f64 = loglik(tree, patterns, np.float64)
            if f32 == -np.inf and np.isfinite(f64):
                break
        else:
            pytest.fail("no size exhibited single-precision-only underflow")

    def test_manual_scaling_rescues_single_precision(self):
        tree = pectinate_tree(320, branch_length=0.8)
        patterns = random_patterns(tree.tip_names(), 4, seed=5)
        unscaled = loglik(tree, patterns, np.float32)
        scaled = loglik(tree, patterns, np.float32, scaling=True)
        reference = loglik(tree, patterns, np.float64, scaling=True)
        assert unscaled == -np.inf
        assert np.isfinite(scaled)
        assert scaled == pytest.approx(reference, rel=1e-3)

    def test_reroot_invariance_holds_in_single_precision(self):
        tree = pectinate_tree(24, branch_length=0.15)
        patterns = random_patterns(sorted(tree.tip_names()), 16, seed=6)
        base = TreeLikelihood(tree, MODEL, patterns, precision="single")
        rerooted = base.rerooted_for_concurrency()
        assert rerooted.log_likelihood() == pytest.approx(
            base.log_likelihood(), rel=1e-4
        )
