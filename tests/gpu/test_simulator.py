"""Unit and shape tests for the simulated device.

The "shape" tests encode the paper's qualitative findings: who wins, by
roughly what factor, and where saturation bends the curves.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core import (
    count_operation_sets,
    make_plan,
    optimal_reroot_fast,
    tree_theoretical_speedup,
)
from repro.gpu import (
    GP100,
    SMALL_GPU,
    SimulatedDevice,
    WorkloadDims,
    simulate_tree,
    simulated_speedup,
)
from repro.trees import balanced_tree, pectinate_tree, random_attachment_tree
from tests.strategies import tree_strategy

DIMS = WorkloadDims(patterns=512, states=4)


class TestSimulatedDevice:
    def test_time_plan_matches_set_sizes(self):
        tree = balanced_tree(8)
        device = SimulatedDevice(GP100)
        timing = device.time_plan(make_plan(tree, "concurrent"), DIMS)
        assert timing.n_launches == count_operation_sets(tree)
        assert timing.n_operations == 7

    def test_serial_launch_count(self):
        tree = balanced_tree(16)
        timing = SimulatedDevice().time_tree(tree, DIMS, "serial")
        assert timing.n_launches == 15


class TestPaperShapes:
    def test_table3_balanced_realisation(self):
        """Table III: the balanced 64-OTU tree realises well under half of
        its 10.5× theoretical speedup (device saturation)."""
        s = simulated_speedup(balanced_tree(64))
        assert 0.25 * 10.5 < s < 0.6 * 10.5

    def test_table3_pectinate_unrerooted_is_serial(self):
        assert simulated_speedup(pectinate_tree(64)) == pytest.approx(1.0)

    def test_table3_pectinate_rerooted_approaches_two(self):
        rerooted = optimal_reroot_fast(pectinate_tree(64)).tree
        s = simulated_speedup(rerooted)
        assert 1.4 < s < 63 / 32  # below the 1.97 theoretical bound

    @given(tree_strategy(min_tips=4, max_tips=50))
    @settings(max_examples=20)
    def test_speedup_never_exceeds_theory(self, tree):
        """No simulated speedup may exceed (n−1)/sets — Table III's
        consistency check ("none of the empirical results fall outside
        the theoretical bounds")."""
        assert simulated_speedup(tree) <= tree_theoretical_speedup(tree) + 1e-9

    @given(tree_strategy(min_tips=4, max_tips=40, kinds=("pectinate", "random")))
    @settings(max_examples=20)
    def test_rerooting_never_slows_the_model(self, tree):
        rerooted = optimal_reroot_fast(tree).tree
        t_orig = simulate_tree(tree).seconds
        t_new = simulate_tree(rerooted).seconds
        assert t_new <= t_orig + 1e-12

    def test_fig5_throughput_rises_as_sets_fall(self):
        """Figure 5: fewer operation sets → higher throughput."""
        points = []
        for seed in range(20):
            tree = random_attachment_tree(256, seed)
            timing = simulate_tree(tree)
            points.append((timing.n_launches, timing.gflops))
        points.sort()
        # Spearman-style check: throughput of the most-batched quartile
        # beats the least-batched quartile.
        low_sets = [g for _, g in points[:5]]
        high_sets = [g for _, g in points[-5:]]
        assert min(low_sets) > max(high_sets)

    def test_fig6_pectinate_flat_balanced_saturating(self):
        """Figure 6: pectinate throughput is flat in n; balanced grows
        then flattens (saturation); rerooted pectinate sits ~2× above
        pectinate."""
        pect = [simulate_tree(pectinate_tree(n)).gflops for n in (16, 256, 2048)]
        assert max(pect) / min(pect) < 1.05  # flat

        bal = [simulate_tree(balanced_tree(n)).gflops for n in (16, 256, 2048)]
        assert bal[0] < bal[1] < bal[2]  # growing
        growth_early = bal[1] / bal[0]
        growth_late = bal[2] / bal[1]
        assert growth_late < growth_early  # flattening

        reroot = simulate_tree(optimal_reroot_fast(pectinate_tree(256)).tree).gflops
        assert 1.5 < reroot / pect[1] < 2.0

    def test_best_case_pectinate_speedup_band(self):
        """§VII-D: best-case rerooted-pectinate speedup approaches but
        does not reach 2 (paper: 1.93× at 406 OTUs)."""
        best = max(
            simulated_speedup(optimal_reroot_fast(pectinate_tree(n)).tree)
            for n in (64, 256, 406, 1024)
        )
        assert 1.8 < best < 2.0

    def test_small_device_gains_less(self):
        """Device capacity gates concurrency gains (paper §I): a small
        GPU saturates early, so the same balanced tree gains less."""
        tree = balanced_tree(256)
        big = simulated_speedup(tree, spec=GP100)
        small = simulated_speedup(tree, spec=SMALL_GPU)
        assert small < big

    def test_more_patterns_reduce_concurrency_gains(self):
        """§VI: the paper uses few (512) patterns precisely because large
        problems saturate the device at a single node."""
        tree = balanced_tree(64)
        few = simulated_speedup(tree, patterns=128)
        many = simulated_speedup(tree, patterns=16384)
        assert many < few


class TestGradientTiming:
    def test_op_counts_match_theory(self):
        device = SimulatedDevice(GP100)
        for n in (8, 16, 32):
            tree = balanced_tree(n, branch_length=0.1)
            timing = device.time_gradient(tree, DIMS)
            assert timing.n_edges == 2 * n - 3
            assert timing.one_sweep.n_operations == 3 * n - 5
            assert timing.per_edge.n_operations == (2 * n - 3) * (n - 1)

    def test_speedup_grows_with_taxa(self):
        device = SimulatedDevice(GP100)
        speedups = [
            device.time_gradient(
                balanced_tree(n, branch_length=0.1), DIMS
            ).speedup
            for n in (8, 16, 32, 64)
        ]
        assert speedups == sorted(speedups)
        assert speedups[0] > 1.0

    def test_launch_and_operation_savings(self):
        device = SimulatedDevice(GP100)
        timing = device.time_gradient(pectinate_tree(16, branch_length=0.1), DIMS)
        assert timing.launches_saved == (
            timing.per_edge.n_launches - timing.one_sweep.n_launches
        )
        assert timing.operations_saved == (
            timing.per_edge.n_operations - timing.one_sweep.n_operations
        )
        assert timing.launches_saved > 0 and timing.operations_saved > 0

    def test_explicit_plan_reused(self):
        from repro.core import make_gradient_plan

        device = SimulatedDevice(GP100)
        tree = balanced_tree(8, branch_length=0.1)
        gplan = make_gradient_plan(tree)
        a = device.time_gradient(tree, DIMS, plan=gplan)
        b = device.time_gradient(tree, DIMS)
        assert a.one_sweep.seconds == b.one_sweep.seconds
        assert a.per_edge.seconds == b.per_edge.seconds

    def test_serial_mode_prices_more_launches(self):
        device = SimulatedDevice(GP100)
        tree = balanced_tree(16, branch_length=0.1)
        serial = device.time_gradient(tree, DIMS, "serial")
        batched = device.time_gradient(tree, DIMS)
        assert serial.one_sweep.n_launches > batched.one_sweep.n_launches
        assert serial.one_sweep.seconds > batched.one_sweep.seconds
