"""Unit and property tests for the analytical timing model."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.beagle import operation_flops
from repro.gpu import GP100, SMALL_GPU, WorkloadDims, launch_time, time_set_sizes


DIMS = WorkloadDims(patterns=512, states=4)


class TestWorkloadDims:
    def test_threads(self):
        assert DIMS.threads_per_operation == 2048
        assert WorkloadDims(100, 4, 4).threads_per_operation == 1600

    def test_flops_match_kernels(self):
        assert DIMS.flops_per_operation == operation_flops(512, 4, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadDims(patterns=0)


class TestLaunchTime:
    def test_single_op_one_wave(self):
        # 2,048 threads on a 7,168-thread device: undersaturated.
        t = launch_time(GP100, DIMS, 1)
        assert t.n_waves == 1
        assert t.seconds == pytest.approx(
            GP100.launch_overhead_s + GP100.per_op_overhead_s + GP100.wave_time_s
        )

    def test_wave_quantisation(self):
        # ceil(k * 2048 / 7168) waves.
        for k, waves in [(1, 1), (3, 1), (4, 2), (7, 2), (8, 3), (32, 10)]:
            assert launch_time(GP100, DIMS, k).n_waves == waves

    def test_small_device_saturates_sooner(self):
        big = launch_time(GP100, DIMS, 8)
        small = launch_time(SMALL_GPU, DIMS, 8)
        assert small.n_waves > big.n_waves
        assert small.seconds > big.seconds

    def test_rejects_empty_launch(self):
        with pytest.raises(ValueError):
            launch_time(GP100, DIMS, 0)

    @given(st.integers(1, 2000))
    def test_monotone_in_operations(self, k):
        assert launch_time(GP100, DIMS, k + 1).seconds >= launch_time(GP100, DIMS, k).seconds

    @given(st.integers(1, 64), st.integers(1, 64))
    def test_batching_never_slower_than_two_launches(self, a, b):
        """The core economics of the paper: one launch of a+b ops is
        always at least as fast as separate launches of a and b ops."""
        together = launch_time(GP100, DIMS, a + b).seconds
        separate = launch_time(GP100, DIMS, a).seconds + launch_time(GP100, DIMS, b).seconds
        assert together <= separate + 1e-15


class TestEvaluationTiming:
    def test_totals(self):
        timing = time_set_sizes(GP100, DIMS, [4, 2, 1])
        assert timing.n_launches == 3
        assert timing.n_operations == 7
        assert timing.seconds == pytest.approx(
            sum(launch_time(GP100, DIMS, k).seconds for k in (4, 2, 1))
        )

    def test_flops_and_gflops(self):
        timing = time_set_sizes(GP100, DIMS, [1])
        assert timing.flops == DIMS.flops_per_operation
        assert timing.gflops == pytest.approx(
            timing.flops / timing.seconds / 1e9
        )

    def test_serial_vs_batched_shape(self):
        # 63 single-op launches vs the balanced-64 schedule: the batched
        # schedule must be several times faster (Table III regime).
        serial = time_set_sizes(GP100, DIMS, [1] * 63)
        batched = time_set_sizes(GP100, DIMS, [32, 16, 8, 4, 2, 1])
        assert serial.n_operations == batched.n_operations
        speedup = serial.seconds / batched.seconds
        assert 2.0 < speedup < 10.5  # below the theoretical bound

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=50))
    def test_gflops_bounded_by_device_ceiling(self, sizes):
        # Effective throughput can never exceed one wave's worth of FLOPs
        # per wave time.
        timing = time_set_sizes(GP100, DIMS, sizes)
        flops_per_thread = DIMS.flops_per_operation / DIMS.threads_per_operation
        ceiling = GP100.concurrent_threads * flops_per_thread / GP100.wave_time_s / 1e9
        assert timing.gflops <= ceiling + 1e-9


class TestOccupancy:
    def test_single_small_op_low_occupancy(self):
        t = launch_time(GP100, DIMS, 1)
        # 2,048 threads on a 7,168-thread device.
        assert t.occupancy == pytest.approx(2048 / 7168)

    def test_full_waves_high_occupancy(self):
        t = launch_time(GP100, DIMS, 7)  # 14,336 threads = exactly 2 waves
        assert t.occupancy == pytest.approx(1.0)

    def test_rerooting_raises_mean_occupancy(self):
        """The §I framing: concurrency raises achieved occupancy."""
        serial = time_set_sizes(GP100, DIMS, [1] * 63)
        batched = time_set_sizes(GP100, DIMS, [32, 16, 8, 4, 2, 1])
        assert batched.mean_occupancy > serial.mean_occupancy

    def test_occupancy_bounded(self):
        for k in (1, 3, 7, 20, 100):
            t = launch_time(GP100, DIMS, k)
            assert 0.0 < t.occupancy <= 1.0


class TestMemoryFootprint:
    def test_instance_accounting(self):
        from repro.beagle import BeagleInstance
        import numpy as np

        inst = BeagleInstance(8, 7, 15, 128, 4, category_count=2,
                              scale_buffer_count=8)
        fp = inst.memory_footprint()
        assert fp["partials"] == 7 * 2 * 128 * 4 * 8
        assert fp["matrices"] == 15 * 2 * 4 * 4 * 8
        assert fp["scale"] == 8 * 128 * 8
        assert fp["total"] == sum(
            v for k, v in fp.items() if k != "total"
        )

    def test_single_precision_halves_partials(self):
        from repro.beagle import BeagleInstance
        import numpy as np

        double = BeagleInstance(4, 3, 7, 64, 4).memory_footprint()
        single = BeagleInstance(4, 3, 7, 64, 4, dtype=np.float32).memory_footprint()
        assert single["partials"] == double["partials"] // 2
