"""Unit tests for the deterministic fault-injection layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.planner import create_instance, execute_plan, make_plan
from repro.data import random_patterns
from repro.exec import (
    AllocationError,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    KernelLaunchError,
    TransientDeviceError,
)
from repro.exec.faults import RAISED_BEFORE_EXECUTION, underflow_poison_factor
from repro.models import JC69
from repro.trees import balanced_tree


def make_case(n_tips=16, n_patterns=32, seed=1, dtype=np.float64):
    tree = balanced_tree(n_tips)
    patterns = random_patterns(
        tree.tip_names(), n_patterns, rng=np.random.default_rng(seed)
    )
    model = JC69()
    instance = create_instance(tree, model, patterns, dtype=dtype)
    plan = make_plan(tree, "concurrent")
    return instance, plan


class TestFaultSpec:
    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            FaultSpec(rate=-0.1)
        with pytest.raises(ValueError):
            FaultSpec(rate=1.1)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(rate=0.1, classes=("launch", "meltdown"))

    def test_positive_rate_needs_classes(self):
        with pytest.raises(ValueError):
            FaultSpec(rate=0.1, classes=())
        FaultSpec(rate=0.0, classes=())  # fine when never firing

    def test_negative_max_faults_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(rate=0.1, max_faults=-1)


class TestFaultSchedule:
    def test_deterministic_replay(self):
        spec = FaultSpec(rate=0.4, seed=99)
        a = FaultSchedule(spec)
        b = FaultSchedule(spec)
        draws_a = [a.draw(batched=i % 3 != 0) for i in range(300)]
        draws_b = [b.draw(batched=i % 3 != 0) for i in range(300)]
        assert draws_a == draws_b
        assert a.injected == b.injected > 0

    def test_stream_independent_of_batched_flag(self):
        # The decision for attempt i must not depend on the batched flag
        # of earlier attempts: same seed, different batching histories,
        # identical hit pattern (modulo batched_only suppression).
        spec = FaultSpec(rate=0.5, seed=7)
        all_batched = [FaultSchedule(spec).draw(batched=True) for _ in range(1)]
        a = FaultSchedule(spec)
        b = FaultSchedule(spec)
        a.draw(batched=True)
        b.draw(batched=False)
        assert a.draw(batched=True) == b.draw(batched=True)
        assert all_batched  # silence unused warning

    def test_batched_only_suppresses_serial_attempts(self):
        spec = FaultSpec(rate=1.0, seed=1, batched_only=True)
        schedule = FaultSchedule(spec)
        assert all(schedule.draw(batched=False) is None for _ in range(50))
        assert schedule.injected == 0
        assert schedule.draw(batched=True) is not None

    def test_max_faults_budget(self):
        spec = FaultSpec(rate=1.0, seed=1, max_faults=3)
        schedule = FaultSchedule(spec)
        draws = [schedule.draw() for _ in range(10)]
        assert sum(d is not None for d in draws) == 3
        assert all(d is None for d in draws[3:])

    def test_zero_rate_never_fires(self):
        schedule = FaultSchedule(FaultSpec())
        assert all(schedule.draw() is None for _ in range(100))
        assert schedule.injected == 0


class TestFaultInjector:
    @pytest.mark.parametrize(
        "cls,exc_type",
        [
            ("launch", KernelLaunchError),
            ("transient", TransientDeviceError),
            ("alloc", AllocationError),
        ],
    )
    def test_pre_execution_faults_raise_typed_errors(self, cls, exc_type):
        assert cls in RAISED_BEFORE_EXECUTION
        instance, plan = make_case()
        injector = FaultInjector(
            instance, FaultSpec(rate=1.0, seed=0, classes=(cls,))
        )
        with pytest.raises(exc_type) as info:
            execute_plan(injector, plan)
        assert info.value.launch_index == 0
        assert injector.schedule.injected == 1
        assert injector.schedule.by_class == {cls: 1}

    def test_nan_poisoning_corrupts_silently(self):
        instance, plan = make_case()
        injector = FaultInjector(
            instance, FaultSpec(rate=1.0, seed=0, classes=("nan",), max_faults=1)
        )
        ll = execute_plan(injector, plan)
        assert np.isnan(ll)
        assert injector.schedule.by_class == {"nan": 1}

    def test_underflow_poisoning_shrinks_partials(self):
        instance, plan = make_case()
        clean = execute_plan(instance, plan)
        injector = FaultInjector(
            instance,
            FaultSpec(rate=1.0, seed=0, classes=("underflow",), max_faults=1),
        )
        poisoned = execute_plan(injector, plan)
        # The poisoned evaluation is silently *wrong*, not an error.
        assert np.isfinite(poisoned)
        assert poisoned != clean

    def test_underflow_poison_factor_is_dtype_aware(self):
        assert underflow_poison_factor(np.float32) == pytest.approx(1e-35)
        assert underflow_poison_factor(np.float64) == pytest.approx(1e-250)

    def test_zero_rate_is_transparent(self):
        instance, plan = make_case()
        clean = execute_plan(instance, plan)
        injector = FaultInjector(instance, FaultSpec())
        assert execute_plan(injector, plan) == clean
        assert injector.schedule.injected == 0

    def test_delegation(self):
        instance, plan = make_case()
        injector = FaultInjector(instance, FaultSpec())
        assert injector.tip_count == instance.tip_count
        assert injector.inner is instance
        assert injector.pattern_count == instance.pattern_count

    def test_replay_is_bit_identical(self):
        spec = FaultSpec(rate=0.6, seed=11, classes=("underflow",))
        results = []
        for _ in range(2):
            instance, plan = make_case()
            injector = FaultInjector(instance, spec)
            results.append(execute_plan(injector, plan))
        assert results[0] == results[1]
