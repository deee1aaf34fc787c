"""Unit tests for the retry/degrade/rescale recovery pipeline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.beagle.operations import Operation
from repro.beagle.reference import pruning_log_likelihood
from repro.core.planner import create_instance, execute_plan, make_plan
from repro.data import random_patterns
from repro.exec import (
    FaultInjector,
    FaultSpec,
    KernelLaunchError,
    NumericalError,
    ResilientInstance,
    RetryPolicy,
)
from repro.models import JC69
from repro.trees import balanced_tree, pectinate_tree, random_attachment_tree


def make_case(n_tips=16, n_patterns=32, seed=1, dtype=np.float64, topology="balanced"):
    tree = (
        pectinate_tree(n_tips) if topology == "pectinate" else balanced_tree(n_tips)
    )
    patterns = random_patterns(
        tree.tip_names(), n_patterns, rng=np.random.default_rng(seed)
    )
    model = JC69()
    instance = create_instance(tree, model, patterns, dtype=dtype)
    plan = make_plan(tree, "concurrent")
    return tree, model, patterns, instance, plan


def clean_loglik(tree, model, patterns, dtype=np.float64):
    instance = create_instance(tree, model, patterns, dtype=dtype)
    return execute_plan(instance, make_plan(tree, "concurrent"))


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-0.5)

    def test_backoff_is_bounded_exponential(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, max_backoff=0.35)
        assert policy.backoff_seconds(1) == pytest.approx(0.1)
        assert policy.backoff_seconds(2) == pytest.approx(0.2)
        assert policy.backoff_seconds(3) == pytest.approx(0.35)  # clamped

    def test_zero_base_disables_sleeping(self):
        assert RetryPolicy().backoff_seconds(5) == 0.0


class TestRetryRecovery:
    def test_retries_reproduce_fault_free_result_exactly(self):
        tree, model, patterns, instance, plan = make_case()
        clean = clean_loglik(tree, model, patterns)
        spec = FaultSpec(
            rate=0.4, seed=5, classes=("launch", "transient", "alloc", "nan")
        )
        engine = ResilientInstance(
            FaultInjector(instance, spec), RetryPolicy(max_retries=50)
        )
        assert engine.execute(plan) == clean
        stats = engine.fault_stats
        assert stats.injected > 0
        assert stats.detected == stats.injected
        assert stats.retried == stats.injected
        assert stats.errors == 0

    def test_single_injected_underflow_clears_on_recompute(self):
        tree, model, patterns, instance, plan = make_case()
        clean = clean_loglik(tree, model, patterns)
        spec = FaultSpec(rate=1.0, seed=0, classes=("underflow",), max_faults=1)
        engine = ResilientInstance(FaultInjector(instance, spec))
        assert engine.execute(plan) == clean
        stats = engine.fault_stats
        assert stats.detected_by_class == {"underflow": 1}
        assert stats.rescued == 0  # recompute sufficed; no escalation

    def test_nan_detection_and_cure(self):
        tree, model, patterns, instance, plan = make_case()
        clean = clean_loglik(tree, model, patterns)
        spec = FaultSpec(rate=1.0, seed=0, classes=("nan",), max_faults=2)
        engine = ResilientInstance(FaultInjector(instance, spec))
        assert engine.execute(plan) == clean
        assert engine.fault_stats.detected_by_class == {"nan": 2}

    def test_backoff_sleeps_are_recorded(self):
        tree, model, patterns, instance, plan = make_case()
        sleeps = []
        spec = FaultSpec(rate=1.0, seed=0, classes=("transient",), max_faults=2)
        engine = ResilientInstance(
            FaultInjector(instance, spec),
            RetryPolicy(backoff_base=0.01, backoff_factor=2.0, max_backoff=1.0),
            sleep=sleeps.append,
        )
        engine.execute(plan)
        assert sleeps == pytest.approx([0.01, 0.02])


class TestDegradation:
    def test_persistent_batched_fault_degrades_to_per_op(self):
        tree, model, patterns, instance, plan = make_case()
        clean = clean_loglik(tree, model, patterns)
        # Batched-only faults at rate 1: every batched attempt fails, the
        # per-operation fallback is clean.
        spec = FaultSpec(rate=1.0, seed=0, classes=("transient",), batched_only=True)
        engine = ResilientInstance(
            FaultInjector(instance, spec), RetryPolicy(max_retries=1)
        )
        assert engine.execute(plan) == clean
        stats = engine.fault_stats
        assert stats.degraded > 0
        assert stats.errors == 0

    def test_degradation_disabled_surfaces_the_error(self):
        tree, model, patterns, instance, plan = make_case()
        spec = FaultSpec(rate=1.0, seed=0, classes=("launch",), batched_only=True)
        engine = ResilientInstance(
            FaultInjector(instance, spec),
            RetryPolicy(max_retries=1, degrade=False),
        )
        with pytest.raises(KernelLaunchError):
            engine.execute(plan)
        assert engine.fault_stats.errors == 1

    def test_unrecoverable_fault_is_typed(self):
        tree, model, patterns, instance, plan = make_case()
        # Faults on every attempt, batched or not: nothing can recover.
        spec = FaultSpec(rate=1.0, seed=0, classes=("launch",))
        engine = ResilientInstance(
            FaultInjector(instance, spec), RetryPolicy(max_retries=2)
        )
        with pytest.raises(KernelLaunchError):
            engine.execute(plan)
        stats = engine.fault_stats
        assert stats.errors == 1
        assert stats.retried > 0


class TestRescalingEscalation:
    def make_deep_case(self, dtype=np.float32):
        tree = pectinate_tree(256, branch_length=0.05)
        patterns = random_patterns(
            tree.tip_names(), 8, rng=np.random.default_rng(2)
        )
        model = JC69()
        instance = create_instance(tree, model, patterns, dtype=dtype)
        plan = make_plan(tree, "concurrent")
        return tree, model, patterns, instance, plan

    def test_genuine_underflow_escalates_to_rescaling(self):
        tree, model, patterns, instance, plan = self.make_deep_case()
        reference = pruning_log_likelihood(tree, model, patterns, rescaled=True)
        engine = ResilientInstance(instance)
        ll = engine.execute(plan)
        stats = engine.fault_stats
        assert stats.rescued == 1
        assert stats.errors == 0
        assert ll == pytest.approx(reference, abs=0.5)  # float32 slack

    def test_escalation_is_cached(self):
        tree, model, patterns, instance, plan = self.make_deep_case()
        engine = ResilientInstance(instance)
        first = engine.execute(plan)
        detected_after_first = engine.fault_stats.detected
        second = engine.execute(plan)
        assert second == first
        # The cached scaled plan runs directly: no second detection pass.
        assert engine.fault_stats.detected == detected_after_first
        assert engine.fault_stats.rescued == 1

    def test_rescale_disabled_surfaces_numerical_error(self):
        tree, model, patterns, instance, plan = self.make_deep_case()
        engine = ResilientInstance(instance, RetryPolicy(rescale=False))
        with pytest.raises(NumericalError) as info:
            engine.execute(plan)
        assert info.value.kind == "underflow"
        assert engine.fault_stats.errors == 1


class TestDestinationChecks:
    """One reduction per set finds the same buffers, in operation order,
    as a per-operation check."""

    def check(self, values):
        tree, model, patterns, instance, plan = make_case()
        engine = ResilientInstance(instance)
        ops = []
        for k, value in enumerate(values):
            destination = instance.tip_count + 3 + k
            instance._partials[destination - instance.tip_count] = 0.5
            # Pattern k of this destination holds only ``value``.
            instance._partials[destination - instance.tip_count, :, k] = value
            ops.append(Operation(destination, 0, 0, 1, 1))
        engine._verify_destinations(ops)
        return [op.destination for op in ops]

    def test_poisoning_is_reported_before_underflow(self):
        with pytest.raises(NumericalError) as info:
            self.check([0.5, np.nan, 1e-300, np.inf, -np.inf, np.nan])
        assert info.value.kind == "nan"
        base = info.value.buffers[0] - 1
        assert info.value.buffers == (base + 1, base + 3, base + 4, base + 5)

    def test_underflow_lists_every_vanishing_destination(self):
        with pytest.raises(NumericalError) as info:
            self.check([1e-300, 0.5, 1e-300])
        assert info.value.kind == "underflow"
        base = info.value.buffers[0]
        assert info.value.buffers == (base, base + 2)
        assert info.value.n_operations == 3

    def test_healthy_destinations_pass(self):
        assert len(self.check([0.5, 1e-30, 2.0])) == 3

    def test_chunked_reduction_keeps_operation_order(self, monkeypatch):
        from repro.exec import resilient

        monkeypatch.setattr(resilient, "batch_rows", lambda instance: 2)
        with pytest.raises(NumericalError) as info:
            self.check([np.nan, 1e-300, 0.5, np.inf, 1e-300])
        assert info.value.kind == "nan"
        base = info.value.buffers[0]
        assert info.value.buffers == (base, base + 3)
        with pytest.raises(NumericalError) as info:
            self.check([1e-300, 0.5, 0.5, 1e-300, 1e-300])
        base = info.value.buffers[0]
        assert info.value.buffers == (base, base + 3, base + 4)

    @staticmethod
    def verify(instance, destinations):
        """``_verify_destinations`` on one operation per destination."""
        ops = [Operation(d, 0, 0, 1, 1) for d in destinations]
        ResilientInstance(instance)._verify_destinations(ops)

    @staticmethod
    def filled(instance):
        """Every store row healthy (upper bank included)."""
        instance.enable_upper_partials()
        instance._partials[...] = 0.5
        return instance

    def test_non_contiguous_destinations(self):
        # Height-grouped sets of a random tree cut across the set-ordered
        # (depth-level) numbering.
        tree = random_attachment_tree(24, 3, branch_length=0.1)
        plan = make_plan(tree, "level")
        patterns = random_patterns(tree.tip_names(), 16, seed=2)
        instance = create_instance(tree, JC69(), patterns)
        op_set = next(
            ops
            for ops in plan.operation_sets
            if len(ops) > 2
            and [op.destination for op in ops]
            != list(range(ops[0].destination, ops[0].destination + len(ops)))
        )
        instance._partials[...] = 0.5
        destinations = [op.destination for op in op_set]
        self.verify(instance, destinations)
        instance._partials[destinations[-1] - instance.tip_count, 0, 3, 1] = np.nan
        instance._partials[destinations[0] - instance.tip_count, 0, 5] = 1e-300
        with pytest.raises(NumericalError) as info:
            self.verify(instance, destinations)
        assert (info.value.kind, info.value.buffers) == ("nan", (destinations[-1],))
        instance._partials[destinations[-1] - instance.tip_count] = 0.5
        with pytest.raises(NumericalError) as info:
            self.verify(instance, destinations)
        assert info.value.kind == "underflow"
        assert info.value.buffers == (destinations[0],)
        assert info.value.n_operations == len(op_set)

    def test_decreasing_destinations(self):
        instance = self.filled(make_case()[3])
        base = instance.tip_count
        destinations = [base + 9, base + 7, base + 5, base + 3]
        self.verify(instance, destinations)
        for d in (base + 5, base + 9):
            instance._partials[d - base, :, 2] = 1e-300
        with pytest.raises(NumericalError) as info:
            self.verify(instance, destinations)
        assert info.value.kind == "underflow"
        assert info.value.buffers == (base + 9, base + 5)

    def test_upper_bank_destinations(self):
        instance = self.filled(make_case()[3])
        upper = instance.upper_base
        destinations = list(range(upper + 4, upper + 12))
        self.verify(instance, destinations)
        instance._partials[upper + 6 - instance.tip_count, 0, 0] = -np.inf
        instance._partials[upper + 11 - instance.tip_count, 0, 7, 0] = np.inf
        with pytest.raises(NumericalError) as info:
            self.verify(instance, destinations)
        assert (info.value.kind, info.value.buffers) == ("nan", (upper + 6, upper + 11))
        assert str(info.value).startswith(
            f"non-finite partials in buffers {[upper + 6, upper + 11]}"
        )

    @pytest.mark.parametrize("run", [True, False], ids=["run", "gathered"])
    def test_set_wider_than_batch_rows(self, monkeypatch, run):
        from repro.exec import resilient

        monkeypatch.setattr(resilient, "batch_rows", lambda instance: 3)
        instance = self.filled(make_case()[3])
        base = instance.tip_count
        rows = list(range(2, 12)) if run else [2, 9, 4, 11, 3, 8, 5, 10, 6, 7]
        destinations = [base + row for row in rows]
        self.verify(instance, destinations)
        bad = [destinations[1], destinations[5], destinations[9]]
        for d in bad:
            instance._partials[d - base, :, 1] = 0.0
        with pytest.raises(NumericalError) as info:
            self.verify(instance, destinations)
        assert (info.value.kind, info.value.buffers) == ("underflow", tuple(bad))
        assert info.value.n_operations == 10


def reference_verdict(instance, destinations, threshold):
    """The per-destination verdict: ``None``, or the kind and buffers of
    the ``NumericalError`` one check per destination raises."""
    poisoned, underflowed = [], []
    for destination in destinations:
        row = instance._partials[destination - instance.tip_count]
        maxima = row.max(axis=(0, 2))  # per pattern, over categories and states
        if not np.isfinite(maxima).all():
            poisoned.append(destination)
        elif maxima.min() < threshold:
            underflowed.append(destination)
    if poisoned:
        return "nan", poisoned, f"non-finite partials in buffers {poisoned}"
    if underflowed:
        return "underflow", underflowed, f"partials underflow in buffers {underflowed}"
    return None


@st.composite
def destination_sets(draw, n_rows):
    """Distinct store rows: a run of any nonzero stride, or any order."""
    if draw(st.booleans()):
        stride = draw(st.sampled_from([1, 2, 3, -1, -2]))
        n = draw(st.integers(1, 12))
        span = abs(stride) * (n - 1)
        start = draw(st.integers(0, n_rows - 1 - span))
        rows = [start + abs(stride) * i for i in range(n)]
        return rows if stride > 0 else rows[::-1]
    return draw(
        st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=24, unique=True)
    )


BAD_VALUES = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf, "tiny": None}


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_verdict_matches_per_destination_reference(dtype, data):
    """One reduction per launch raises what one check per destination
    raises: same kind, buffers, operation count and message."""
    tree, model, patterns, instance, plan = make_case(n_patterns=8, dtype=dtype)
    instance.enable_upper_partials()
    engine = ResilientInstance(instance)
    threshold = engine._underflow_threshold
    store = instance._partials
    store[...] = data.draw(st.sampled_from([0.5, 1.0, 1e-3]))
    rows = data.draw(destination_sets(store.shape[0]), label="rows")
    destinations = [instance.tip_count + row for row in rows]
    C, P, S = store.shape[1:]
    for _ in range(data.draw(st.integers(0, 3), label="faults")):
        row = data.draw(st.sampled_from(rows))
        c, p, s = (data.draw(st.integers(0, k - 1)) for k in (C, P, S))
        value = BAD_VALUES[data.draw(st.sampled_from(sorted(BAD_VALUES)))]
        if value is None:
            value = threshold * data.draw(st.sampled_from([0.0, 0.5, 1.0]))
            if data.draw(st.booleans(), label="whole pattern"):
                store[row, :, p, :] = value
                continue
        store[row, c, p, s] = value
    expected = reference_verdict(instance, destinations, threshold)
    ops = [Operation(d, 0, 0, 1, 1) for d in destinations]
    if expected is None:
        engine._verify_destinations(ops)
        return
    with pytest.raises(NumericalError) as info:
        engine._verify_destinations(ops)
    kind, buffers, message = expected
    assert info.value.kind == kind
    assert info.value.buffers == tuple(buffers)
    assert info.value.n_operations == len(ops)
    assert str(info.value).startswith(message)


class TestDelegationAndStats:
    def test_delegation(self):
        tree, model, patterns, instance, plan = make_case()
        engine = ResilientInstance(instance)
        assert engine.tip_count == instance.tip_count
        assert engine.inner is instance

    def test_execute_matches_execute_plan_when_healthy(self):
        tree, model, patterns, instance, plan = make_case()
        engine = ResilientInstance(instance)
        direct = clean_loglik(tree, model, patterns)
        assert engine.execute(plan) == direct
        stats = engine.fault_stats
        assert (stats.detected, stats.retried, stats.errors) == (0, 0, 0)

    def test_stats_format_and_reset(self):
        tree, model, patterns, instance, plan = make_case()
        spec = FaultSpec(rate=1.0, seed=0, classes=("transient",), max_faults=1)
        engine = ResilientInstance(FaultInjector(instance, spec))
        engine.execute(plan)
        line = engine.fault_stats.format()
        assert "injected=1" in line and "retried=1" in line
        engine.fault_stats.reset()
        assert engine.fault_stats.detected == 0

    def test_launch_level_error_counter(self):
        # Errors escaping the raw launch surface (not via execute()) are
        # counted once at the surface.
        tree, model, patterns, instance, plan = make_case()
        spec = FaultSpec(rate=1.0, seed=0, classes=("launch",))
        engine = ResilientInstance(
            FaultInjector(instance, spec), RetryPolicy(max_retries=0, degrade=False)
        )
        ops = list(plan.operation_sets[0])
        with pytest.raises(KernelLaunchError):
            engine.update_partials_set(ops)
        assert engine.fault_stats.errors == 1


class TestBackoffJitter:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_zero_jitter_is_pure_exponential(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0)
        assert policy.backoff_seconds(2, key=7) == policy.backoff_seconds(2)

    def test_jitter_is_pure_function_of_seed_key_attempt(self):
        # Determinism contract: no shared RNG stream, no clock — the same
        # (seed, key, attempt) triple always yields the same delay, in
        # any call order, so threaded chaos runs replay exactly.
        policy = RetryPolicy(backoff_base=0.1, jitter=0.5, jitter_seed=42)
        forward = [policy.backoff_seconds(a, key=3) for a in (1, 2, 3)]
        backward = [policy.backoff_seconds(a, key=3) for a in (3, 2, 1)]
        assert forward == backward[::-1]
        twin = RetryPolicy(backoff_base=0.1, jitter=0.5, jitter_seed=42)
        assert [twin.backoff_seconds(a, key=3) for a in (1, 2, 3)] == forward

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=1.0, jitter=0.25, jitter_seed=1
        )
        for key in range(8):
            for attempt in range(1, 6):
                delay = policy.backoff_seconds(attempt, key=key)
                assert 0.075 <= delay <= 0.125

    def test_workers_decorrelate_by_key(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=0.5, jitter_seed=0)
        delays = {policy.backoff_seconds(1, key=key) for key in range(16)}
        assert len(delays) > 1

    def test_seed_changes_the_sequence(self):
        a = RetryPolicy(backoff_base=0.1, jitter=0.5, jitter_seed=1)
        b = RetryPolicy(backoff_base=0.1, jitter=0.5, jitter_seed=2)
        assert a.backoff_seconds(1) != b.backoff_seconds(1)

    def test_jittered_sleeps_are_recorded_and_replayable(self):
        tree, model, patterns, instance, plan = make_case()
        spec = FaultSpec(rate=1.0, seed=0, classes=("transient",), max_faults=2)
        policy = RetryPolicy(backoff_base=0.01, jitter=0.5, jitter_seed=7)
        sleeps: list[float] = []
        engine = ResilientInstance(
            FaultInjector(instance, spec), policy, sleep=sleeps.append
        )
        engine.execute(plan)
        assert sleeps  # backoff actually consulted the jittered delays
        expected = [policy.backoff_seconds(i + 1) for i in range(len(sleeps))]
        assert sleeps == expected
