"""Resilient execution facade over the likelihood engine.

:class:`ResilientInstance` wraps a :class:`~repro.beagle.instance.BeagleInstance`
(optionally already wrapped in a
:class:`~repro.exec.faults.FaultInjector`) and turns the engine's
fail-fast launch surface into a detect/retry/degrade/rescue pipeline,
mirroring the defensive layers BEAGLE and ExaML grew around their
likelihood cores:

* **Retry with bounded exponential backoff** — device faults and
  allocation failures re-attempt the same launch up to
  ``RetryPolicy.max_retries`` times; destination buffers are recomputed
  wholesale, so a retry after a mid-run fault is always safe.
* **Graceful degradation** — when a batched multi-operation launch keeps
  faulting, the set is downgraded to per-operation launches (each with
  its own retry budget), exactly the fallback from the paper's
  multi-operation kernel to BEAGLE's classic one-launch-per-operation
  mode.
* **Numerical verification** — after each launch the destination buffers
  are checked for NaN/Inf poisoning (cured by recomputation) and for
  underflow (per-pattern maximum below a dtype-aware threshold).
* **Rescaling escalation** — persistent underflow is deterministic, so
  :meth:`ResilientInstance.execute` rescues the evaluation by enabling
  scale buffers (:meth:`~repro.beagle.instance.BeagleInstance.enable_scaling`)
  and re-planning with per-node rescaling; the escalated plan is cached
  so subsequent evaluations pay no second detection round-trip.

:class:`FaultStats` counts every event (injected / detected / retried /
degraded / rescued / errors) and is surfaced next to the engine's
:class:`~repro.beagle.instance.InstanceStats`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..beagle.instance import InstanceWrapper
from ..beagle.kernels import pattern_maxima
from ..beagle.operations import Operation
from ..beagle.setexec import batch_rows
from ..obs import get_recorder
from .errors import (
    AllocationError,
    DeviceFault,
    ExecutionError,
    KernelLaunchError,
    NumericalError,
    TransientDeviceError,
)
from .faults import FaultInjector, FaultSchedule

__all__ = ["seeded_jitter", "RetryPolicy", "FaultStats", "ResilientInstance"]


def seeded_jitter(seed: int, key: int, attempt: int) -> float:
    """One deterministic jitter draw in ``[0, 1)``.

    The single seeded jitter source shared by every backoff site in the
    stack — :meth:`RetryPolicy.backoff_seconds` and the serving front
    end's retry/shed scheduling (:mod:`repro.serve`). The draw is a pure
    function of ``(seed, key, attempt)``: a throwaway generator seeded
    from the triple acts as a hash, consuming no shared random stream
    and reading no clock. Two components configured with the same seed
    therefore jitter identically, and chaos runs with concurrent workers
    replay exactly.
    """
    return float(np.random.default_rng((seed, key, attempt)).random())


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the recovery pipeline.

    Parameters
    ----------
    max_retries:
        Re-attempts per launch before degrading (batched sets) or giving
        up (per-operation launches).
    backoff_base, backoff_factor, max_backoff:
        Bounded exponential backoff between re-attempts, in seconds:
        attempt ``i`` sleeps ``min(base · factor^(i−1), max_backoff)``.
        The default base of 0 disables sleeping — right for the CPU
        engine and for tests; real device deployments set ~1–10 ms.
    jitter, jitter_seed:
        Optional *seeded* jitter on the backoff, as a fraction in
        ``[0, 1]``: attempt ``i`` sleeps the exponential delay scaled by
        a factor drawn uniformly from ``[1 − jitter, 1 + jitter]``.
        Jitter decorrelates retry storms when many pool workers back off
        at once, and because the draw is a pure function of
        ``(jitter_seed, key, attempt)`` — no shared RNG stream, no wall
        clock — it keeps chaos runs with concurrent workers exactly
        replayable; see :meth:`backoff_seconds` for the contract.
    degrade:
        Fall back from a faulting batched launch to per-operation
        launches.
    rescale:
        Escalate persistent underflow to a rescaling plan
        (:meth:`ResilientInstance.execute` only — launch-level calls
        cannot re-plan).
    verify:
        Check destination buffers for NaN/Inf and underflow after every
        launch. Costs one reduction per launch; disabling it leaves only
        root-level detection.
    underflow_retries:
        Recomputations to attempt when underflow is detected before
        concluding it is deterministic (one recomputation distinguishes
        injected poisoning, which clears, from genuine underflow, which
        recurs).
    underflow_threshold:
        Per-pattern partials maximum below which a buffer counts as
        underflowed; ``None`` selects a dtype-aware default (1e-220 for
        float64, 1e-30 for float32).
    """

    max_retries: int = 3
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    max_backoff: float = 1.0
    jitter: float = 0.0
    jitter_seed: int = 0
    degrade: bool = True
    rescale: bool = True
    verify: bool = True
    underflow_retries: int = 1
    underflow_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0 or self.underflow_retries < 0:
            raise ValueError("retry counts must be non-negative")
        if min(self.backoff_base, self.backoff_factor, self.max_backoff) < 0:
            raise ValueError("backoff parameters must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def backoff_seconds(self, attempt: int, *, key: int = 0) -> float:
        """Sleep before re-attempt ``attempt`` (1-based).

        Determinism contract: the returned delay is a pure function of
        the policy's fields, ``key`` and ``attempt`` — it consumes no
        shared random stream and reads no clock. Concurrent workers
        therefore compute identical delays for identical
        ``(key, attempt)`` pairs regardless of thread interleaving, and
        a chaos run replays exactly under the same seeds. Pool workers
        pass their worker id as ``key`` so each worker jitters along its
        own (still deterministic) sequence.
        """
        if self.backoff_base <= 0.0:
            return 0.0
        delay = min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.max_backoff,
        )
        if self.jitter > 0.0:
            unit = seeded_jitter(self.jitter_seed, key, attempt)
            delay *= 1.0 + self.jitter * (2.0 * unit - 1.0)
        return delay


@dataclass
class FaultStats:
    """Counters of the resilience pipeline, kept next to ``InstanceStats``.

    Attributes
    ----------
    injected:
        Faults a wrapped :class:`~repro.exec.faults.FaultInjector`
        introduced (0 when running on real faults only).
    detected:
        Fault events the resilience layer observed — caught typed errors
        plus buffer corruption found by verification.
    retried:
        Launch re-attempts performed.
    degraded:
        Batched sets downgraded to per-operation launches.
    rescued:
        Evaluations recovered through rescaling escalation — and, at the
        pool level, jobs re-executed on a healthy worker after a sentinel
        health check exposed the original worker as silently corrupting.
    errors:
        Typed :class:`~repro.exec.errors.ExecutionError`\\ s surfaced to
        the caller (recovery exhausted or disabled).
    rerouted:
        Pool level: jobs re-dispatched to a different worker after the
        assigned worker failed them (failover).
    shed:
        Pool level: jobs rejected by admission control (bounded queue)
        or dropped because their deadline expired while still queued.
    surfaced:
        Pool level: jobs whose typed error reached the caller — no
        healthy worker left to reroute to, or a spent deadline.
    """

    injected: int = 0
    detected: int = 0
    retried: int = 0
    degraded: int = 0
    rescued: int = 0
    errors: int = 0
    rerouted: int = 0
    shed: int = 0
    surfaced: int = 0
    injected_by_class: Dict[str, int] = field(default_factory=dict)
    detected_by_class: Dict[str, int] = field(default_factory=dict)

    def note(self, label: str) -> None:
        """Record one detected fault under its class label."""
        self.detected += 1
        self.detected_by_class[label] = self.detected_by_class.get(label, 0) + 1

    def merge(self, other: "FaultStats") -> None:
        """Fold another ledger into this one (pool aggregation)."""
        for f in fields(self):
            mine = getattr(self, f.name)
            if isinstance(mine, dict):
                for label, count in getattr(other, f.name).items():
                    mine[label] = mine.get(label, 0) + count
            else:
                setattr(self, f.name, mine + getattr(other, f.name))

    def reset(self) -> None:
        """Zero every counter."""
        fresh = FaultStats()
        for f in fields(self):
            setattr(self, f.name, getattr(fresh, f.name))

    def count_injected(self, schedule: Optional[FaultSchedule]) -> None:
        """Take ``injected`` from the fault stream that drew the faults,
        the one place injected faults are counted."""
        if schedule is not None:
            self.injected = schedule.injected
            self.injected_by_class = dict(schedule.by_class)

    def format(self) -> str:
        """One-line summary for logs and the ``synthetictest`` output."""
        line = (
            f"faults: injected={self.injected} detected={self.detected} "
            f"retried={self.retried} degraded={self.degraded} "
            f"rescued={self.rescued} errors={self.errors}"
        )
        if self.rerouted or self.shed or self.surfaced:
            line += (
                f" rerouted={self.rerouted} shed={self.shed} "
                f"surfaced={self.surfaced}"
            )
        return line


#: Detected-fault labels by error type, most specific first.
_LABELS = (
    (KernelLaunchError, "launch"),
    (TransientDeviceError, "transient"),
    (DeviceFault, "device"),
    (AllocationError, "alloc"),
)


def _class_label(exc: ExecutionError) -> str:
    if isinstance(exc, NumericalError):
        return exc.kind
    return next((label for t, label in _LABELS if isinstance(exc, t)), "other")


def _default_threshold(dtype: np.dtype) -> float:
    if np.dtype(dtype) == np.dtype(np.float32):
        return 1e-30
    return 1e-220


class ResilientInstance(InstanceWrapper):
    """Retry/degrade/rescue wrapper around an engine instance.

    Parameters
    ----------
    inner:
        A :class:`~repro.beagle.instance.BeagleInstance` or a
        :class:`~repro.exec.faults.FaultInjector` around one. Everything
        except the launch surface delegates to it unchanged, so a
        ``ResilientInstance`` drops into
        :func:`repro.core.planner.execute_plan` and
        :class:`~repro.inference.likelihood.TreeLikelihood` directly.
    policy:
        The :class:`RetryPolicy`; defaults cover retry + degrade +
        rescale with verification on.
    sleep:
        Injection point for the backoff sleeper (tests pass a recorder).
    stats:
        Optional shared :class:`FaultStats` ledger. Pool workers pass
        their per-worker ledger so counts accumulate across the many
        short-lived facades a worker builds (one per job).
    backoff_key:
        Jitter key forwarded to :meth:`RetryPolicy.backoff_seconds`;
        pool workers pass their worker id so concurrent workers jitter
        along distinct deterministic sequences.
    """

    def __init__(
        self,
        inner,
        policy: Optional[RetryPolicy] = None,
        *,
        sleep: Optional[Callable[[float], None]] = None,
        stats: Optional[FaultStats] = None,
        backoff_key: int = 0,
    ) -> None:
        super().__init__(inner)
        self.policy = policy or RetryPolicy()
        self._sleep = sleep or time.sleep
        self._stats = stats if stats is not None else FaultStats()
        self._backoff_key = backoff_key
        self._in_execute = False
        # plan -> escalated (scaling) plan, keyed by identity; the plan
        # object itself is retained so the id cannot be recycled.
        self._escalations: Dict[int, Tuple[object, object]] = {}
        self._underflow_threshold = (
            self.policy.underflow_threshold
            if self.policy.underflow_threshold is not None
            else _default_threshold(inner.dtype)
        )

    @property
    def fault_stats(self) -> FaultStats:
        """Resilience counters, with a wrapped injector's counts taken in."""
        if isinstance(self._inner, FaultInjector):
            self._stats.count_injected(self._inner.schedule)
        return self._stats

    # -- launch surface ------------------------------------------------
    def update_partials_set(self, operations) -> None:
        """Execute one operation set with the full recovery pipeline."""
        # A plan's set list is passed through as it is, so a bound program
        # recognises its set by identity.
        ops = operations if isinstance(operations, list) else list(operations)
        if not ops:
            return
        try:
            self._launch(ops)
        except ExecutionError:
            if not self._in_execute:
                self._stats.errors += 1
            raise

    # -- recovery pipeline ---------------------------------------------
    def _launch(self, ops: List[Operation]) -> None:
        try:
            self._launch_with_retries(ops)
        except ExecutionError as exc:
            if not exc.retryable:
                # A spent deadline (or other terminal condition) cannot
                # be cured by degradation — propagate immediately.
                raise
            if not (self.policy.degrade and len(ops) > 1):
                raise
            # Graceful degradation: the batched launch keeps faulting, so
            # run the set one operation per launch (§VII-C's baseline
            # mode), each with a fresh retry budget.
            self._stats.degraded += 1
            get_recorder().count("repro_degraded_sets_total")
            for op in ops:
                self._launch_with_retries([op])

    def _launch_with_retries(self, ops: List[Operation]) -> None:
        failures = 0
        underflows = 0
        while True:
            try:
                self._inner.update_partials_set(ops)
                if self.policy.verify:
                    self._verify_destinations(ops)
                return
            except (DeviceFault, AllocationError, NumericalError) as exc:
                self._stats.note(_class_label(exc))
                failures += 1
                if isinstance(exc, NumericalError) and exc.kind == "underflow":
                    underflows += 1
                    if underflows > self.policy.underflow_retries:
                        # Recomputation did not clear it: deterministic
                        # underflow. Degrading cannot help; rescaling
                        # escalation (execute()) is the only cure.
                        raise
                if failures > self.policy.max_retries:
                    raise
                self._stats.retried += 1
                get_recorder().count("repro_retry_attempts_total")
                delay = self.policy.backoff_seconds(
                    failures, key=self._backoff_key
                )
                if delay > 0.0:
                    self._sleep(delay)

    def _verify_destinations(self, ops: List[Operation]) -> None:
        """Detect NaN/Inf poisoning and underflow in fresh destinations.

        One reduction per launch: each destination's per-pattern maxima,
        over a view of the store when the destinations step by one stride
        (every set under the set-ordered numbering), else gathered in
        cache-sized chunks. The launch is clean when the smallest maximum
        is at least the threshold and finite and the largest is below
        +inf (NaN fails both); only otherwise are the destinations sorted
        into poisoned and underflowed, in operation order.
        """
        inner = self._inner
        store, base = inner._partials, inner.tip_count
        destinations = [op.destination for op in ops]
        first, n = destinations[0], len(destinations)
        stride = destinations[1] - first if n > 1 else 1
        if stride and destinations == list(range(first, first + stride * n, stride)):
            maxima = pattern_maxima(store[first - base :: stride][:n])
        else:
            rows = np.array(destinations, dtype=np.int64) - base
            chunk = batch_rows(inner)
            # The gather copies at most ``chunk`` rows at a time.
            maxima = np.concatenate(
                [
                    pattern_maxima(store[rows[start : start + chunk]])
                    for start in range(0, n, chunk)
                ]
            )
        low = maxima.min()
        if (
            low >= self._underflow_threshold
            and low > -math.inf
            and maxima.max() < math.inf
        ):
            return
        finite = np.isfinite(maxima).all(axis=1)
        vanishing = maxima.min(axis=1) < self._underflow_threshold
        poisoned = [int(d) for d, bad in zip(destinations, ~finite) if bad]
        underflowed = [
            int(d) for d, bad in zip(destinations, finite & vanishing) if bad
        ]
        if poisoned:
            raise NumericalError(
                f"non-finite partials in buffers {poisoned}",
                kind="nan",
                buffers=poisoned,
                n_operations=len(ops),
            )
        if underflowed:
            raise NumericalError(
                f"partials underflow in buffers {underflowed}",
                kind="underflow",
                buffers=underflowed,
                n_operations=len(ops),
            )

    # -- plan-level execution with rescaling escalation ----------------
    def execute(self, plan, *, update_matrices: bool = True) -> float:
        """Run an execution plan end to end, recovering what is
        recoverable; returns the root log-likelihood.

        Equivalent to :func:`repro.core.planner.execute_plan` on a
        healthy device. On top of the per-launch pipeline it detects
        underflow that reached the root (non-finite or vanishing
        likelihood) and — when ``policy.rescale`` is set — escalates to
        a rescaling plan built from the same tree. Escalations are
        remembered, so later calls with the same plan object run the
        scaled plan directly.
        """
        escalated = self._escalations.get(id(plan))
        if escalated is not None:
            plan = escalated[1]
        self._in_execute = True
        try:
            return self._execute_guarded(plan, update_matrices)
        finally:
            self._in_execute = False

    def _execute_guarded(self, plan, update_matrices: bool) -> float:
        from ..core.planner import execute_plan

        for attempt in range(2):
            try:
                ll = execute_plan(self, plan, update_matrices=update_matrices)
            except NumericalError as exc:
                if not self._escalatable(exc, plan):
                    self._stats.errors += 1
                    raise
                return self._rescue(plan, update_matrices)
            except ExecutionError:
                # Retry/degradation exhausted on a device fault: it
                # surfaces to the caller, counted exactly once.
                self._stats.errors += 1
                raise
            if not self._suspicious(ll, plan):
                return ll
            if attempt == 0:
                # Root-level detection (covers verify=False and silent
                # poisoning of the root buffer): one clean recomputation
                # first — injected corruption clears, genuine underflow
                # recurs.
                self._stats.note("underflow")
                self._stats.retried += 1
                get_recorder().count("repro_retry_attempts_total")
        if plan.scaling or not self.policy.rescale:
            self._stats.errors += 1
            raise NumericalError(
                "likelihood underflow persists and rescaling escalation "
                "is unavailable",
                kind="underflow",
            )
        return self._rescue(plan, update_matrices)

    def _escalatable(self, exc: NumericalError, plan) -> bool:
        return (
            self.policy.rescale
            and exc.kind == "underflow"
            and not plan.scaling
        )

    def _suspicious(self, ll: float, plan) -> bool:
        """Did underflow reach the root reduction?"""
        if not math.isfinite(ll):
            return True
        if plan.scaling:
            return False
        slot = plan.root_buffer - self._inner.tip_count
        per_pattern_max = pattern_maxima(self._inner._partials[slot])
        return float(per_pattern_max.min()) < self._underflow_threshold

    def _rescue(self, plan, update_matrices: bool) -> float:
        """Rescaling escalation: enable scale buffers, re-plan, re-run."""
        from ..core.planner import execute_plan, make_plan

        tree = plan.tree
        self._inner.enable_scaling(tree.n_tips)
        scaled = make_plan(tree, plan.mode, scaling=True)
        try:
            ll = execute_plan(self, scaled, update_matrices=update_matrices)
        except ExecutionError:
            self._stats.errors += 1
            raise
        if not math.isfinite(ll):
            self._stats.errors += 1
            raise NumericalError(
                "likelihood is non-finite even after rescaling escalation",
                kind="underflow",
            )
        self._stats.rescued += 1
        get_recorder().count("repro_rescues_total")
        self._escalations[id(plan)] = (plan, scaled)
        return ll
