"""Deterministic, seed-driven fault injection.

Long phylogenetic runs die in the partials kernel — the paper's §VIII
measures >0.9 of MCMC time there — so that is where faults are injected:
every kernel-launch *attempt* draws once from a seeded RNG stream and, at
the configured rate, suffers one of five fault classes. The draw sequence
depends only on the seed and the sequence of attempts, so a failing run
replays exactly under the same seed, and a recovered run can be compared
bit-for-bit against its fault-free twin (the property the test suite
enforces).

Fault classes
-------------
``launch``
    :class:`~repro.exec.errors.KernelLaunchError` raised before any state
    changes — the launch never started.
``transient``
    :class:`~repro.exec.errors.TransientDeviceError` raised before the
    destination buffers are written (the engine recomputes destinations
    wholesale, so pre-write is equivalent to mid-run for recovery).
``alloc``
    :class:`~repro.exec.errors.AllocationError` — simulated device OOM.
``nan``
    The launch "succeeds" but one destination partials buffer is poisoned
    with NaN — the silent-corruption mode GPUs exhibit under ECC-less
    memory faults. Only detectable by checking the buffers.
``underflow``
    One destination buffer is scaled down below the underflow detection
    threshold (denormal range) — silently wrong results unless the
    resilience layer checks magnitudes.

:class:`FaultInjector` wraps a :class:`~repro.beagle.instance.BeagleInstance`
(anything with its ``update_partials_*`` surface) and applies the schedule
to each launch attempt; :class:`FaultSchedule` is the seeded stream
itself, which a pool worker keeps across jobs so its faults persist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    AllocationError,
    KernelLaunchError,
    TransientDeviceError,
)

__all__ = [
    "FAULT_CLASSES",
    "SHARD_FAULT_CLASSES",
    "FaultSpec",
    "FaultSchedule",
    "FaultInjector",
    "BiasInjector",
    "ShardFaultSpec",
    "ShardFaultSchedule",
]

#: Every fault class the injector knows, in draw order.
FAULT_CLASSES: Tuple[str, ...] = (
    "launch",
    "transient",
    "alloc",
    "nan",
    "underflow",
)

#: Shard-scoped fault classes, drawn per (shard, attempt) rather than per
#: kernel launch. Kept separate from :data:`FAULT_CLASSES` so existing
#: seeded launch-level streams stay bit-identical.
#:
#: ``shard_lost``
#:     The shard's worker dies mid-evaluation — the job surfaces a
#:     transient device error and the shard must be retried elsewhere.
#: ``shard_stall``
#:     The shard becomes a straggler: its evaluation blocks until the
#:     straggler deadline fires, exercising speculation/cancellation.
#: ``shard_underflow``
#:     The shard's partials are dragged into the denormal range, forcing
#:     the per-shard rescaling escalation path.
SHARD_FAULT_CLASSES: Tuple[str, ...] = (
    "shard_lost",
    "shard_stall",
    "shard_underflow",
)

#: Fault classes raised before the launch executes (state untouched).
RAISED_BEFORE_EXECUTION = frozenset({"launch", "transient", "alloc"})


def underflow_poison_factor(dtype: np.dtype) -> float:
    """Scale factor that drags healthy partials under the detection
    threshold of the matching dtype without leaving the representable
    (denormal) range."""
    if np.dtype(dtype) == np.dtype(np.float32):
        return 1e-35
    return 1e-250


@dataclass(frozen=True)
class FaultSpec:
    """Configuration of one deterministic fault stream.

    Parameters
    ----------
    rate:
        Per-launch-attempt fault probability in ``[0, 1]``.
    seed:
        Seed of the injection RNG stream (independent of every other RNG
        in the system).
    classes:
        Fault classes to draw from, uniformly. Defaults to all five.
    batched_only:
        Restrict injection to batched (multi-operation) launches — the
        configuration that exercises graceful degradation: per-operation
        fallback launches then always succeed.
    max_faults:
        Stop injecting after this many faults (``None`` = unlimited); a
        bounded budget guarantees eventual success however small the
        retry budget.
    """

    rate: float = 0.0
    seed: int = 0
    classes: Tuple[str, ...] = FAULT_CLASSES
    batched_only: bool = False
    max_faults: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("fault rate must be within [0, 1]")
        unknown = set(self.classes) - set(FAULT_CLASSES)
        if unknown:
            raise ValueError(f"unknown fault classes: {sorted(unknown)}")
        if not self.classes and self.rate > 0.0:
            raise ValueError("a positive fault rate needs at least one class")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError("max_faults must be non-negative")


class FaultSchedule:
    """The seeded draw stream: one decision per launch attempt.

    Deterministic given ``spec``: attempt ``i`` of any run with the same
    spec receives the same decision, regardless of what the engine does
    with it.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._rng = np.random.default_rng(spec.seed)
        self.attempts = 0
        self.injected = 0
        self.by_class: Dict[str, int] = {}

    def draw(self, *, batched: bool = True) -> Optional[str]:
        """Fault class for the next launch attempt, or ``None``."""
        self.attempts += 1
        if self.spec.rate <= 0.0:
            return None
        if (
            self.spec.max_faults is not None
            and self.injected >= self.spec.max_faults
        ):
            return None
        # Draw both values unconditionally so the stream consumed per
        # attempt has constant length: decisions for attempt i never
        # depend on whether attempt i-1 targeted a batched launch.
        hit = self._rng.random() < self.spec.rate
        which = int(self._rng.integers(len(self.spec.classes)))
        if not hit or (self.spec.batched_only and not batched):
            return None
        fault = self.spec.classes[which]
        self.injected += 1
        self.by_class[fault] = self.by_class.get(fault, 0) + 1
        return fault


@dataclass(frozen=True)
class ShardFaultSpec:
    """Configuration of a deterministic *shard-scoped* fault stream.

    Unlike :class:`FaultSpec`, decisions are not drawn from a sequential
    stream: each ``(shard_index, attempt)`` pair gets its own derived
    seed, so the decision for a shard never depends on how many other
    shards ran before it — retries, speculation, and completion order
    cannot shift which shards fault.
    """

    rate: float = 0.0
    seed: int = 0
    classes: Tuple[str, ...] = SHARD_FAULT_CLASSES
    max_faults: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("fault rate must be within [0, 1]")
        unknown = set(self.classes) - set(SHARD_FAULT_CLASSES)
        if unknown:
            raise ValueError(f"unknown shard fault classes: {sorted(unknown)}")
        if not self.classes and self.rate > 0.0:
            raise ValueError("a positive fault rate needs at least one class")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError("max_faults must be non-negative")


class ShardFaultSchedule:
    """Seeded per-(shard, attempt) fault decisions.

    ``draw(shard_index, attempt)`` is a pure function of the spec and its
    arguments (modulo the global ``max_faults`` budget): the same shard's
    same attempt always receives the same decision, so a resumed or
    replayed run reproduces the exact fault history.
    """

    def __init__(self, spec: ShardFaultSpec) -> None:
        self.spec = spec
        self.injected = 0
        self.by_class: Dict[str, int] = {}

    def draw(self, shard_index: int, attempt: int) -> Optional[str]:
        """Fault class for this shard attempt, or ``None``."""
        if self.spec.rate <= 0.0:
            return None
        if (
            self.spec.max_faults is not None
            and self.injected >= self.spec.max_faults
        ):
            return None
        rng = np.random.default_rng(
            (self.spec.seed, 0x5AD5, shard_index, attempt)
        )
        hit = rng.random() < self.spec.rate
        which = int(rng.integers(len(self.spec.classes)))
        if not hit:
            return None
        fault = self.spec.classes[which]
        self.injected += 1
        self.by_class[fault] = self.by_class.get(fault, 0) + 1
        return fault


@dataclass
class InjectionLog:
    """What the injector actually did, for accounting and debugging."""

    injected: int = 0
    by_class: Dict[str, int] = field(default_factory=dict)
    poisoned_buffers: int = 0

    def record(self, fault: str) -> None:
        """Count one injected fault of class ``fault``."""
        self.injected += 1
        self.by_class[fault] = self.by_class.get(fault, 0) + 1


class FaultInjector:
    """Wrap an engine instance; inject scheduled faults into its launches.

    Every attribute not intercepted here delegates to the wrapped
    instance, so a ``FaultInjector`` drops into any code path that takes
    a :class:`~repro.beagle.instance.BeagleInstance` — including
    :func:`repro.core.planner.execute_plan` and
    :class:`~repro.exec.resilient.ResilientInstance`.

    Parameters
    ----------
    inner:
        The instance to wrap.
    spec:
        Fault stream configuration (or pass ``schedule`` directly).
    schedule:
        Pre-built :class:`FaultSchedule`; overrides ``spec``.
    """

    def __init__(
        self,
        inner,
        spec: Optional[FaultSpec] = None,
        *,
        schedule: Optional[FaultSchedule] = None,
    ) -> None:
        self._inner = inner
        self.schedule = schedule or FaultSchedule(spec or FaultSpec())
        self.log = InjectionLog()
        self._launch_counter = 0

    # -- delegation ----------------------------------------------------
    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    @property
    def inner(self):
        """The wrapped instance."""
        return self._inner

    # -- intercepted launch surface ------------------------------------
    def update_partials_set(self, operations) -> None:
        """One batched launch attempt, with scheduled fault injection."""
        ops = list(operations)
        if not ops:
            return
        self._attempt(ops, batched=len(ops) > 1)

    def update_partials_serial(self, operations) -> None:
        """Per-operation launches: one fault decision per operation."""
        for op in operations:
            self._attempt([op], batched=False)

    # -- mechanics -----------------------------------------------------
    def _attempt(self, ops, *, batched: bool) -> None:
        index = self._launch_counter
        self._launch_counter += 1
        fault = self.schedule.draw(batched=batched)
        if fault is not None:
            self.log.record(fault)
        if fault in RAISED_BEFORE_EXECUTION:
            self._raise(fault, index, len(ops))
        if batched:
            self._inner.update_partials_set(ops)
        else:
            self._inner.update_partials_serial(ops)
        if fault in ("nan", "underflow"):
            self._poison(fault, ops)

    def _raise(self, fault: str, index: int, n_ops: int) -> None:
        if fault == "launch":
            raise KernelLaunchError(
                f"injected kernel-launch failure (launch {index})",
                launch_index=index,
                n_operations=n_ops,
            )
        if fault == "transient":
            raise TransientDeviceError(
                f"injected transient device error (launch {index})",
                launch_index=index,
                n_operations=n_ops,
            )
        raise AllocationError(
            f"injected device allocation failure (launch {index})",
            launch_index=index,
            n_operations=n_ops,
        )

    def _poison(self, fault: str, ops) -> None:
        """Corrupt one destination buffer of a completed launch."""
        # Deterministic victim choice: first destination of the set. The
        # stream already randomises *which launches* fault; randomising
        # the victim as well would burn draws and buy no extra coverage.
        destination = ops[0].destination
        slot = destination - self._inner.tip_count
        buffer = self._inner._partials[slot]
        if fault == "nan":
            buffer[0, ...] = np.nan
        else:
            buffer *= underflow_poison_factor(buffer.dtype)
        self.log.poisoned_buffers += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.schedule.spec
        return (
            f"<FaultInjector rate={s.rate} seed={s.seed} "
            f"injected={self.log.injected} around {self._inner!r}>"
        )


class BiasInjector:
    """Silently corrupting engine wrapper: finite, plausible, wrong.

    After every successful launch the destination partials are scaled by
    a constant ``factor`` close to 1 — the failure mode of a device with
    a sick multiplier or mis-clocked memory: results stay finite and
    well-conditioned, so neither the NaN/Inf check nor the underflow
    threshold of :class:`~repro.exec.resilient.ResilientInstance` can
    see anything wrong. Only an *end-to-end* comparison against a known
    answer — the pool's sentinel health check
    (:class:`~repro.exec.health.Sentinel`) — exposes such a worker.

    Deterministic by construction (no randomness), so a corrupted run
    replays exactly.
    """

    def __init__(self, inner, factor: float = 1.05) -> None:
        if not factor > 0.0:
            raise ValueError("bias factor must be positive")
        self._inner = inner
        self.factor = float(factor)
        self.corrupted_launches = 0

    # -- delegation ----------------------------------------------------
    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    @property
    def inner(self):
        """The wrapped instance."""
        return self._inner

    # -- intercepted launch surface ------------------------------------
    def update_partials_set(self, operations) -> None:
        """Forward a batched launch, then corrupt the destinations."""
        ops = list(operations)
        self._inner.update_partials_set(ops)
        self._corrupt(ops)

    def update_partials_serial(self, operations) -> None:
        """Forward per-operation launches, then corrupt the destinations."""
        ops = list(operations)
        self._inner.update_partials_serial(ops)
        self._corrupt(ops)

    def _corrupt(self, ops) -> None:
        tip_count = self._inner.tip_count
        for op in ops:
            self._inner._partials[op.destination - tip_count] *= self.factor
        if ops:
            self.corrupted_launches += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BiasInjector factor={self.factor} around {self._inner!r}>"
