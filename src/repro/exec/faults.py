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
(anything with its ``update_partials_set`` launch method) and applies the
schedule to each launch attempt; :class:`FaultSchedule` is the seeded stream
itself, which a pool worker keeps across jobs so its faults persist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..beagle.instance import InstanceWrapper
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

#: Fault classes raised before the launch executes (state untouched),
#: with the error each raises and how its message names it.
_RAISED = {
    "launch": (KernelLaunchError, "kernel-launch failure"),
    "transient": (TransientDeviceError, "transient device error"),
    "alloc": (AllocationError, "device allocation failure"),
}
RAISED_BEFORE_EXECUTION = frozenset(_RAISED)


def _check_spec(spec, known: Tuple[str, ...], what: str) -> None:
    """Validate a fault spec's rate, classes and budget."""
    if not 0.0 <= spec.rate <= 1.0:
        raise ValueError("fault rate must be within [0, 1]")
    unknown = set(spec.classes) - set(known)
    if unknown:
        raise ValueError(f"unknown {what}: {sorted(unknown)}")
    if not spec.classes and spec.rate > 0.0:
        raise ValueError("a positive fault rate needs at least one class")
    if spec.max_faults is not None and spec.max_faults < 0:
        raise ValueError("max_faults must be non-negative")


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
        _check_spec(self, FAULT_CLASSES, "fault classes")


class _Stream:
    """A seeded fault stream's decisions and its injected counts, the one
    place those counts are kept."""

    def __init__(self, spec) -> None:
        self.spec = spec
        self.injected = 0
        self.by_class: Dict[str, int] = {}

    def _spent(self) -> bool:
        """No fault can come: a zero rate, or the budget is used up."""
        spec = self.spec
        return spec.rate <= 0.0 or (
            spec.max_faults is not None and self.injected >= spec.max_faults
        )

    def _decide(self, rng: np.random.Generator, allowed: bool = True) -> Optional[str]:
        """Draw a hit and a class from ``rng`` (always both, so each
        decision consumes the same stream length) and count a fault."""
        hit = rng.random() < self.spec.rate
        which = int(rng.integers(len(self.spec.classes)))
        if not hit or not allowed:
            return None
        fault = self.spec.classes[which]
        self.injected += 1
        self.by_class[fault] = self.by_class.get(fault, 0) + 1
        return fault


class FaultSchedule(_Stream):
    """The seeded draw stream: one decision per launch attempt.

    Deterministic given ``spec``: attempt ``i`` of any run with the same
    spec receives the same decision, regardless of what the engine does
    with it.
    """

    def __init__(self, spec: FaultSpec) -> None:
        super().__init__(spec)
        self._rng = np.random.default_rng(spec.seed)

    def draw(self, *, batched: bool = True) -> Optional[str]:
        """Fault class for the next launch attempt, or ``None``."""
        if self._spent():
            return None
        # Decisions for attempt i never depend on whether attempt i-1
        # targeted a batched launch.
        return self._decide(self._rng, batched or not self.spec.batched_only)


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
        _check_spec(self, SHARD_FAULT_CLASSES, "shard fault classes")


class ShardFaultSchedule(_Stream):
    """Seeded per-(shard, attempt) fault decisions.

    ``draw(shard_index, attempt)`` is a pure function of the spec and its
    arguments (modulo the global ``max_faults`` budget): the same shard's
    same attempt always receives the same decision, so a resumed or
    replayed run reproduces the exact fault history.
    """

    def draw(self, shard_index: int, attempt: int) -> Optional[str]:
        """Fault class for this shard attempt, or ``None``."""
        if self._spent():
            return None
        return self._decide(
            np.random.default_rng((self.spec.seed, 0x5AD5, shard_index, attempt))
        )


class FaultInjector(InstanceWrapper):
    """Wrap an engine instance; inject scheduled faults into its launches.

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
        super().__init__(inner)
        self.schedule = schedule or FaultSchedule(spec or FaultSpec())
        self._launch_counter = 0

    def update_partials_set(self, operations) -> None:
        """One launch attempt, with scheduled fault injection.

        A launch of more than one operation counts as batched for
        :attr:`FaultSpec.batched_only`.
        """
        ops = list(operations)
        if not ops:
            return
        index = self._launch_counter
        self._launch_counter += 1
        fault = self.schedule.draw(batched=len(ops) > 1)
        if fault in RAISED_BEFORE_EXECUTION:
            error, what = _RAISED[fault]
            raise error(
                f"injected {what} (launch {index})",
                launch_index=index,
                n_operations=len(ops),
            )
        self._inner.update_partials_set(ops)
        if fault in ("nan", "underflow"):
            self._poison(fault, ops)

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


class BiasInjector(InstanceWrapper):
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
        super().__init__(inner)
        self.factor = float(factor)

    def update_partials_set(self, operations) -> None:
        """Forward a launch, then corrupt its destinations."""
        ops = list(operations)
        self._inner.update_partials_set(ops)
        tip_count = self._inner.tip_count
        for op in ops:
            self._inner._partials[op.destination - tip_count] *= self.factor
