"""Worker health machinery: deadlines, circuit breakers, sentinel checks.

Three guards the pool (:mod:`repro.exec.pool`) composes around every
worker, each usable on its own:

* :class:`Deadline` / :class:`DeadlineGuard` — cooperative wall-clock
  budgets. The guard wraps an engine's launch surface and raises a typed
  :class:`~repro.exec.errors.DeadlineExceeded` at the next launch
  boundary once the budget is spent, so a wedged or slow evaluation
  cannot pin a worker (or a ``synthetictest`` run) forever.
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine per worker: ``failure_threshold`` *consecutive* failures open
  the circuit, a cooldown later one probe is allowed through
  (half-open), and a failed probe permanently **evicts** the worker.
  Eviction is the terminal state: a device that fails its post-cooldown
  probe is assumed gone for the rest of the run.
* :class:`Sentinel` — a cheap known-answer likelihood (tiny fixed tree,
  JC69, a handful of patterns) whose expected value comes from the
  independent reference oracle
  (:func:`repro.beagle.reference.pruning_log_likelihood`). Crashing
  workers announce themselves; *silently corrupting* workers (finite but
  wrong results, e.g. :class:`~repro.exec.faults.BiasInjector`) are only
  caught by comparing an end-to-end answer against ground truth, which
  is exactly what the sentinel does.

Every component takes an injectable ``clock`` so tests drive time
explicitly and chaos runs stay replayable.
"""

from __future__ import annotations

import math
import time
from typing import Callable, List, Optional, Tuple

from ..beagle.instance import InstanceWrapper
from ..obs import get_recorder
from .errors import DeadlineExceeded

__all__ = [
    "Deadline",
    "DeadlineGuard",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "EVICTED",
    "Sentinel",
]

Clock = Callable[[], float]


class Deadline:
    """A wall-clock budget, checked cooperatively.

    Parameters
    ----------
    seconds:
        The budget. ``None`` means unbounded (every check passes).
    clock:
        Monotonic time source; injectable for tests.
    """

    def __init__(
        self, seconds: Optional[float], *, clock: Clock = time.monotonic
    ) -> None:
        if seconds is not None and seconds <= 0.0:
            raise ValueError("deadline must be positive (or None)")
        self.seconds = seconds
        self._clock = clock
        self._start = clock()

    @property
    def elapsed(self) -> float:
        """Seconds consumed since the deadline started."""
        return self._clock() - self._start

    @property
    def remaining(self) -> float:
        """Seconds left in the budget (``inf`` when unbounded)."""
        if self.seconds is None:
            return math.inf
        return self.seconds - self.elapsed

    @property
    def expired(self) -> bool:
        """Has the wall-clock budget been spent?"""
        return self.remaining < 0.0

    def check(self, what: str = "evaluation") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.seconds is None:
            return
        elapsed = self.elapsed
        if elapsed > self.seconds:
            raise DeadlineExceeded(
                f"{what} exceeded its {self.seconds * 1e3:.0f} ms deadline "
                f"({elapsed * 1e3:.0f} ms elapsed)",
                budget_s=self.seconds,
                elapsed_s=elapsed,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Deadline {self.seconds!r}s elapsed={self.elapsed:.3f}s>"


class DeadlineGuard(InstanceWrapper):
    """Wrap an engine's launch surface with a deadline check per launch.

    Sits *inside* a :class:`~repro.exec.resilient.ResilientInstance` (the
    resilient facade's retries each go through the guard), so a retry
    storm cannot run past the budget: the next attempt raises
    :class:`~repro.exec.errors.DeadlineExceeded`, which is marked
    non-retryable and punches straight through the recovery pipeline.

    Enforcement is cooperative — a launch already in flight finishes —
    which matches what real devices offer: kernels are not preemptible,
    but the host can refuse to issue the next one.
    """

    def __init__(self, inner, deadline: Deadline) -> None:
        super().__init__(inner)
        self.deadline = deadline

    def update_partials_set(self, operations) -> None:
        """Forward one launch after checking the deadline."""
        self.deadline.check("launch")
        self._inner.update_partials_set(operations)


#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"
EVICTED = "evicted"


class CircuitBreaker:
    """Per-worker circuit breaker with permanent eviction.

    State machine::

        CLOSED --K consecutive failures--> OPEN
        OPEN --cooldown elapsed--> HALF_OPEN (exactly one probe admitted)
        HALF_OPEN --probe success--> CLOSED
        HALF_OPEN --probe failure--> EVICTED (terminal)

    Parameters
    ----------
    failure_threshold:
        Consecutive failures (successes reset the count) that open the
        circuit.
    cooldown_s:
        Seconds the circuit stays open before one half-open probe is
        allowed.
    clock:
        Monotonic time source; injectable for tests.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown_s: float = 0.05,
        clock: Clock = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown_s < 0.0:
            raise ValueError("cooldown must be non-negative")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._state = CLOSED
        self._opened_at = 0.0
        self.consecutive_failures = 0
        self.times_opened = 0
        #: Every state change as ``(from, to)`` pairs, in order. The
        #: half-open probe *outcome* (``half-open → closed`` or
        #: ``half-open → evicted``) is therefore first-class data, not
        #: something to be reconstructed from supervisor logs; each
        #: transition is also exported to :mod:`repro.obs` as the typed
        #: counter ``repro_breaker_transitions_total{from,to}``.
        self.transitions: List[Tuple[str, str]] = []

    def _set_state(self, new_state: str) -> None:
        """Move to ``new_state``, recording and exporting the transition."""
        old_state = self._state
        if old_state == new_state:
            return
        self._state = new_state
        self.transitions.append((old_state, new_state))
        obs = get_recorder()
        if obs.enabled:
            obs.metrics.counter(
                "repro_breaker_transitions_total",
                "Circuit-breaker state transitions, by (from, to) edge",
                labels={"from": old_state, "to": new_state},
            ).inc()

    @property
    def state(self) -> str:
        """Current state, promoting OPEN → HALF_OPEN when cooled down."""
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._set_state(HALF_OPEN)
        return self._state

    @property
    def evicted(self) -> bool:
        """Has the breaker permanently removed its worker?"""
        return self._state == EVICTED

    def available(self) -> bool:
        """May this worker take a regular job right now?"""
        return self.state == CLOSED

    def wants_probe(self) -> bool:
        """Is the breaker half-open, waiting for its one probe?"""
        return self.state == HALF_OPEN

    def cooldown_remaining(self) -> float:
        """Seconds until an OPEN circuit goes half-open (0 otherwise)."""
        if self.state != OPEN:
            return 0.0
        return self.cooldown_s - (self._clock() - self._opened_at)

    def record_success(self) -> None:
        """A job (or probe) succeeded on this worker."""
        if self._state == EVICTED:
            return
        self.consecutive_failures = 0
        if self._state in (OPEN, HALF_OPEN):
            self._set_state(CLOSED)

    def record_failure(self) -> None:
        """A job (or probe) failed on this worker."""
        if self._state == EVICTED:
            return
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            # The one post-cooldown probe failed: the device is gone.
            self._set_state(EVICTED)
        elif self.consecutive_failures >= self.failure_threshold:
            self._set_state(OPEN)
            self._opened_at = self._clock()
            self.times_opened += 1

    def evict(self) -> None:
        """Force the terminal state (sentinel caught silent corruption)."""
        self._set_state(EVICTED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CircuitBreaker {self.state} "
            f"consecutive={self.consecutive_failures}/"
            f"{self.failure_threshold}>"
        )


class Sentinel:
    """Known-answer health probe for likelihood workers.

    A tiny fixed case — balanced 4-tip tree, JC69, a few random-but-seeded
    patterns — whose log-likelihood is computed once by the independent
    reference oracle. A worker is healthy iff evaluating the sentinel
    through its full stack (bias/fault wrappers, resilience, the engine)
    reproduces the oracle's value within ``rel_tol``.

    The tolerance covers oracle-vs-engine rounding only; recoverable
    faults do not move the value at all (recovery is exact), so a probe
    fails only when the worker crashes unrecoverably or silently corrupts
    results.

    Parameters
    ----------
    n_tips, n_patterns, seed:
        Shape and seed of the sentinel case. The defaults cost well under
        a millisecond per probe.
    rel_tol:
        Relative tolerance of the known-answer comparison.
    """

    def __init__(
        self,
        *,
        n_tips: int = 4,
        n_patterns: int = 8,
        seed: int = 20180521,
        rel_tol: float = 1e-9,
    ) -> None:
        import numpy as np

        from ..beagle.reference import pruning_log_likelihood
        from ..core.planner import make_plan
        from ..data.patterns import random_patterns
        from ..models.nucleotide import JC69
        from ..trees.generate import balanced_tree

        self.rel_tol = rel_tol
        self._tree = balanced_tree(n_tips, branch_length=0.1)
        self._model = JC69()
        self._patterns = random_patterns(
            self._tree.tip_names(), n_patterns, rng=np.random.default_rng(seed)
        )
        self._plan = make_plan(self._tree, "concurrent")
        self.expected = pruning_log_likelihood(
            self._tree, self._model, self._patterns
        )

    def make_case(self) -> Tuple[object, object]:
        """A fresh ``(instance, plan)`` pair for one probe."""
        from ..core.planner import create_instance

        instance = create_instance(self._tree, self._model, self._patterns)
        return instance, self._plan

    def passes(self, value: float) -> bool:
        """Does a measured sentinel log-likelihood match the oracle?"""
        return math.isfinite(value) and math.isclose(
            value, self.expected, rel_tol=self.rel_tol
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Sentinel tips={self._tree.n_tips} expected={self.expected:.6f}>"
