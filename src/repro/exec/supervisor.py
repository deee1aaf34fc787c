"""Pool workers and the health supervisor.

A :class:`PoolWorker` is one logical likelihood engine slot: it owns a
persistent seeded fault stream (so chaos runs replay), an optional
silent-corruption factor, an optional shared race detector, a per-worker
:class:`~repro.exec.resilient.FaultStats` ledger and a
:class:`~repro.exec.health.CircuitBreaker`. Each job's instance runs
through the stack :func:`~repro.exec.stack.build_stack` composes from
those parts, in the one order that module documents.

The :class:`Supervisor` decides, per dispatch, whether a worker may take
a job — running the sentinel health check when one is due (periodic
cadence or a half-open circuit's probe) and evicting workers that fail
it. It is pure bookkeeping over worker state; the pool serialises calls
into it, so it needs no locking of its own.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from .faults import FaultSchedule, FaultSpec
from .health import CircuitBreaker, Deadline, Sentinel
from .resilient import FaultStats, RetryPolicy
from .stack import build_stack, run_plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.sanitizer import RaceDetector

__all__ = ["PoolWorker", "Supervisor"]

Clock = Callable[[], float]
MakeCase = Callable[[], Tuple[object, object]]


class PoolWorker:
    """One engine slot of a :class:`~repro.exec.pool.LikelihoodPool`.

    Parameters
    ----------
    worker_id:
        Stable index of this worker within its pool; doubles as the
        jitter key for :meth:`~repro.exec.resilient.RetryPolicy.backoff_seconds`.
    policy:
        Recovery policy for the resilient facade; ``None`` runs the bare
        engine (fail fast — every fault escapes to the pool).
    fault_spec:
        Optional seeded chaos stream. The :class:`FaultSchedule` persists
        across jobs, so a worker's fault sequence depends only on its
        seed and the launches it attempts.
    bias:
        Optional silent-corruption factor (see
        :class:`~repro.exec.faults.BiasInjector`); models a device that
        returns finite but wrong results.
    failure_threshold, cooldown_s, clock:
        Circuit-breaker configuration.
    sleep:
        Backoff sleeper forwarded to the resilient facade.
    detector:
        Optional shared shadow-state race detector
        (:class:`~repro.analysis.sanitizer.RaceDetector`); when set, the
        stack records every buffer access of this worker's engines.
    """

    def __init__(
        self,
        worker_id: int,
        *,
        policy: Optional[RetryPolicy] = None,
        fault_spec: Optional[FaultSpec] = None,
        bias: Optional[float] = None,
        failure_threshold: int = 3,
        cooldown_s: float = 0.05,
        clock: Clock = time.monotonic,
        sleep: Optional[Callable[[float], None]] = None,
        detector: Optional["RaceDetector"] = None,
    ) -> None:
        self.id = worker_id
        self.policy = policy
        self.bias = bias
        self.detector = detector
        self.schedule: Optional[FaultSchedule] = (
            FaultSchedule(fault_spec)
            if fault_spec is not None and fault_spec.rate > 0.0
            else None
        )
        self.breaker = CircuitBreaker(
            failure_threshold=failure_threshold,
            cooldown_s=cooldown_s,
            clock=clock,
        )
        self.stats = FaultStats()
        self._sleep = sleep
        #: Job indices completed since this worker's last clean sentinel
        #: probe — the set a failed probe sends back for re-execution.
        self.unaudited: List[int] = []
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_since_probe = 0
        self.probes = 0

    # ------------------------------------------------------------------
    def build_stack(self, instance, deadline: Optional[Deadline] = None):
        """This worker's engine stack around a fresh instance (see
        :func:`~repro.exec.stack.build_stack`)."""
        return build_stack(
            instance,
            detector=self.detector,
            bias=self.bias,
            schedule=self.schedule,
            deadline=deadline,
            policy=self.policy,
            stats=self.stats,
            sleep=self._sleep,
            backoff_key=self.id,
        )

    def execute(
        self, make_case: MakeCase, deadline: Optional[Deadline] = None
    ) -> float:
        """Build a fresh case, run it through the stack, return the LL."""
        instance, plan = make_case()
        return self.execute_stack(instance, plan, deadline)

    def execute_stack(
        self, instance, plan, deadline: Optional[Deadline] = None
    ) -> float:
        """Run one evaluation through this worker's full engine stack."""
        try:
            return run_plan(self.build_stack(instance, deadline), plan)
        except Exception:
            if self.policy is None:
                # No resilient facade to count the escape — keep the
                # ledger honest at the worker level.
                self.stats.errors += 1
            raise
        finally:
            self.stats.count_injected(self.schedule)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PoolWorker {self.id} {self.breaker.state} "
            f"done={self.jobs_completed} failed={self.jobs_failed}>"
        )


class Supervisor:
    """Health supervision over a fixed set of workers.

    Parameters
    ----------
    workers:
        The pool's workers (owned by the pool; the supervisor only reads
        and updates their health state).
    sentinel:
        The known-answer probe. Built lazily if omitted.
    health_check_every:
        Run a sentinel probe on a worker after this many completed jobs;
        ``0`` disables the periodic cadence (half-open probes and the
        pool's final audit still run).
    """

    def __init__(
        self,
        workers: Sequence[PoolWorker],
        *,
        sentinel: Optional[Sentinel] = None,
        health_check_every: int = 0,
    ) -> None:
        if health_check_every < 0:
            raise ValueError("health_check_every must be non-negative")
        self.workers = list(workers)
        self.sentinel = sentinel or Sentinel()
        self.health_check_every = health_check_every
        self.probes = 0
        self.probe_failures = 0
        #: Typed errors that escaped worker stacks *during probes* — kept
        #: apart from job failures so the pool's ledger identity
        #: (worker errors == rerouted + surfaced + probe errors) closes.
        self.probe_errors = 0

    # ------------------------------------------------------------------
    def probe(self, worker: PoolWorker) -> bool:
        """Run the sentinel through the worker's stack; update health.

        A passing probe closes a half-open circuit and marks all of the
        worker's completed-since-last-probe jobs as audited. A failing
        probe evicts the worker (half-open failure or silent corruption)
        and leaves :attr:`PoolWorker.unaudited` for the pool to rescue.
        """
        healthy, errors_delta = self.run_probe(worker)
        return self.record_probe(worker, healthy, errors_delta)

    def run_probe(self, worker: PoolWorker) -> Tuple[bool, int]:
        """Evaluate the sentinel on the worker's stack.

        Touches only the worker's own state (never shared supervisor
        counters), so a pool thread may run it without holding the pool
        lock — probes can sleep through retry backoff, and serialising
        them would stall every other worker's dispatch. Returns
        ``(healthy, escaped_error_count)`` for :meth:`record_probe`.
        """
        errors_before = worker.stats.errors
        try:
            value = worker.execute(self.sentinel.make_case)
            healthy = self.sentinel.passes(value)
        except Exception:
            healthy = False
        return healthy, worker.stats.errors - errors_before

    def record_probe(
        self, worker: PoolWorker, healthy: bool, errors_delta: int
    ) -> bool:
        """Fold a probe result into shared health state (pool-locked)."""
        self.probes += 1
        worker.probes += 1
        worker.jobs_since_probe = 0
        self.probe_errors += errors_delta
        if healthy:
            worker.breaker.record_success()
            worker.unaudited.clear()
            return True
        self.probe_failures += 1
        # Whether the probe crashed or returned a wrong value, this
        # worker cannot be trusted again: evict. (A half-open breaker
        # would reach the same state via record_failure; silent
        # corruption in the CLOSED state must jump straight there.)
        worker.breaker.evict()
        return False

    #: Admission decisions (see :meth:`admission`).
    REFUSE = "refuse"
    PROBE = "probe"
    ADMIT = "admit"

    def admission(self, worker: PoolWorker) -> str:
        """Dispatch decision for a worker, without side effects.

        ``ADMIT`` — take a job now; ``REFUSE`` — evicted or cooling
        down; ``PROBE`` — a sentinel probe is due (half-open circuit or
        periodic cadence) and must pass before the worker takes a job.
        """
        breaker = worker.breaker
        if breaker.evicted:
            return self.REFUSE
        if breaker.wants_probe():
            return self.PROBE
        if not breaker.available():
            return self.REFUSE  # open, still cooling down
        if (
            self.health_check_every > 0
            and worker.jobs_since_probe >= self.health_check_every
        ):
            return self.PROBE
        return self.ADMIT

    def acquire(self, worker: PoolWorker) -> bool:
        """May this worker take a job right now? Probes when one is due."""
        decision = self.admission(worker)
        if decision == self.PROBE:
            return self.probe(worker)
        return decision == self.ADMIT

    # ------------------------------------------------------------------
    def record_success(self, worker: PoolWorker, job_index: int) -> None:
        worker.breaker.record_success()
        worker.jobs_completed += 1
        worker.jobs_since_probe += 1
        worker.unaudited.append(job_index)

    def record_failure(self, worker: PoolWorker) -> None:
        worker.breaker.record_failure()
        worker.jobs_failed += 1

    # ------------------------------------------------------------------
    def alive(self) -> List[PoolWorker]:
        """Workers not (yet) evicted."""
        return [w for w in self.workers if not w.breaker.evicted]

    def evicted(self) -> List[int]:
        """Ids of evicted workers."""
        return [w.id for w in self.workers if w.breaker.evicted]

    def audit_pending(self) -> List[PoolWorker]:
        """Non-evicted workers holding completions not yet vouched for."""
        return [
            w for w in self.workers if w.unaudited and not w.breaker.evicted
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Supervisor workers={len(self.workers)} "
            f"evicted={self.evicted()} probes={self.probes}>"
        )
