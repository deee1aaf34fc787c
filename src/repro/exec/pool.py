"""Supervised multi-instance likelihood pool.

:class:`LikelihoodPool` owns N :class:`~repro.exec.supervisor.PoolWorker`
slots and dispatches *independent* likelihood jobs — bootstrap
replicates, partitions, candidate trees — through a bounded work queue.
Each worker runs its jobs through the resilient stack that
:func:`~repro.exec.stack.build_stack` composes, carries a per-worker
circuit breaker, and is health-checked against a known-answer
:class:`~repro.exec.health.Sentinel`.

Dispatch semantics
------------------
* A job's deadline starts at :meth:`LikelihoodPool.submit` — queue wait
  counts against the budget. A budget that expires while the job is
  still queued **sheds** the job; one that expires mid-execution
  **surfaces** the typed :class:`~repro.exec.errors.DeadlineExceeded`
  (the budget is spent; rerouting cannot help).
* A job that fails on a worker with a typed
  :class:`~repro.exec.errors.ExecutionError` is **rerouted** to a worker
  that has not yet failed it; when none remains, the error **surfaces**.
  A worker accumulating ``failure_threshold`` consecutive failures trips
  its breaker (open → cooldown → one half-open probe → closed or
  permanently evicted).
* Admission control: :meth:`submit` raises
  :class:`~repro.exec.errors.PoolSaturatedError` once ``max_pending``
  jobs are queued, rather than buffering without bound.
* After a drain, every worker holding completions not vouched for by a
  sentinel probe is audited; a failing probe evicts the worker and its
  completed jobs are **rescued** — re-executed on healthy workers with a
  fresh budget — so silently-corrupting workers cannot leak wrong
  results into the final answer. Workers already evicted mid-drain get
  no fresh probe; their unvouched completions are rescued
  unconditionally.

Every job submitted is accounted for in exactly one of ``completed``,
``shed`` or ``surfaced`` — no outcome is silently dropped — and job
*values* are bit-identical to serial fault-free evaluation regardless of
worker failure order, because recovery recomputes wholesale and rescue
re-runs land on clean workers.

:class:`PoolStats` declares the ledger identities. The worker-error one
assumes jobs evaluate through their :class:`JobContext` (as every
built-in wiring does); a job function that raises a typed error without
touching its worker cannot be attributed to a worker stack.

Executors
---------
``executor="thread"`` runs one OS thread per worker (likelihood kernels
release no GIL here, but the pool models the concurrency structure of a
multi-device deployment and exercises real interleavings).
``executor="inline"`` dispatches round-robin on the calling thread — a
deterministic scheduler for replayable chaos tests and for measuring
pure dispatch overhead.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..obs import get_recorder
from .errors import (
    DeadlineExceeded,
    ExecutionError,
    NoHealthyWorkersError,
    PoolSaturatedError,
)
from .faults import FaultSpec
from .health import Deadline, Sentinel
from .ledger import Identity, Ledger, total
from .resilient import FaultStats, RetryPolicy
from .supervisor import MakeCase, PoolWorker, Supervisor

__all__ = [
    "Job",
    "JobContext",
    "JobOutcome",
    "PoolStats",
    "LikelihoodPool",
]

Clock = Callable[[], float]
JobFn = Callable[["JobContext"], Any]

#: Outcome statuses.
OK = "ok"
SHED = "shed"
SURFACED = "surfaced"

_UNSET = object()


@dataclass
class JobContext:
    """What a running job sees: its worker and its deadline.

    Job functions take one ``JobContext`` and return their value
    (typically a log-likelihood). Evaluations must go through
    :meth:`execute` or :meth:`evaluate` so they run inside the worker's
    resilient stack and count in its ledger.
    """

    worker: PoolWorker
    deadline: Optional[Deadline] = None

    @property
    def worker_id(self) -> int:
        """Id of the worker running the job."""
        return self.worker.id

    def execute(self, instance, plan) -> float:
        """Run ``(instance, plan)`` through the worker's full stack."""
        return self.worker.execute_stack(instance, plan, self.deadline)

    def evaluate(self, make_case: MakeCase) -> float:
        """Build a fresh case via ``make_case`` and execute it."""
        return self.worker.execute(make_case, self.deadline)


@dataclass
class Job:
    """One unit of pool work (internal bookkeeping)."""

    index: int
    fn: JobFn
    label: str
    budget_s: Optional[float] = None
    deadline: Optional[Deadline] = None
    tried: Set[int] = field(default_factory=set)
    attempts: int = 0
    last_error: Optional[BaseException] = None


@dataclass(frozen=True)
class JobOutcome:
    """Terminal state of one job.

    ``status`` is ``"ok"`` (``value`` holds the result), ``"shed"`` (the
    deadline expired while the job was still queued) or ``"surfaced"``
    (``error`` holds the typed failure). ``cause`` refines non-ok
    outcomes: ``"expired"``, ``"failure"``, ``"unplaced"`` or
    ``"fatal"``.
    """

    index: int
    label: str
    status: str
    value: Any = None
    error: Optional[BaseException] = None
    worker_id: Optional[int] = None
    attempts: int = 0
    cause: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Did the job complete successfully?"""
        return self.status == OK


@dataclass
class PoolStats(Ledger):
    """Aggregate pool ledger: job accounting plus merged worker faults.

    Its identities are declared in ``IDENTITIES``;
    :class:`~repro.exec.ledger.Ledger` derives :meth:`imbalances`,
    :meth:`explain` and the exported gauges.

    Attributes
    ----------
    offered:
        Every :meth:`LikelihoodPool.submit` call, accepted or not.
    rejected:
        Submissions refused by admission control (part of ``shed``).
    completed / shed / surfaced:
        Terminal outcome counts; ``shed`` includes both rejected
        submissions and queue-expired deadlines.
    surfaced_failures:
        The subset of ``surfaced`` caused by a worker failure (the rest
        were unplaceable or fatal).
    failures:
        Job attempts that raised a typed error on a worker.
    rerouted / rescued:
        Failover re-dispatches and post-audit re-executions.
    probes / probe_failures / probe_errors:
        Sentinel health-check traffic.
    evicted:
        Ids of permanently evicted workers.
    faults:
        Per-worker :class:`~repro.exec.resilient.FaultStats` merged,
        with the pool-level ``rerouted``/``shed``/``surfaced`` counters
        folded in.
    """

    workers: int = 0
    offered: int = 0
    rejected: int = 0
    completed: int = 0
    shed: int = 0
    surfaced: int = 0
    surfaced_failures: int = 0
    failures: int = 0
    rerouted: int = 0
    rescued: int = 0
    probes: int = 0
    probe_failures: int = 0
    probe_errors: int = 0
    evicted: Tuple[int, ...] = ()
    faults: FaultStats = field(default_factory=FaultStats)

    IDENTITIES = (
        Identity(
            "offered == completed + shed + surfaced",
            total("offered"),
            total("completed", "shed", "surfaced"),
            "every submitted job reaches exactly one terminal outcome",
        ),
        Identity(
            "failures == rerouted + surfaced_failures",
            total("failures"),
            total("rerouted", "surfaced_failures"),
            "every worker failure is rerouted or surfaced, never lost",
        ),
        Identity(
            "worker errors == failures + probe_errors",
            lambda stats: stats.faults.errors,
            total("failures", "probe_errors"),
            "every worker-stack error is attributed to a job or a probe",
        ),
    )

    def gauges(self) -> Dict[str, int]:
        """The counters, then the evicted-worker and worker-error counts."""
        return {
            **super().gauges(),
            "evicted_workers": len(self.evicted),
            "worker_errors": self.faults.errors,
        }

    def format(self) -> str:
        """One-line summary for logs and ``synthetictest`` output."""
        return (
            f"pool: workers={self.workers} evicted={list(self.evicted)} "
            f"offered={self.offered} completed={self.completed} "
            f"shed={self.shed} surfaced={self.surfaced} "
            f"rerouted={self.rerouted} rescued={self.rescued} "
            f"probes={self.probes} probe_failures={self.probe_failures} | "
            + self.faults.format()
        )


class LikelihoodPool:
    """N supervised likelihood workers behind a bounded work queue.

    Parameters
    ----------
    n_workers:
        Worker slots.
    policy:
        Recovery policy installed on every worker's resilient facade;
        ``None`` runs bare (fail-fast) workers.
    worker_fault_specs:
        Optional per-worker seeded chaos streams (shorter sequences are
        padded with ``None`` = healthy).
    worker_bias:
        Optional ``{worker_id: factor}`` silent-corruption map.
    deadline_s:
        Default per-job wall-clock budget (``None`` = unbounded);
        overridable per :meth:`submit`.
    max_pending:
        Admission-control bound on queued jobs (``None`` = unbounded).
    health_check_every:
        Periodic sentinel cadence, in completed jobs per worker
        (``0`` = only half-open probes and the final audit).
    failure_threshold, cooldown_s:
        Circuit-breaker configuration, per worker.
    executor:
        ``"thread"`` (one thread per worker) or ``"inline"``
        (deterministic round-robin on the calling thread).
    audit:
        Run the final sentinel audit after each drain, rescuing jobs
        completed by workers that fail it.
    sentinel:
        Known-answer probe; built with defaults if omitted.
    sanitize:
        Enable the shadow-state buffer sanitizer
        (:class:`~repro.analysis.sanitizer.RaceDetector`). Every worker
        wraps its engine instances in a
        :class:`~repro.analysis.sanitizer.SanitizedInstance`, so
        unsynchronized cross-thread buffer accesses under the threaded
        executor are detected and reported as offender pairs. Each
        :meth:`drain` is a synchronization barrier (the detector's epoch
        advances), so accesses in different drains never pair. Off by
        default: when off, nothing wraps the engine and overhead is
        zero.
    clock, sleep:
        Injectable time sources for replayable tests.
    """

    def __init__(
        self,
        n_workers: int = 4,
        *,
        policy: Optional[RetryPolicy] = RetryPolicy(),
        worker_fault_specs: Optional[Sequence[Optional[FaultSpec]]] = None,
        worker_bias: Optional[Mapping[int, float]] = None,
        deadline_s: Optional[float] = None,
        max_pending: Optional[int] = 1024,
        health_check_every: int = 0,
        failure_threshold: int = 3,
        cooldown_s: float = 0.05,
        executor: str = "thread",
        audit: bool = True,
        sentinel: Optional[Sentinel] = None,
        sanitize: bool = False,
        clock: Clock = time.monotonic,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("a pool needs at least one worker")
        if executor not in ("thread", "inline"):
            raise ValueError(f"unknown executor {executor!r}")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be positive (or None)")
        specs: List[Optional[FaultSpec]] = list(worker_fault_specs or [])
        if len(specs) > n_workers:
            raise ValueError(
                f"{len(specs)} fault specs for {n_workers} workers"
            )
        specs += [None] * (n_workers - len(specs))
        bias = dict(worker_bias or {})
        unknown = set(bias) - set(range(n_workers))
        if unknown:
            raise ValueError(f"bias for unknown workers: {sorted(unknown)}")

        self.deadline_s = deadline_s
        self.max_pending = max_pending
        self.executor = executor
        self.audit = audit
        self._clock = clock
        self._sleep = sleep or time.sleep
        self.detector = None
        if sanitize:
            from ..analysis.sanitizer import RaceDetector

            self.detector = RaceDetector()
        self.workers = [
            PoolWorker(
                i,
                policy=policy,
                fault_spec=specs[i],
                bias=bias.get(i),
                failure_threshold=failure_threshold,
                cooldown_s=cooldown_s,
                clock=clock,
                sleep=sleep,
                detector=self.detector,
            )
            for i in range(n_workers)
        ]
        self.supervisor = Supervisor(
            self.workers,
            sentinel=sentinel,
            health_check_every=health_check_every,
        )
        self._lock = threading.Lock()
        self._pending: List[Job] = []
        self._next_index = 0
        self._rr = 0
        self._fatal: Optional[BaseException] = None
        # Cumulative job accounting (across drains); stats() adds the
        # supervisor's probe counts and the workers' fault ledgers.
        self._ledger = PoolStats(workers=n_workers)

    # -- submission ----------------------------------------------------
    @property
    def pending(self) -> int:
        """Jobs queued and not yet drained."""
        return len(self._pending)

    def submit(
        self,
        fn: JobFn,
        *,
        label: Optional[str] = None,
        deadline_s=_UNSET,
    ) -> int:
        """Queue one job; returns its index. Raises
        :class:`~repro.exec.errors.PoolSaturatedError` when the queue is
        full. The job's deadline starts *now* — queue wait counts."""
        self._ledger.offered += 1
        if (
            self.max_pending is not None
            and len(self._pending) >= self.max_pending
        ):
            self._ledger.rejected += 1
            self._ledger.shed += 1
            get_recorder().count("repro_pool_shed_total")
            raise PoolSaturatedError(
                f"pool queue full ({self.max_pending} pending); "
                "job rejected by admission control",
                capacity=self.max_pending,
                pending=len(self._pending),
            )
        budget = self.deadline_s if deadline_s is _UNSET else deadline_s
        index = self._next_index
        self._next_index += 1
        self._pending.append(
            Job(
                index=index,
                fn=fn,
                label=label or f"job-{index}",
                budget_s=budget,
                deadline=(
                    Deadline(budget, clock=self._clock)
                    if budget is not None
                    else None
                ),
            )
        )
        return index

    def submit_case(
        self,
        make_case: MakeCase,
        *,
        label: Optional[str] = None,
        deadline_s=_UNSET,
    ) -> int:
        """Queue a job that evaluates one ``(instance, plan)`` case."""
        return self.submit(
            self._case_fn(make_case), label=label, deadline_s=deadline_s
        )

    # -- draining ------------------------------------------------------
    def drain(self) -> List[JobOutcome]:
        """Run every queued job to a terminal outcome; returns outcomes
        in submission order. Never drops a job: each outcome is
        ``ok``, ``shed`` or ``surfaced``."""
        jobs = self._pending
        self._pending = []
        if not jobs:
            return []
        if self.detector is not None:
            # Each drain is a synchronization barrier for the sanitizer:
            # accesses from different drains are ordered and never race.
            self.detector.advance_epoch()
        outcomes: Dict[int, JobOutcome] = {}
        by_index = {job.index: job for job in jobs}
        if self.executor == "inline":
            self._drain_inline(deque(jobs), outcomes)
        else:
            self._drain_threaded(jobs, outcomes)
        if self.audit:
            self._final_audit(by_index, outcomes)
        missing = [job.index for job in jobs if job.index not in outcomes]
        if missing:  # pragma: no cover - accounting invariant
            raise RuntimeError(f"jobs dropped without outcome: {missing}")
        ordered = [outcomes[job.index] for job in jobs]
        self._tally(ordered)
        if self._fatal is not None:
            fatal = self._fatal
            self._fatal = None
            raise fatal
        return ordered

    def map(
        self,
        fns: Sequence[JobFn],
        *,
        labels: Optional[Sequence[str]] = None,
    ) -> List[Any]:
        """Submit ``fns``, drain, and return their values in order.

        Batches larger than ``max_pending`` are submitted and drained
        incrementally, so admission control bounds *queued* work without
        capping batch size. Raises the first non-ok outcome's error
        (jobs already completed are not lost — their workers' ledgers
        retain the accounting).
        """
        by_index: Dict[int, JobOutcome] = {}
        submitted: List[int] = []
        pos = 0
        n = len(fns)
        while pos < n:
            room = (
                n - pos
                if self.max_pending is None
                else self.max_pending - len(self._pending)
            )
            if room <= 0:
                for outcome in self.drain():
                    by_index[outcome.index] = outcome
                continue
            for k in range(min(room, n - pos)):
                submitted.append(
                    self.submit(
                        fns[pos + k],
                        label=labels[pos + k] if labels else None,
                    )
                )
            pos += min(room, n - pos)
        for outcome in self.drain():
            by_index[outcome.index] = outcome
        ordered = [by_index[index] for index in submitted]
        for outcome in ordered:
            if not outcome.ok:
                assert outcome.error is not None
                raise outcome.error
        return [outcome.value for outcome in ordered]

    def map_cases(
        self,
        make_cases: Sequence[MakeCase],
        *,
        labels: Optional[Sequence[str]] = None,
    ) -> List[float]:
        """:meth:`map` over ``(instance, plan)`` case factories."""  # noqa: E501
        return self.map(
            [self._case_fn(mc) for mc in make_cases], labels=labels
        )

    @staticmethod
    def _case_fn(make_case: MakeCase) -> JobFn:
        return lambda ctx: ctx.evaluate(make_case)

    # -- inline executor -----------------------------------------------
    def _drain_inline(
        self, pending: Deque[Job], outcomes: Dict[int, JobOutcome]
    ) -> None:
        while pending:
            job = pending.popleft()
            if job.deadline is not None and job.deadline.expired:
                self._shed(job, outcomes)
                continue
            worker = self._select_inline(job)
            if worker is None:
                if self._eligible(job):
                    # Someone may still recover: wait out the shortest
                    # cooldown and try again.
                    self._sleep(max(self._shortest_cooldown(), 1e-4))
                    pending.appendleft(job)
                    continue
                self._surface_unplaced(job, outcomes)
                continue
            status, payload = self._attempt(job, worker)
            if self._settle(job, worker, status, payload, outcomes):
                pending.append(job)

    def _select_inline(self, job: Job) -> Optional[PoolWorker]:
        """Round-robin over acquirable workers the job has not tried."""
        n = len(self.workers)
        for k in range(n):
            worker = self.workers[(self._rr + k) % n]
            if worker.breaker.evicted or worker.id in job.tried:
                continue
            if self.supervisor.acquire(worker):
                self._rr = (self._rr + k + 1) % n
                return worker
        return None

    def _shortest_cooldown(self) -> float:
        waits = [
            w.breaker.cooldown_remaining() for w in self.supervisor.alive()
        ]
        positive = [t for t in waits if t > 0.0]
        return min(positive) if positive else 1e-4

    # -- threaded executor ---------------------------------------------
    def _drain_threaded(
        self, jobs: List[Job], outcomes: Dict[int, JobOutcome]
    ) -> None:
        alive = self.supervisor.alive()
        if not alive:
            for job in jobs:
                self._surface_unplaced(job, outcomes)
            return
        work: "queue_module.Queue[Job]" = queue_module.Queue()
        for job in jobs:
            work.put(job)
        state = {"remaining": len(jobs)}
        threads = [
            threading.Thread(
                target=self._thread_loop,
                args=(worker, work, outcomes, state),
                name=f"pool-worker-{worker.id}",
                daemon=True,
            )
            for worker in alive
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Workers can all evict mid-drain; whatever is left in the queue
        # (or was requeued after the last worker exited) surfaces.
        while True:
            try:
                job = work.get_nowait()
            except queue_module.Empty:
                break
            if job.index not in outcomes:
                self._surface_unplaced(job, outcomes)

    def _thread_loop(
        self,
        worker: PoolWorker,
        work: "queue_module.Queue[Job]",
        outcomes: Dict[int, JobOutcome],
        state: Dict[str, int],
    ) -> None:
        while True:
            with self._lock:
                if state["remaining"] <= 0 or worker.breaker.evicted:
                    return
                decision = self.supervisor.admission(worker)
                cooling = worker.breaker.cooldown_remaining()
            if decision == Supervisor.PROBE:
                # The sentinel runs through the worker's full stack and
                # can sleep through retry backoff — evaluate it outside
                # the pool lock (only this thread drives this worker),
                # then record the verdict under it.
                healthy, errors_delta = self.supervisor.run_probe(worker)
                with self._lock:
                    admit = self.supervisor.record_probe(
                        worker, healthy, errors_delta
                    )
            else:
                admit = decision == Supervisor.ADMIT
            if not admit:
                if worker.breaker.evicted:
                    return
                self._sleep(min(max(cooling, 1e-4), 0.01))
                continue
            try:
                job = work.get(timeout=0.005)
            except queue_module.Empty:
                continue
            if worker.id in job.tried:
                # This worker already failed this job; hand it back and
                # yield so a different worker picks it up.
                with self._lock:
                    if self._eligible(job):
                        work.put(job)
                    else:
                        self._surface_unplaced(job, outcomes)
                        state["remaining"] -= 1
                self._sleep(1e-4)
                continue
            if job.deadline is not None and job.deadline.expired:
                with self._lock:
                    self._shed(job, outcomes)
                    state["remaining"] -= 1
                continue
            status, payload = self._attempt(job, worker)
            with self._lock:
                if self._settle(job, worker, status, payload, outcomes):
                    work.put(job)
                else:
                    state["remaining"] -= 1
            # Yield the interpreter between jobs: a job can be shorter than
            # the interpreter's switch interval, and without a yield one
            # thread can drain the queue before the others take a job (a
            # worker that never runs a job is never health-checked).
            self._sleep(0)

    # -- shared dispatch mechanics -------------------------------------
    def _attempt(self, job: Job, worker: PoolWorker):
        """Run the job on the worker (no locks held). Returns a
        ``(status, payload)`` pair; ``payload`` is the value or error."""
        job.attempts += 1
        context = JobContext(worker=worker, deadline=job.deadline)
        with get_recorder().span(
            "pool.job",
            category="pool",
            label=job.label,
            worker=worker.id,
            attempt=job.attempts,
        ) as span:
            try:
                value = job.fn(context)
            except ExecutionError as exc:
                job.last_error = exc
                span.set_attribute("outcome", "error")
                return "error", exc
            except Exception as exc:  # noqa: BLE001 - programmer error
                job.last_error = exc
                span.set_attribute("outcome", "fatal")
                return "fatal", exc
            span.set_attribute("outcome", OK)
            return OK, value

    def _settle(
        self,
        job: Job,
        worker: PoolWorker,
        status: str,
        payload: Any,
        outcomes: Dict[int, JobOutcome],
    ) -> bool:
        """Book an attempt's result; True when the job should be requeued."""
        if status == OK:
            self._complete(job, worker, payload, outcomes)
        elif status == "fatal":
            self._close(job, outcomes, SURFACED, "fatal", payload)
            if self._fatal is None:
                self._fatal = payload
        else:
            return self._after_failure(job, worker, payload, outcomes)
        return False

    def _complete(
        self,
        job: Job,
        worker: PoolWorker,
        value: float,
        outcomes: Dict[int, JobOutcome],
    ) -> None:
        self.supervisor.record_success(worker, job.index)
        get_recorder().count("repro_pool_jobs_completed_total")
        outcomes[job.index] = JobOutcome(
            index=job.index,
            label=job.label,
            status=OK,
            value=value,
            worker_id=worker.id,
            attempts=job.attempts,
        )

    def _after_failure(
        self,
        job: Job,
        worker: PoolWorker,
        exc: ExecutionError,
        outcomes: Dict[int, JobOutcome],
    ) -> bool:
        """Failure bookkeeping; True when the job should be requeued."""
        self.supervisor.record_failure(worker)
        self._ledger.failures += 1
        job.tried.add(worker.id)
        if isinstance(exc, DeadlineExceeded):
            # The budget is spent; a reroute would start from zero time.
            get_recorder().count("repro_pool_deadline_exceeded_total")
            self._close(job, outcomes, SURFACED, "failure", exc)
            return False
        if self._eligible(job):
            self._ledger.rerouted += 1
            get_recorder().count("repro_pool_reroutes_total")
            return True
        self._close(job, outcomes, SURFACED, "failure", exc)
        return False

    def _eligible(self, job: Job) -> List[PoolWorker]:
        return [
            w
            for w in self.workers
            if not w.breaker.evicted and w.id not in job.tried
        ]

    def _shed(self, job: Job, outcomes: Dict[int, JobOutcome]) -> None:
        assert job.deadline is not None
        get_recorder().count("repro_pool_shed_total")
        error = DeadlineExceeded(
            f"{job.label} expired while queued "
            f"({job.deadline.elapsed * 1e3:.0f} ms waiting, "
            f"{(job.budget_s or 0.0) * 1e3:.0f} ms budget)",
            budget_s=job.budget_s,
            elapsed_s=job.deadline.elapsed,
        )
        self._close(job, outcomes, SHED, "expired", error)

    def _surface_unplaced(
        self, job: Job, outcomes: Dict[int, JobOutcome]
    ) -> None:
        detail = (
            f" (last error: {job.last_error})" if job.last_error else ""
        )
        error = NoHealthyWorkersError(
            f"no healthy worker left for {job.label}{detail}"
        )
        self._close(job, outcomes, SURFACED, "unplaced", error)

    @staticmethod
    def _close(
        job: Job,
        outcomes: Dict[int, JobOutcome],
        status: str,
        cause: str,
        error: BaseException,
    ) -> None:
        """Record ``job``'s terminal outcome other than ok."""
        outcomes[job.index] = JobOutcome(
            index=job.index,
            label=job.label,
            status=status,
            error=error,
            attempts=job.attempts,
            cause=cause,
        )

    # -- final audit ---------------------------------------------------
    def _final_audit(
        self, by_index: Dict[int, Job], outcomes: Dict[int, JobOutcome]
    ) -> None:
        """Probe every worker holding unvouched completions; evict the
        liars and re-run their jobs on workers that pass.

        Workers evicted *mid-drain* (a half-open probe failed while jobs
        were still flowing) can never be vouched for by a fresh probe,
        yet may hold completions from before their eviction — a silently
        corrupting worker that also trips its breaker would otherwise
        leak wrong values as ``ok``. Their unaudited completions are
        rescued unconditionally.
        """
        while True:
            swept = self._sweep_evicted(by_index, outcomes)
            suspects = self.supervisor.audit_pending()
            if not suspects:
                if not swept:
                    return
                continue  # rescues may have evicted more workers
            for worker in suspects:
                if self.supervisor.probe(worker):
                    continue  # probe passed: completions vouched for
                self._rescue_unaudited(worker, by_index, outcomes)

    def _sweep_evicted(
        self, by_index: Dict[int, Job], outcomes: Dict[int, JobOutcome]
    ) -> bool:
        """Rescue completions stranded on already-evicted workers."""
        swept = False
        for worker in self.workers:
            if worker.breaker.evicted and worker.unaudited:
                self._rescue_unaudited(worker, by_index, outcomes)
                swept = True
        return swept

    def _rescue_unaudited(
        self,
        worker: PoolWorker,
        by_index: Dict[int, Job],
        outcomes: Dict[int, JobOutcome],
    ) -> None:
        to_rescue = [
            i
            for i in worker.unaudited
            if i in outcomes and outcomes[i].status == OK
        ]
        worker.unaudited.clear()
        for index in to_rescue:
            self._rescue(by_index[index], outcomes)

    def _rescue(self, job: Job, outcomes: Dict[int, JobOutcome]) -> None:
        """Re-run a job whose worker turned out to be corrupt."""
        self._ledger.rescued += 1
        get_recorder().count("repro_pool_rescued_total")
        job.tried = set()  # earlier failures were transient; start fresh
        job.last_error = None
        if job.budget_s is not None:
            job.deadline = Deadline(job.budget_s, clock=self._clock)
        # Inline re-dispatch (single job, calling thread): deterministic
        # and reuses the failover/accounting machinery. The rescuing
        # worker becomes unaudited in turn; the audit loop keeps probing
        # until a clean worker vouches or every worker is evicted.
        self._drain_inline(deque([job]), outcomes)

    # -- accounting ----------------------------------------------------
    def _tally(self, outcomes: List[JobOutcome]) -> None:
        for outcome in outcomes:
            if outcome.status == OK:
                self._ledger.completed += 1
            elif outcome.status == SHED:
                self._ledger.shed += 1
            else:
                self._ledger.surfaced += 1
                if outcome.cause == "failure":
                    self._ledger.surfaced_failures += 1

    @property
    def sanitizer_clean(self) -> bool:
        """True when the sanitizer is off or has recorded no race."""
        return self.detector is None or self.detector.clean

    def race_report(self):
        """The sanitizer's findings as an
        :class:`~repro.analysis.diagnostics.AnalysisReport` (empty when
        the sanitizer is off or clean)."""
        if self.detector is None:
            from ..analysis.diagnostics import AnalysisReport

            return AnalysisReport()
        return self.detector.to_report()

    def stats(self) -> PoolStats:
        """Snapshot of the aggregate ledger (see :class:`PoolStats`)."""
        faults = FaultStats()
        for worker in self.workers:
            faults.merge(worker.stats)
        ledger = self._ledger
        faults.rerouted = ledger.rerouted
        faults.shed = ledger.shed
        faults.surfaced = ledger.surfaced
        faults.rescued += ledger.rescued
        return replace(
            ledger,
            probes=self.supervisor.probes,
            probe_failures=self.supervisor.probe_failures,
            probe_errors=self.supervisor.probe_errors,
            evicted=tuple(self.supervisor.evicted()),
            faults=faults,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LikelihoodPool workers={len(self.workers)} "
            f"executor={self.executor} pending={len(self._pending)} "
            f"evicted={self.supervisor.evicted()}>"
        )
