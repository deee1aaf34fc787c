"""The likelihood server: admission → fairness → coalescing → pool.

:class:`LikelihoodServer` is the overload-safe front end in front of a
:class:`~repro.exec.pool.LikelihoodPool`. One serving cycle
(:meth:`LikelihoodServer.step`) runs the pipeline::

    shed expired ─▶ brownout observe ─▶ DRR pick ─▶ coalesce ─▶ pool

1. Queued requests whose deadline already passed are shed (typed cause
   ``expired``) before any scheduling work is spent on them.
2. The brownout controller converts queue pressure into a level; level 3
   sheds the deadline-soonest backlog overflow (cause ``brownout``),
   level ≥ 1 widens coalescing, level ≥ 2 clamps admission quotas.
3. Deficit round robin picks this cycle's dispatch candidates fairly
   across tenants, honouring per-tenant in-flight caps.
4. The batch assembler coalesces compatible picks into shared-launch
   batches; each batch is one pool job whose members run sequentially
   through the worker's full resilient stack (bit-identical to serial by
   construction — optionally *checked* per request with ``verify=True``,
   which recomputes every served value on a clean serial engine and
   compares exactly).
5. Batches dispatch to the pool with the members' largest remaining
   budget as the job deadline; a failed batch is retried member-by-
   member, uncoalesced, once (seeded jitter orders the retry wave).

Every request ends in exactly one :class:`~repro.serve.request.RequestOutcome`
and every transition lands in the :class:`~repro.serve.ledger.ServeLedger`,
whose identities close at every step boundary — the "no silent drops"
contract is checkable, not aspirational. All scheduling decisions are
appended to :attr:`LikelihoodServer.schedule_log`; with the pool's
inline executor and an injected clock the whole serve schedule is a pure
function of ``(arrivals, jitter_seed)``, which the determinism
regression test pins down.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.planner import execute_plan
from ..exec.errors import PoolSaturatedError
from ..exec.pool import JobOutcome, LikelihoodPool
from ..exec.health import Deadline
from ..exec.resilient import seeded_jitter
from ..obs import get_recorder
from .admission import AdmissionConfig, AdmissionController, ServerSaturatedError
from .brownout import BrownoutController, BrownoutPolicy
from .coalesce import BatchAssembler, CoalescedBatch, CoalescePolicy
from .fairness import DeficitRoundRobin, FairnessConfig
from .ledger import (
    SHED_BROWNOUT,
    SHED_EXPIRED,
    ServeLedger,
)
from .request import (
    FAILED,
    SERVED,
    SHED,
    LikelihoodRequest,
    MakeCase,
    RequestDims,
    RequestOutcome,
)

__all__ = ["LikelihoodServer"]

Clock = Callable[[], float]


class LikelihoodServer:
    """Overload-safe, fair, coalescing front end over a likelihood pool.

    Parameters
    ----------
    pool:
        The worker pool evaluations dispatch to. The server drives it
        synchronously (submit batches, drain, account), so the pool's
        executor choice — threaded or deterministic inline — decides the
        server's execution style too.
    admission:
        Admission bounds and feasibility knobs
        (:class:`~repro.serve.admission.AdmissionConfig`).
    fairness:
        Deficit-round-robin knobs
        (:class:`~repro.serve.fairness.FairnessConfig`).
    coalesce:
        Batch assembly policy
        (:class:`~repro.serve.coalesce.CoalescePolicy`).
    brownout:
        Staged-degradation policy
        (:class:`~repro.serve.brownout.BrownoutPolicy`).
    verify:
        Re-compute every served value on a clean serial engine and
        compare bit-exactly (the coalescing equivalence gate; chaos
        soaks run with it on).
    jitter_seed:
        Seed of the shared jitter source
        (:func:`~repro.exec.resilient.seeded_jitter`) used for shed
        tie-breaking and retry-wave ordering. Same seed ⇒ same
        schedule, given the same arrivals and an inline pool.
    max_dispatch:
        Dispatch candidates per cycle (default ``4 × workers``).
    clock:
        Injectable time source shared with deadlines.
    """

    def __init__(
        self,
        pool: LikelihoodPool,
        *,
        admission: Optional[AdmissionConfig] = None,
        fairness: Optional[FairnessConfig] = None,
        coalesce: Optional[CoalescePolicy] = None,
        brownout: Optional[BrownoutPolicy] = None,
        verify: bool = False,
        jitter_seed: int = 0,
        max_dispatch: Optional[int] = None,
        clock: Clock = time.monotonic,
    ) -> None:
        self.pool = pool
        self.admission = AdmissionController(admission)
        self.scheduler = DeficitRoundRobin(fairness)
        self.assembler = BatchAssembler(coalesce)
        self.brownout = BrownoutController(brownout or BrownoutPolicy())
        self.verify = verify
        self.jitter_seed = jitter_seed
        self.max_dispatch = max_dispatch or 4 * len(pool.workers)
        self._clock = clock
        self.ledger = ServeLedger()
        #: Ordered scheduling decisions: ``(event, index, tenant, detail)``
        #: tuples — ``admit``/``reject``/``dispatch``/``serve``/``shed``/
        #: ``retry``/``fail``. Deterministic given arrivals + seed with
        #: an inline pool; the determinism regression compares two
        #: same-seed servers entry for entry.
        self.schedule_log: List[Tuple[str, int, str, str]] = []
        self._in_flight: Dict[str, int] = {}
        self._next_index = 0

    # -- submission ----------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests queued and not yet dispatched."""
        return self.scheduler.pending

    def submit(
        self,
        tenant: str,
        make_case: MakeCase,
        *,
        label: Optional[str] = None,
        deadline_s: Optional[float] = None,
        cost: int = 1,
        dims: Optional[RequestDims] = None,
        set_sizes: Sequence[int] = (),
    ) -> int:
        """Admit one request or refuse it with a typed reason.

        Returns the request index on admission; raises
        :class:`~repro.serve.admission.ServerSaturatedError` (a
        :class:`~repro.exec.errors.PoolSaturatedError`) on rejection.
        The request's deadline starts *now* — queue wait counts.
        """
        self.ledger.record_offered(tenant)
        decision = self.admission.decide(
            tenant=tenant,
            queue_depth=self.scheduler.pending,
            tenant_depth=self.scheduler.tenant_depth(tenant),
            workers=max(1, len(self.pool.supervisor.alive())),
            budget_s=deadline_s,
            quota_scale=self.brownout.quota_scale,
        )
        if not decision.admit:
            assert decision.reason is not None
            self.ledger.record_rejected(tenant, decision.reason)
            self.schedule_log.append(
                ("reject", -1, tenant, decision.reason)
            )
            get_recorder().count("repro_serve_rejected_total")
            raise ServerSaturatedError(
                f"request from {tenant} refused: {decision.detail}",
                reason=decision.reason,
                tenant=tenant,
                capacity=self.admission.config.max_queued,
                pending=self.scheduler.pending,
            )
        index = self._next_index
        self._next_index += 1
        request = LikelihoodRequest(
            index=index,
            tenant=tenant,
            make_case=make_case,
            label=label or f"req-{index}",
            dims=dims,
            cost=cost,
            budget_s=deadline_s,
            deadline=(
                Deadline(deadline_s, clock=self._clock)
                if deadline_s is not None
                else None
            ),
            submitted_at=self._clock(),
            set_sizes=tuple(set_sizes),
        )
        self.scheduler.enqueue(request)
        self.ledger.record_admitted(tenant)
        self.schedule_log.append(("admit", index, tenant, request.label))
        return index

    # -- serving cycle -------------------------------------------------
    def step(self) -> List[RequestOutcome]:
        """One serving cycle; returns the requests that went terminal."""
        outcomes: List[RequestOutcome] = []
        self._shed_expired(outcomes)
        level = self.brownout.observe(
            self.scheduler.pending, self.admission.config.max_queued
        )
        if level >= 3:
            self._shed_brownout(outcomes)
        picks = self.scheduler.pick(self.max_dispatch, in_flight=self._in_flight)
        if picks:
            batches = self.assembler.assemble(
                picks, width_scale=self.brownout.width_scale
            )
            self._dispatch(batches, outcomes, fresh=True)
        return outcomes

    def drain(self) -> List[RequestOutcome]:
        """Run serving cycles until the queue is empty."""
        outcomes: List[RequestOutcome] = []
        while self.scheduler.pending > 0:
            before = self.scheduler.pending
            cycle = self.step()
            outcomes.extend(cycle)
            if not cycle and self.scheduler.pending >= before:
                # Every queued tenant is capped with nothing in flight:
                # impossible by construction, but never spin silently.
                raise RuntimeError(
                    "serving made no progress with "
                    f"{self.scheduler.pending} requests queued"
                )
        return outcomes

    # -- shedding ------------------------------------------------------
    def _shed_expired(self, outcomes: List[RequestOutcome]) -> None:
        for request in self.scheduler.remove_if(lambda r: r.expired):
            self._finish_shed(request, SHED_EXPIRED, outcomes)

    def _shed_brownout(self, outcomes: List[RequestOutcome]) -> None:
        n = self.brownout.shed_count(
            self.scheduler.pending, self.admission.config.max_queued
        )
        if n <= 0:
            return
        # Deadline-ascending: victims are the least likely to be served
        # in time. Ties break on seeded jitter, not queue position, so
        # no tenant is systematically first against the wall.
        victims = sorted(
            self.scheduler.queued_requests(),
            key=lambda r: (
                r.deadline_key(),
                seeded_jitter(self.jitter_seed, r.index, r.attempts),
            ),
        )[:n]
        victim_ids = {id(r) for r in victims}
        self.scheduler.remove_if(lambda r: id(r) in victim_ids)
        for request in victims:
            self._finish_shed(request, SHED_BROWNOUT, outcomes)

    def _finish_shed(
        self,
        request: LikelihoodRequest,
        cause: str,
        outcomes: List[RequestOutcome],
        *,
        queued: bool = True,
    ) -> None:
        if not queued:
            self._in_flight[request.tenant] = (
                self._in_flight.get(request.tenant, 1) - 1
            )
        self.ledger.record_shed(request.tenant, cause, queued=queued)
        get_recorder().count("repro_serve_shed_total")
        self.schedule_log.append(("shed", request.index, request.tenant, cause))
        outcomes.append(
            RequestOutcome(
                index=request.index,
                tenant=request.tenant,
                label=request.label,
                status=SHED,
                cause=cause,
                attempts=request.attempts,
                wait_s=max(0.0, self._clock() - request.submitted_at),
            )
        )

    # -- dispatch ------------------------------------------------------
    def _job_deadline(self, batch: CoalescedBatch) -> Optional[float]:
        """The pool-job budget: the members' largest remaining budget
        (``None`` when any member is unbounded — a bounded job deadline
        must never kill an unbounded member's work)."""
        remaining: List[float] = []
        for member in batch.members:
            if member.deadline is None:
                return None
            left = member.deadline.remaining
            if left <= 0.0:
                # Expired while in flight: the deadline can no longer be
                # saved, so the value is computed to completion and
                # delivered late — a nonpositive pool budget would only
                # kill the work a second time.
                return None
            remaining.append(left)
        return max(remaining) if remaining else None

    def _dispatch(
        self,
        batches: List[CoalescedBatch],
        outcomes: List[RequestOutcome],
        *,
        fresh: bool,
    ) -> None:
        """Submit batches to the pool, drain, and account every member.

        ``fresh`` marks first dispatch (members move queued → in-flight);
        retry waves keep members in-flight. Batch failures retry their
        members individually (uncoalesced) exactly once.
        """
        started = self._clock()
        by_job: Dict[int, CoalescedBatch] = {}
        dispatched = 0
        for batch in batches:
            if fresh:
                for member in batch.members:
                    self.ledger.record_dispatched(member.tenant)
                    self._in_flight[member.tenant] = (
                        self._in_flight.get(member.tenant, 0) + 1
                    )
            # One detail string per batch: the log keeps it for every
            # member, so a string per member costs memory per request.
            detail = f"width={batch.width}"
            for member in batch.members:
                member.attempts += 1
                self.schedule_log.append(
                    ("dispatch", member.index, member.tenant, detail)
                )
            if batch.coalesced:
                self.ledger.coalesced_requests += batch.width
                schedule = batch.launch_schedule()
                self.ledger.coalesced_launches += (
                    len(schedule) if schedule else 1
                )
            dispatched += batch.width
            label = "+".join(m.label for m in batch.members[:3]) + (
                f"+{batch.width - 3}" if batch.width > 3 else ""
            )
            try:
                job = self.pool.submit(
                    batch.job_fn(),
                    label=f"serve[{label}]",
                    deadline_s=self._job_deadline(batch),
                )
            except PoolSaturatedError:
                # The pool queue is full: drain what is in, then retry
                # the submit against an empty queue.
                self._settle(by_job, outcomes)
                by_job = {}
                job = self.pool.submit(
                    batch.job_fn(),
                    label=f"serve[{label}]",
                    deadline_s=self._job_deadline(batch),
                )
            by_job[job] = batch
        self._settle(by_job, outcomes)
        elapsed = self._clock() - started
        if dispatched > 0 and elapsed >= 0.0:
            self.admission.observe_service(elapsed / dispatched)

    def _settle(
        self,
        by_job: Dict[int, CoalescedBatch],
        outcomes: List[RequestOutcome],
    ) -> None:
        if not by_job:
            return
        retries: List[LikelihoodRequest] = []
        for job_outcome in self.pool.drain():
            batch = by_job.get(job_outcome.index)
            if batch is None:
                continue  # a job from an interleaved pool user
            self._account_batch(batch, job_outcome, outcomes, retries)
        if retries:
            # One uncoalesced retry wave, jitter-ordered so concurrent
            # batch failures do not re-arrive in lockstep.
            retries.sort(
                key=lambda r: seeded_jitter(
                    self.jitter_seed, r.index, r.attempts
                )
            )
            self._dispatch(
                [CoalescedBatch([r]) for r in retries],
                outcomes,
                fresh=False,
            )

    def _account_batch(
        self,
        batch: CoalescedBatch,
        job_outcome: JobOutcome,
        outcomes: List[RequestOutcome],
        retries: List[LikelihoodRequest],
    ) -> None:
        if job_outcome.ok:
            values = job_outcome.value
            detail = f"width={batch.width}"
            for member, value in zip(batch.members, values):
                self._finish_served(member, value, batch.width, detail, outcomes)
            return
        if job_outcome.status == "shed":
            # The pool shed the whole job (budget spent while queued);
            # the members were in flight from the server's view.
            for member in batch.members:
                self._finish_shed(
                    member, SHED_EXPIRED, outcomes, queued=False
                )
            return
        for member in batch.members:
            if not member.retried:
                member.retried = True
                self.ledger.record_retried(member.tenant)
                get_recorder().count("repro_serve_retries_total")
                self.schedule_log.append(
                    ("retry", member.index, member.tenant,
                     type(job_outcome.error).__name__)
                )
                retries.append(member)
            else:
                self._finish_failed(member, job_outcome, outcomes)

    def _finish_served(
        self,
        member: LikelihoodRequest,
        value: float,
        width: int,
        detail: str,
        outcomes: List[RequestOutcome],
    ) -> None:
        late = member.expired
        verified: Optional[bool] = None
        if self.verify:
            verified = self._verify_serial(member, value)
        self._in_flight[member.tenant] = (
            self._in_flight.get(member.tenant, 1) - 1
        )
        self.ledger.record_served(member.tenant, late=late)
        get_recorder().count("repro_serve_served_total")
        if late:
            get_recorder().count("repro_serve_late_total")
        self.schedule_log.append(
            ("serve", member.index, member.tenant,
             detail + " late" if late else detail)
        )
        outcomes.append(
            RequestOutcome(
                index=member.index,
                tenant=member.tenant,
                label=member.label,
                status=SERVED,
                value=value,
                attempts=member.attempts,
                coalesced_width=width,
                wait_s=max(0.0, self._clock() - member.submitted_at),
                late=late,
                verified=verified,
            )
        )

    def _finish_failed(
        self,
        member: LikelihoodRequest,
        job_outcome: JobOutcome,
        outcomes: List[RequestOutcome],
    ) -> None:
        self._in_flight[member.tenant] = (
            self._in_flight.get(member.tenant, 1) - 1
        )
        self.ledger.record_failed(member.tenant)
        get_recorder().count("repro_serve_failed_total")
        self.schedule_log.append(
            ("fail", member.index, member.tenant,
             type(job_outcome.error).__name__)
        )
        outcomes.append(
            RequestOutcome(
                index=member.index,
                tenant=member.tenant,
                label=member.label,
                status=FAILED,
                error=job_outcome.error,
                cause=job_outcome.cause,
                attempts=member.attempts,
                wait_s=max(0.0, self._clock() - member.submitted_at),
            )
        )

    def _verify_serial(self, member: LikelihoodRequest, value: float) -> bool:
        """The bit-identity gate: recompute on a clean serial engine.

        The reference path builds a fresh case and runs
        :func:`~repro.core.planner.execute_plan` directly — no pool, no
        fault injection, no coalescing — and the comparison is exact
        equality, not a tolerance.
        """
        instance, plan = member.make_case()
        reference = execute_plan(instance, plan)
        identical = reference == value
        if identical:
            self.ledger.verified += 1
        else:
            self.ledger.verify_failures += 1
            get_recorder().count("repro_serve_verify_failures_total")
        return identical

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LikelihoodServer pending={self.scheduler.pending} "
            f"level={self.brownout.level} "
            f"served={self.ledger.served}/{self.ledger.admitted}>"
        )
