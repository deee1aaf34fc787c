"""End-to-end server behaviour: bit-identity, shedding, retries, chaos.

The contract under test (ISSUE acceptance criteria): every coalesced-
served request returns a value bit-identical to its serial single-
request evaluation; overload sheds are explicit, typed and ledger-
accounted with zero silent drops; and the whole serve schedule is
deterministic given a seed and an inline pool.
"""

from __future__ import annotations

import pytest

from repro.exec import FaultSpec, LikelihoodPool
from repro.serve import (
    REJECT_TENANT_QUOTA,
    SHED_BROWNOUT,
    SHED_EXPIRED,
    AdmissionConfig,
    BrownoutPolicy,
    CoalescePolicy,
    FairnessConfig,
    LikelihoodServer,
    RequestDims,
    ServerSaturatedError,
    StepClock,
    burst_storm,
    replay,
)
from repro.serve.server import SCHEDULE_LOG_LENGTH

DIMS = RequestDims(state_count=4, pattern_count=24)


def make_server(case, clock, *, n_workers=3, verify=True, seed=0,
                fault_specs=None, dead_workers=(), **overrides):
    pool = LikelihoodPool(
        n_workers,
        executor="inline",
        clock=clock,
        sleep=lambda s: clock.advance(s),
        worker_fault_specs=fault_specs,
    )
    for worker_id in dead_workers:
        pool.workers[worker_id].breaker.evict()
    kwargs = dict(
        admission=AdmissionConfig(max_queued=64, tenant_quota=None),
        fairness=FairnessConfig(),
        coalesce=CoalescePolicy(max_width=4),
        verify=verify,
        jitter_seed=seed,
        clock=clock,
    )
    kwargs.update(overrides)
    return LikelihoodServer(pool, **kwargs)


class TestServing:
    def test_serves_bit_identical_and_ledger_closes(self, case):
        make_case, reference, _ = case
        clock = StepClock()
        server = make_server(case, clock)
        for i in range(10):
            server.submit(f"t{i % 3}", make_case, dims=DIMS)
        outcomes = server.drain()
        assert len(outcomes) == 10
        assert all(o.ok for o in outcomes)
        assert all(o.value == reference for o in outcomes)
        assert all(o.verified for o in outcomes)
        assert server.ledger.balances(), server.ledger.imbalances()
        assert server.ledger.drained()
        assert server.ledger.served == 10

    def test_coalescing_respects_width(self, case):
        make_case, _, _ = case
        clock = StepClock()
        server = make_server(case, clock, coalesce=CoalescePolicy(max_width=4))
        for i in range(8):
            server.submit("t", make_case, dims=DIMS)
        outcomes = server.drain()
        assert {o.coalesced_width for o in outcomes} == {4}
        assert server.ledger.coalesced_requests == 8

    def test_uncoalesced_baseline(self, case):
        make_case, reference, _ = case
        clock = StepClock()
        server = make_server(
            case, clock, coalesce=CoalescePolicy(enabled=False)
        )
        for i in range(4):
            server.submit("t", make_case, dims=DIMS)
        outcomes = server.drain()
        assert all(o.coalesced_width == 1 for o in outcomes)
        assert all(o.value == reference for o in outcomes)
        assert server.ledger.coalesced_requests == 0

    def test_rejection_is_typed_and_accounted(self, case):
        make_case, _, _ = case
        clock = StepClock()
        server = make_server(
            case, clock,
            admission=AdmissionConfig(max_queued=64, tenant_quota=2),
        )
        server.submit("hog", make_case, dims=DIMS)
        server.submit("hog", make_case, dims=DIMS)
        with pytest.raises(ServerSaturatedError) as excinfo:
            server.submit("hog", make_case, dims=DIMS)
        assert excinfo.value.reason == REJECT_TENANT_QUOTA
        assert server.ledger.rejected_by_reason == {REJECT_TENANT_QUOTA: 1}
        server.drain()
        assert server.ledger.balances()


class TestDeadlines:
    def test_expired_in_queue_is_shed_with_cause(self, case):
        make_case, _, _ = case
        clock = StepClock()
        server = make_server(case, clock)
        server.submit("t", make_case, deadline_s=0.1, dims=DIMS)
        clock.advance(0.2)
        outcomes = server.drain()
        assert [o.status for o in outcomes] == ["shed"]
        assert outcomes[0].cause == SHED_EXPIRED
        assert server.ledger.shed_by_cause == {SHED_EXPIRED: 1}
        assert server.ledger.balances()

    def test_late_value_is_delivered_and_counted(self, case):
        make_case, reference, _ = case
        clock = StepClock()

        def slow_make_case():
            clock.advance(0.5)  # execution outlives the budget
            return make_case()

        server = make_server(case, clock)
        server.submit("t", slow_make_case, deadline_s=0.1, dims=DIMS)
        outcomes = server.drain()
        assert len(outcomes) == 1
        assert outcomes[0].ok
        assert outcomes[0].late
        assert outcomes[0].value == reference
        assert server.ledger.late == 1
        assert server.ledger.balances()


class TestBrownout:
    def test_overload_sheds_deadline_ascending(self, case):
        make_case, _, _ = case
        clock = StepClock()
        server = make_server(
            case, clock,
            admission=AdmissionConfig(max_queued=20),
            brownout=BrownoutPolicy(shed_target=0.5),
        )
        # 19/20 queued = level 3 pressure; budgets identify the victims.
        for i in range(19):
            server.submit(
                f"t{i % 4}", make_case,
                deadline_s=10.0 + i,  # index i has the i-th soonest deadline
                dims=DIMS,
            )
        outcomes = server.drain()
        shed = [o for o in outcomes if o.status == "shed"]
        assert len(shed) == 9  # 19 - target 10
        assert all(o.cause == SHED_BROWNOUT for o in shed)
        # Soonest deadlines were shed first.
        assert sorted(o.index for o in shed) == list(range(9))
        assert server.brownout.peak_level == 3
        assert server.ledger.balances()
        assert server.ledger.drained()

    def test_brownout_widens_coalescing(self, case):
        make_case, _, _ = case
        clock = StepClock()
        server = make_server(
            case, clock,
            admission=AdmissionConfig(max_queued=16),
            coalesce=CoalescePolicy(max_width=2),
            brownout=BrownoutPolicy(thresholds=(0.5, 0.96, 0.97)),
        )
        for i in range(12):  # 12/16 = level 1: width doubles to 4
            server.submit("t", make_case, dims=DIMS)
        outcomes = server.drain()
        assert max(o.coalesced_width for o in outcomes) == 4


class TestRetry:
    def test_failed_batch_retries_members_uncoalesced(self, case):
        make_case, reference, _ = case
        clock = StepClock()
        # One worker, fail-fast policy, exactly one injected fault: the
        # coalesced batch's job surfaces, then each member's singleton
        # retry succeeds.
        server = make_server(
            case, clock, n_workers=1,
            fault_specs=[FaultSpec(rate=1.0, seed=3, max_faults=1,
                                   classes=("transient",))],
        )
        server.pool.workers[0].policy = None
        for i in range(2):
            server.submit("t", make_case, dims=DIMS)
        outcomes = server.drain()
        assert all(o.ok for o in outcomes)
        assert all(o.value == reference for o in outcomes)
        assert server.ledger.retried == 2
        assert server.ledger.balances()

    def test_exhausted_retry_fails_with_error(self, case):
        make_case, _, _ = case
        clock = StepClock()
        server = make_server(
            case, clock, n_workers=1, verify=False,
            fault_specs=[FaultSpec(rate=1.0, seed=3,
                                   classes=("transient",))],
        )
        server.pool.workers[0].policy = None
        server.submit("t", make_case, dims=DIMS)
        server.submit("t", make_case, dims=DIMS)
        outcomes = server.drain()
        assert all(o.status == "failed" for o in outcomes)
        assert all(o.error is not None for o in outcomes)
        assert server.ledger.failed == 2
        assert server.ledger.balances()
        assert server.ledger.drained()


class TestDeterminism:
    def test_same_seed_servers_produce_identical_schedules(self, case):
        """Satellite regression: the serve/shed schedule is a pure
        function of (arrivals, jitter_seed) with an inline pool."""
        make_case, _, _ = case

        def run(seed):
            clock = StepClock()
            server = make_server(
                case, clock, seed=seed,
                admission=AdmissionConfig(max_queued=24, tenant_quota=6),
                brownout=BrownoutPolicy(shed_target=0.5),
            )
            arrivals = burst_storm(
                41, n_tenants=5, n_requests=64, budget_s=0.4
            )
            replay(server, arrivals, lambda a: make_case,
                   clock=clock, dims=DIMS, step_every=24)
            return server.schedule_log

        first = run(seed=7)
        second = run(seed=7)
        # The bounded log still holds the whole replay, so it compares
        # every decision.
        assert len(first) < SCHEDULE_LOG_LENGTH
        assert first == second
        assert any(event == "shed" for event, *_ in first)
        assert any(event == "serve" for event, *_ in first)


class TestScheduleLog:
    def test_a_long_lived_server_keeps_the_last_decisions(self, case):
        """Past SCHEDULE_LOG_LENGTH decisions the log keeps the newest
        ones and stops growing."""
        make_case, _, _ = case
        clock = StepClock()
        server = make_server(case, clock, n_workers=2, verify=False)
        served = 0
        while served <= SCHEDULE_LOG_LENGTH:
            for _ in range(16):
                server.submit(f"t{served % 3}", make_case, dims=DIMS)
            while server.pending:
                served += sum(o.status == "served" for o in server.step())
        log = server.schedule_log
        assert len(log) == SCHEDULE_LOG_LENGTH
        assert log[-1][0] == "serve"


class TestChaosSoak:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_burst_storm_with_dead_and_faulty_workers(self, case, seed):
        """Three-seed overload soak: burst storm, one dead worker, one
        faulty worker — ledger balanced, zero silent drops, every served
        value exact."""
        make_case, reference, _ = case
        clock = StepClock()
        server = make_server(
            case, clock, seed=seed,
            fault_specs=[FaultSpec(rate=0.3, seed=seed), None, None],
            dead_workers=(2,),
            admission=AdmissionConfig(max_queued=32, tenant_quota=8),
            fairness=FairnessConfig(in_flight_cap=6),
        )
        arrivals = burst_storm(seed, n_tenants=6, n_requests=96, budget_s=0.5)
        outcomes, rejections = replay(
            server, arrivals, lambda a: make_case,
            clock=clock, dims=DIMS, step_every=16,
        )
        ledger = server.ledger
        assert ledger.balances(), ledger.imbalances()
        assert ledger.drained()
        assert len(outcomes) + len(rejections) == ledger.offered == 96
        served = [o for o in outcomes if o.ok]
        assert served, "storm must serve someone"
        assert all(o.value == reference for o in served)
        assert all(o.verified for o in served)
        assert ledger.verify_failures == 0


class TestFairnessUnderLoad:
    def test_cold_tenant_not_starved_by_hot_one(self, case):
        make_case, _, _ = case
        clock = StepClock()
        server = make_server(
            case, clock,
            admission=AdmissionConfig(max_queued=64),
            fairness=FairnessConfig(quantum=1.0),
            max_dispatch=4,
        )
        for i in range(20):
            server.submit("hot", make_case, dims=DIMS)
        server.submit("cold", make_case, dims=DIMS)
        # The cold tenant must be served in the first scheduling cycle,
        # not after the hot backlog drains.
        first_cycle = server.step()
        assert any(o.tenant == "cold" and o.ok for o in first_cycle)
        server.drain()
        assert server.ledger.balances()
