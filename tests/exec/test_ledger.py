"""Every ledger's explanation agrees with its check, counter by counter."""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.exec import FaultStats, PoolStats, ShardLedger
from repro.serve import ServeLedger
from repro.serve.ledger import REJECT_QUEUE_FULL, TenantLedger


def _pool():
    return PoolStats(
        offered=3, completed=2, shed=1, failures=1, rerouted=1,
        faults=FaultStats(errors=1),
    )


def _shard():
    return ShardLedger(
        total_shards=3, computed=3, submissions=4, ok=4, wins=3, wasted=1
    )


def _tenant():
    return TenantLedger("a", offered=2, admitted=1, rejected=1, served=1)


def _serve():
    ledger = ServeLedger()
    ledger.record_offered("a")
    ledger.record_admitted("a")
    ledger.record_dispatched("a")
    ledger.record_served("a")
    ledger.record_offered("b")
    ledger.record_rejected("b", REJECT_QUEUE_FULL)
    return ledger


LEDGERS = {"pool": _pool, "shard": _shard, "tenant": _tenant, "serve": _serve}


def _counters(ledger):
    """``(row, field)`` for every integer counter, tenant rows included."""
    rows = [ledger] + [row for _, row in ledger.rows()]
    return [
        (i, f.name)
        for i, row in enumerate(rows)
        for f in dataclasses.fields(row)
        if f.type == "int"
    ]


def _violated(ledger):
    return [l for l in ledger.explain().splitlines() if l.startswith("[VIOLATED]")]


@pytest.mark.parametrize("name", sorted(LEDGERS))
def test_balanced_ledger_explains_every_identity_ok(name):
    ledger = LEDGERS[name]()
    assert ledger.imbalances() == []
    lines = ledger.explain().splitlines()
    assert len(lines) == len(ledger.checks())
    assert all(line.startswith("[ok]") for line in lines)


@pytest.mark.parametrize("name", sorted(LEDGERS))
def test_breaking_any_counter_violates_as_many_lines_as_imbalances(name):
    balanced = LEDGERS[name]()
    broken_any = False
    for row, field in _counters(balanced):
        ledger = copy.deepcopy(balanced)
        target = ([ledger] + [r for _, r in ledger.rows()])[row]
        setattr(target, field, getattr(target, field) + 1)
        assert len(_violated(ledger)) == len(ledger.imbalances()), field
        broken_any |= bool(ledger.imbalances())
    assert broken_any


def test_serve_ledger_explains_a_lost_tenant_request():
    ledger = ServeLedger()
    ledger.record_offered("a")
    ledger.record_admitted("a")
    ledger.tenants["a"].queued = 0
    problems = ledger.imbalances()
    assert len(problems) == 2
    assert any("queued == sum over tenants" in p for p in problems)
    assert any(p.startswith("tenant a: admitted ==") for p in problems)
    violated = _violated(ledger)
    assert len(violated) == 2
    assert "(1 vs 0)" in violated[0]


def test_pool_gauges_keep_every_exported_name():
    gauges = _pool().gauges()
    assert list(gauges) == [
        "workers", "offered", "rejected", "completed", "shed", "surfaced",
        "surfaced_failures", "failures", "rerouted", "rescued", "probes",
        "probe_failures", "probe_errors", "evicted_workers", "worker_errors",
    ]
    assert gauges["worker_errors"] == 1


def test_serve_gauges_keep_every_exported_name():
    gauges = _serve().gauges()
    assert list(gauges) == [
        "offered", "rejected", "admitted", "served", "shed", "failed",
        "queued", "in_flight", "retried", "late", "coalesced_launches",
        "coalesced_requests", "verified", "verify_failures", "tenants",
    ]
    assert gauges["tenants"] == 2
