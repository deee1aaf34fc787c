"""Closed-form request accounting for the likelihood server.

Every request a :class:`~repro.serve.server.LikelihoodServer` ever sees
lands in exactly one terminal bucket — ``served``, ``shed``, ``failed``
— or is still ``queued``/``in_flight``; submissions refused by admission
control are ``rejected`` before they are ever queued. The
:class:`ServeLedger` keeps those counts globally *and* per tenant, and
declares the identities that make "no silent drops" a checkable property
instead of a hope, as data on a :class:`~repro.exec.ledger.Ledger` (the
same primitive as :class:`~repro.exec.pool.PoolStats` and the shard
ledger): each row's submissions are admitted or rejected and each
admitted request is in exactly one bucket, every rejection and shed has
a typed reason, and every total is the sum of its tenant rows.

After a full drain ``queued == in_flight == 0``, so the admitted identity
collapses to the closed form ``admitted == served + shed + failed``.
``retried``, ``late``, ``coalesced_*`` and ``verified`` are informative
counters outside the identities (a retry is not a terminal outcome; a
late or verified request is still served).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from ..exec.ledger import Identity, Ledger, Side, total

__all__ = ["TenantLedger", "ServeLedger"]

#: Terminal request statuses.
SERVED = "served"
SHED = "shed"
FAILED = "failed"

#: Shed causes.
SHED_EXPIRED = "expired"  # deadline ran out while queued
SHED_BROWNOUT = "brownout"  # deadline-ascending overload shed

#: Counters kept both in total and per tenant.
TENANT_BUCKETS = (
    "offered", "rejected", "admitted", "served", "shed",
    "failed", "queued", "in_flight", "retried", "late",
)

#: Rejection reasons (admission control).
REJECT_QUEUE_FULL = "queue-full"
REJECT_TENANT_QUOTA = "tenant-quota"
REJECT_INFEASIBLE = "infeasible-deadline"
REJECT_BROWNOUT = "brownout-clamp"


@dataclass
class TenantLedger(Ledger):
    """One tenant's slice of the server's accounting."""

    tenant: str
    offered: int = 0
    rejected: int = 0
    admitted: int = 0
    served: int = 0
    shed: int = 0
    failed: int = 0
    queued: int = 0
    in_flight: int = 0
    retried: int = 0
    late: int = 0

    IDENTITIES = (
        Identity(
            "offered == admitted + rejected",
            total("offered"),
            total("admitted", "rejected"),
            "every submission is admitted or refused with a reason",
        ),
        Identity(
            "admitted == served + shed + failed + queued + in_flight",
            total("admitted"),
            total("served", "shed", "failed", "queued", "in_flight"),
            "every admitted request is somewhere, exactly once",
        ),
    )


def _over_tenants(bucket: str) -> Side:
    """An identity side summing ``bucket`` over the tenant rows."""
    return lambda ledger: sum(
        getattr(row, bucket) for row in ledger.tenants.values()
    )


@dataclass
class ServeLedger(Ledger):
    """Aggregate server ledger plus per-tenant rows.

    Attributes
    ----------
    offered:
        Every :meth:`~repro.serve.server.LikelihoodServer.submit` call,
        accepted or not.
    rejected / rejected_by_reason:
        Submissions refused by admission control, by typed reason.
    admitted:
        Requests that entered the queue.
    served / shed / failed:
        Terminal outcomes; ``shed_by_cause`` splits queue-expiry from
        brownout shedding.
    queued / in_flight:
        Requests not yet terminal (both zero after a full drain).
    retried:
        Server-level uncoalesced re-dispatches after a batch failure
        (non-terminal; the request still ends in exactly one bucket).
    late:
        Served requests whose value arrived after their deadline —
        delivered and counted, never silently dropped.
    coalesced_launches / coalesced_requests:
        Shared launch rounds issued and requests that rode in a batch of
        width ≥ 2.
    verified / verify_failures:
        Bit-identity gate traffic (``verify=`` mode): served values
        re-computed serially and compared exactly.
    """

    offered: int = 0
    rejected: int = 0
    admitted: int = 0
    served: int = 0
    shed: int = 0
    failed: int = 0
    queued: int = 0
    in_flight: int = 0
    retried: int = 0
    late: int = 0
    coalesced_launches: int = 0
    coalesced_requests: int = 0
    verified: int = 0
    verify_failures: int = 0
    rejected_by_reason: Dict[str, int] = field(default_factory=dict)
    shed_by_cause: Dict[str, int] = field(default_factory=dict)
    tenants: Dict[str, TenantLedger] = field(default_factory=dict)

    IDENTITIES = TenantLedger.IDENTITIES + (
        Identity(
            "rejected == sum(rejected_by_reason)",
            total("rejected"),
            lambda ledger: sum(ledger.rejected_by_reason.values()),
            "every rejection carries a typed reason",
        ),
        Identity(
            "shed == sum(shed_by_cause)",
            total("shed"),
            lambda ledger: sum(ledger.shed_by_cause.values()),
            "every shed request carries a typed cause",
        ),
    ) + tuple(
        Identity(
            f"{bucket} == sum over tenants",
            total(bucket),
            _over_tenants(bucket),
            "the total is the sum of the tenant rows",
        )
        for bucket in TENANT_BUCKETS
    )

    # -- recording ------------------------------------------------------
    def tenant(self, name: str) -> TenantLedger:
        """The (created-on-first-use) row for ``name``."""
        row = self.tenants.get(name)
        if row is None:
            row = TenantLedger(name)
            self.tenants[name] = row
        return row

    def record_offered(self, tenant: str) -> None:
        """Count a request arriving at the front door."""
        self.offered += 1
        self.tenant(tenant).offered += 1

    def record_rejected(self, tenant: str, reason: str) -> None:
        """Count an admission rejection under typed ``reason``."""
        self.rejected += 1
        self.rejected_by_reason[reason] = (
            self.rejected_by_reason.get(reason, 0) + 1
        )
        self.tenant(tenant).rejected += 1

    def record_admitted(self, tenant: str) -> None:
        """Count an admitted request entering the queue."""
        self.admitted += 1
        self.queued += 1
        row = self.tenant(tenant)
        row.admitted += 1
        row.queued += 1

    def record_dispatched(self, tenant: str) -> None:
        """Move one request from queued to in-flight."""
        self.queued -= 1
        self.in_flight += 1
        row = self.tenant(tenant)
        row.queued -= 1
        row.in_flight += 1

    def record_served(self, tenant: str, *, late: bool = False) -> None:
        """Close an in-flight request with a value (``late`` if past deadline)."""
        self.in_flight -= 1
        self.served += 1
        row = self.tenant(tenant)
        row.in_flight -= 1
        row.served += 1
        if late:
            self.late += 1
            row.late += 1

    def record_shed(self, tenant: str, cause: str, *, queued: bool = True) -> None:
        """Close a request as shed (``queued`` selects which bucket it leaves)."""
        if queued:
            self.queued -= 1
            self.tenant(tenant).queued -= 1
        else:
            self.in_flight -= 1
            self.tenant(tenant).in_flight -= 1
        self.shed += 1
        self.shed_by_cause[cause] = self.shed_by_cause.get(cause, 0) + 1
        self.tenant(tenant).shed += 1

    def record_failed(self, tenant: str) -> None:
        """Close an in-flight request whose retries are exhausted."""
        self.in_flight -= 1
        self.failed += 1
        row = self.tenant(tenant)
        row.in_flight -= 1
        row.failed += 1

    def record_retried(self, tenant: str) -> None:
        """Count one uncoalesced retry of a failed batch member."""
        self.retried += 1
        self.tenant(tenant).retried += 1

    # -- identities -----------------------------------------------------
    def rows(self) -> Iterable[Tuple[str, TenantLedger]]:
        """The per-tenant rows, whose identities must close as well."""
        return [(f"tenant {name}", row) for name, row in self.tenants.items()]

    def drained(self) -> bool:
        """No request left queued or in flight?"""
        return self.queued == 0 and self.in_flight == 0

    def gauges(self) -> Dict[str, int]:
        """The aggregate counters, then the number of tenants."""
        return {**super().gauges(), "tenants": len(self.tenants)}

    def format(self) -> str:
        """One-line summary for logs and ``synthetictest`` output."""
        return (
            f"serve: tenants={len(self.tenants)} offered={self.offered} "
            f"admitted={self.admitted} rejected={self.rejected} "
            f"served={self.served} shed={self.shed} failed={self.failed} "
            f"retried={self.retried} late={self.late} "
            f"coalesced={self.coalesced_requests}req/"
            f"{self.coalesced_launches}launch "
            f"verified={self.verified}/{self.verified + self.verify_failures}"
        )
