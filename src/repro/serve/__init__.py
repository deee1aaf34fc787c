"""Likelihood-as-a-service: an overload-safe serving front end.

The :mod:`repro.exec` pool answers *"how do N workers survive faults?"*;
this package answers the next question a deployment asks: *"how does a
shared service stay fair, bounded and honest when thousands of tenants
hit it at once?"* Five cooperating policy layers, each independently
testable:

* :mod:`~repro.serve.admission` — deadline-aware admission with typed
  reject reasons (never queue work that can only be shed later).
* :mod:`~repro.serve.fairness` — deficit-round-robin scheduling with
  per-tenant in-flight caps and a provable starvation bound.
* :mod:`~repro.serve.coalesce` — cross-request operation coalescing:
  compatible requests share kernel launches and a Workspace while
  every served value stays bit-identical to its serial evaluation.
* :mod:`~repro.serve.brownout` — staged graceful degradation (widen
  coalescing → clamp quotas → shed deadline-ascending), by policy.
* :mod:`~repro.serve.ledger` — closed-form accounting: every request in
  exactly one bucket, globally and per tenant; no silent drops.

:class:`~repro.serve.server.LikelihoodServer` wires them together;
:mod:`~repro.serve.traffic` generates seeded multi-tenant arrival traces
(burst storms included) for replayable overload chaos.
"""

from .admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    ServerSaturatedError,
)
from .brownout import BrownoutController, BrownoutPolicy
from .coalesce import (
    BatchAssembler,
    CoalescedBatch,
    CoalescePolicy,
    CompatKey,
)
from .fairness import DeficitRoundRobin, FairnessConfig
from .ledger import (
    REJECT_BROWNOUT,
    REJECT_INFEASIBLE,
    REJECT_QUEUE_FULL,
    REJECT_TENANT_QUOTA,
    SHED_BROWNOUT,
    SHED_EXPIRED,
    ServeLedger,
    TenantLedger,
)
from .request import LikelihoodRequest, RequestDims, RequestOutcome
from .server import LikelihoodServer
from .traffic import Arrival, StepClock, burst_storm, replay, steady_trace

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "ServerSaturatedError",
    "BrownoutController",
    "BrownoutPolicy",
    "BatchAssembler",
    "CoalescedBatch",
    "CoalescePolicy",
    "CompatKey",
    "DeficitRoundRobin",
    "FairnessConfig",
    "ServeLedger",
    "TenantLedger",
    "SHED_EXPIRED",
    "SHED_BROWNOUT",
    "REJECT_QUEUE_FULL",
    "REJECT_TENANT_QUOTA",
    "REJECT_INFEASIBLE",
    "REJECT_BROWNOUT",
    "LikelihoodRequest",
    "RequestDims",
    "RequestOutcome",
    "LikelihoodServer",
    "Arrival",
    "StepClock",
    "steady_trace",
    "burst_storm",
    "replay",
]
