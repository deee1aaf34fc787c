"""Request and outcome types for the likelihood server.

A :class:`LikelihoodRequest` is one tenant's ask: *evaluate this
(instance, plan) case and return the log-likelihood, preferably before
my deadline*. The server owns the request from admission to a terminal
:class:`RequestOutcome`; the ``make_case`` factory is the same shape the
pool's :meth:`~repro.exec.pool.JobContext.evaluate` and the sentinel
already use, so any :class:`~repro.inference.likelihood.TreeLikelihood`
plugs in directly via its ``make_case`` method.

:class:`RequestDims` carries the shape facts coalescing needs — state
count, pattern count, rate categories, precision — without building the
instance (instances are built lazily, on the worker that serves the
request).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

from ..exec.health import Deadline

__all__ = ["RequestDims", "LikelihoodRequest", "RequestOutcome"]

MakeCase = Callable[[], Tuple[object, object]]

#: Terminal statuses (mirrored in :mod:`repro.serve.ledger`).
SERVED = "served"
SHED = "shed"
FAILED = "failed"


@dataclass(frozen=True)
class RequestDims:
    """Shape of a request's likelihood case, for compatibility grouping.

    Parameters
    ----------
    state_count, pattern_count, category_count:
        The engine dimensions ``S``, ``P``, ``C``.
    precision:
        ``"double"`` or ``"single"`` — must match for workspace sharing.
    """

    state_count: int
    pattern_count: int
    category_count: int = 1
    precision: str = "double"


@dataclass
class LikelihoodRequest:
    """One admitted unit of serving work (server-internal bookkeeping)."""

    index: int
    tenant: str
    make_case: MakeCase
    label: str
    dims: Optional[RequestDims] = None
    cost: int = 1
    budget_s: Optional[float] = None
    deadline: Optional[Deadline] = None
    submitted_at: float = 0.0
    attempts: int = 0
    retried: bool = False
    #: Plan set sizes, when known — lets the assembler and the device
    #: model price the coalesced launch schedule without re-planning.
    set_sizes: Tuple[int, ...] = field(default_factory=tuple)

    @property
    def expired(self) -> bool:
        """Has the request's deadline already passed?"""
        return self.deadline is not None and self.deadline.expired

    def deadline_key(self) -> float:
        """Sort key for deadline-ascending policies (soonest first)."""
        if self.deadline is None:
            return float("inf")
        return self.deadline.remaining


@dataclass(frozen=True)
class RequestOutcome:
    """Terminal state of one request.

    ``status`` is ``"served"`` (``value`` holds the log-likelihood),
    ``"shed"`` (dropped by explicit policy before completing — ``cause``
    says which policy) or ``"failed"`` (``error`` holds the typed
    failure). ``late`` marks served values that arrived after the
    request's deadline — delivered anyway, and counted. ``verified`` is
    set only when the server's bit-identity gate ran for this request.
    """

    index: int
    tenant: str
    label: str
    status: str
    value: Any = None
    error: Optional[BaseException] = None
    cause: Optional[str] = None
    attempts: int = 0
    coalesced_width: int = 1
    wait_s: float = 0.0
    late: bool = False
    verified: Optional[bool] = None

    @property
    def ok(self) -> bool:
        """Was the request served?"""
        return self.status == SERVED
