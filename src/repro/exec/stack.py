"""The engine's wrapper stack, built in one place.

Every wrapper in :mod:`repro.exec` (and the buffer sanitizer) intercepts
the engine's one launch method, ``update_partials_set``, and delegates
everything else. :func:`build_stack` composes them around an engine
instance in the only order the recovery contract allows, innermost
first::

    engine -> SanitizedInstance -> BiasInjector -> FaultInjector
           -> DeadlineGuard -> ResilientInstance
              (shadow state, corruption, chaos, budget, recovery)

* The sanitizer is innermost, so it records the accesses the engine
  really makes, retries and per-operation fallbacks included.
* The injectors sit inside the guard and the resilient facade, so an
  injected fault faces both the deadline and recovery.
* The guard sits inside the resilient facade, so every retry re-checks
  the budget and a spent deadline punches through recovery.

:func:`run_plan` runs a plan through whatever :func:`build_stack`
returned: the resilient facade's :meth:`~ResilientInstance.execute`
(root-level underflow detection and rescaling escalation) when it is on
top, :func:`~repro.core.planner.execute_plan` otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from ..core.planner import execute_plan
from .faults import BiasInjector, FaultInjector, FaultSchedule
from .health import Deadline, DeadlineGuard
from .resilient import FaultStats, ResilientInstance, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.sanitizer import RaceDetector

__all__ = ["build_stack", "run_plan"]


def build_stack(
    instance: Any,
    *,
    detector: Optional["RaceDetector"] = None,
    bias: Optional[float] = None,
    schedule: Optional[FaultSchedule] = None,
    deadline: Optional[Deadline] = None,
    policy: Optional[RetryPolicy] = None,
    stats: Optional[FaultStats] = None,
    sleep: Optional[Callable[[float], None]] = None,
    backoff_key: int = 0,
) -> Any:
    """Wrap ``instance`` in the layers asked for, in the fixed order.

    Each argument that is set adds its layer: ``detector`` a
    ``SanitizedInstance``, ``bias`` a :class:`~repro.exec.faults.BiasInjector`,
    ``schedule`` a :class:`~repro.exec.faults.FaultInjector`, a bounded
    ``deadline`` a :class:`~repro.exec.health.DeadlineGuard`, and
    ``policy`` a :class:`~repro.exec.resilient.ResilientInstance` (with
    ``stats``, ``sleep`` and ``backoff_key``). Returns the outermost
    layer, or ``instance`` itself when none is asked for.
    """
    if detector is not None:
        from ..analysis.sanitizer import SanitizedInstance

        instance = SanitizedInstance(instance, detector)
    if bias is not None:
        instance = BiasInjector(instance, bias)
    if schedule is not None:
        instance = FaultInjector(instance, schedule=schedule)
    if deadline is not None and deadline.seconds is not None:
        instance = DeadlineGuard(instance, deadline)
    if policy is not None:
        instance = ResilientInstance(
            instance, policy, sleep=sleep, stats=stats, backoff_key=backoff_key
        )
    return instance


def run_plan(stack: Any, plan: Any) -> float:
    """Run ``plan`` through a stack from :func:`build_stack`; returns the
    root log-likelihood."""
    if isinstance(stack, ResilientInstance):
        return stack.execute(plan)
    return execute_plan(stack, plan)
