"""Observability: tracing, metrics, and profiling across the likelihood stack.

The paper's whole argument is about *where time goes* — operation-set
counts, kernel-launch overhead, concurrency exposed by rerooting. This
subpackage lets the reproduction observe its own execution the same way:

* :mod:`repro.obs.tracing` — nestable :class:`Span`\\ s with monotonic
  timestamps and structured attributes, collected thread-safely and
  exported as Chrome/Perfetto ``trace_event`` JSON, so a whole
  ``synthetictest`` run renders as a timeline of plans, kernel batches,
  reroot searches, pool jobs and MCMC steps;
* :mod:`repro.obs.metrics` — a typed registry of counters, gauges and
  fixed-bucket histograms (operations evaluated, sets per plan, reroot
  wins, pool reroutes/shed/deadline-exceeded, retry attempts, checkpoint
  writes, …), exportable as Prometheus text and JSON;
* :mod:`repro.obs.profile` — per-phase timers (transition matrices,
  partials, scaling, root reduction) fed by both the measuring CPU
  engine and the modelled GPU simulator.

The three are bundled behind one :class:`Recorder` facade. The global
recorder defaults to :data:`NULL_RECORDER` — every hook in the hot path
then resolves to a shared no-op object, so the disabled path costs one
global read and one method call, no allocation. Enable collection with
:func:`set_recorder` (or the :func:`recording` context manager), or from
the CLI with ``synthetictest --trace/--metrics/--profile``.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, Optional, Union

from .metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    validate_metrics,
)
from .profile import NULL_PHASE, NullProfiler, PhaseProfiler, PhaseStats
from .tracing import (
    NULL_SPAN,
    NullTracer,
    Span,
    SpanRecord,
    Tracer,
    validate_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullProfiler",
    "NullRecorder",
    "NullTracer",
    "NULL_RECORDER",
    "PhaseProfiler",
    "PhaseStats",
    "Recorder",
    "Span",
    "SpanRecord",
    "Tracer",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_SECONDS_BUCKETS",
    "get_recorder",
    "set_recorder",
    "recording",
    "record_pool_stats",
    "record_serve_stats",
    "validate_metrics",
    "validate_trace",
]


class Recorder:
    """One handle bundling a tracer, a metrics registry and a profiler.

    Instrumentation sites call :meth:`span`, :meth:`count`,
    :meth:`observe` and :meth:`phase`; each delegates to the matching
    component. ``enabled`` is True so sites may skip attribute-dict
    construction entirely when the global recorder is the null one.
    """

    enabled = True

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        declare_standard_metrics(self.metrics)

    # -- tracing --------------------------------------------------------
    def span(self, name: str, category: str = "repro", **attributes: Any):
        """A nestable timed span (context manager); see :class:`Tracer`."""
        return self.tracer.span(name, category, **attributes)

    # -- metrics --------------------------------------------------------
    def count(self, name: str, amount: Union[int, float] = 1) -> None:
        """Increment counter ``name`` (registered on first use)."""
        self.metrics.counter(name).inc(amount)

    def gauge_set(self, name: str, value: Union[int, float]) -> None:
        """Set gauge ``name`` (registered on first use)."""
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: Union[int, float]) -> None:
        """Record ``value`` in histogram ``name`` (registered on first use)."""
        self.metrics.histogram(name).observe(value)

    # -- profiling ------------------------------------------------------
    def phase(self, name: str):
        """Per-phase timer (context manager); see :class:`PhaseProfiler`."""
        return self.profiler.phase(name)

    def add_phase_seconds(self, name: str, seconds: float, calls: int = 1) -> None:
        """Credit modelled seconds to a phase (GPU-simulator entry point)."""
        self.profiler.add(name, seconds, calls)


class NullRecorder(Recorder):
    """The default, disabled recorder: every hook is a shared no-op.

    ``enabled`` is False so hot paths can skip even the keyword-argument
    packing of ``span(...)`` calls; the methods still exist (and still
    cost only a call) for sites that do not bother to check.
    """

    enabled = False

    def __init__(self) -> None:
        self.tracer = NullTracer()
        self.metrics = MetricsRegistry()
        self.profiler = NullProfiler()

    def span(self, name: str, category: str = "repro", **attributes: Any):
        """The shared no-op span."""
        return NULL_SPAN

    def count(self, name: str, amount: Union[int, float] = 1) -> None:
        """No-op."""

    def gauge_set(self, name: str, value: Union[int, float]) -> None:
        """No-op."""

    def observe(self, name: str, value: Union[int, float]) -> None:
        """No-op."""

    def phase(self, name: str):
        """The shared no-op phase timer."""
        return NULL_PHASE

    def add_phase_seconds(self, name: str, seconds: float, calls: int = 1) -> None:
        """No-op."""


#: The process-wide disabled recorder (identity-compared in tests).
NULL_RECORDER = NullRecorder()

_recorder: Recorder = NULL_RECORDER


def get_recorder() -> Recorder:
    """The process-global recorder (the null recorder unless enabled)."""
    return _recorder


def set_recorder(recorder: Optional[Recorder]) -> Recorder:
    """Install ``recorder`` globally (``None`` restores the null
    recorder); returns the previous one so callers can restore it."""
    global _recorder
    previous = _recorder
    _recorder = recorder if recorder is not None else NULL_RECORDER
    return previous


@contextlib.contextmanager
def recording(recorder: Optional[Recorder] = None) -> Iterator[Recorder]:
    """Context manager installing a recorder and restoring the previous
    one on exit — the test-friendly way to scope observation::

        with recording() as obs:
            execute_plan(instance, plan)
        obs.tracer.write("trace.json")
    """
    active = recorder if recorder is not None else Recorder()
    previous = set_recorder(active)
    try:
        yield active
    finally:
        set_recorder(previous)


def declare_standard_metrics(registry: MetricsRegistry) -> None:
    """Pre-register the stack's standard instruments with help strings.

    Registration is idempotent, so sites that lazily re-request the same
    names get these instances back.
    """
    registry.counter(
        "repro_operations_evaluated_total",
        "Partial-likelihood operations executed by the engine",
    )
    registry.counter(
        "repro_kernel_launches_total",
        "Kernel launches (batched sets and per-op fallbacks)",
    )
    registry.counter(
        "repro_plans_built_total", "Execution plans constructed by make_plan"
    )
    registry.histogram(
        "repro_sets_per_plan",
        "Operation sets (kernel launches) per built plan",
        buckets=DEFAULT_COUNT_BUCKETS,
    )
    registry.histogram(
        "repro_operations_per_set",
        "Operations batched into each executed set",
        buckets=DEFAULT_COUNT_BUCKETS,
    )
    registry.counter(
        "repro_matrix_cache_hits_total",
        "Transition matrices served from the LRU matrix cache",
    )
    registry.counter(
        "repro_matrix_cache_misses_total",
        "Transition matrices computed on an LRU matrix-cache miss",
    )
    registry.counter(
        "repro_gradient_plans_built_total",
        "One-sweep gradient plans constructed by make_gradient_plan",
    )
    registry.counter(
        "repro_gradient_sweeps_total",
        "Post-order + pre-order gradient sweeps executed",
    )
    registry.counter(
        "repro_gradient_edges_total",
        "Branch derivative triples produced by all_branch_derivatives",
    )
    registry.counter(
        "repro_hmc_trajectories_total", "HMC leapfrog trajectories simulated"
    )
    registry.counter(
        "repro_reroot_searches_total", "Optimal-reroot searches run"
    )
    registry.counter(
        "repro_reroot_wins_total",
        "Reroot searches that reduced the operation-set count",
    )
    registry.counter(
        "repro_retry_attempts_total",
        "Launch re-attempts performed by ResilientInstance",
    )
    registry.counter(
        "repro_degraded_sets_total",
        "Batched sets degraded to per-operation launches",
    )
    registry.counter(
        "repro_rescues_total", "Rescaling escalations that recovered a run"
    )
    registry.counter(
        "repro_checkpoint_writes_total", "MCMC checkpoints written"
    )
    registry.counter("repro_mcmc_steps_total", "MCMC proposals evaluated")
    registry.counter("repro_mcmc_accepts_total", "MCMC proposals accepted")
    registry.counter(
        "repro_pool_jobs_completed_total", "Pool jobs finishing ok"
    )
    registry.counter(
        "repro_pool_reroutes_total", "Pool jobs rerouted after a worker failure"
    )
    registry.counter(
        "repro_pool_shed_total",
        "Pool jobs shed (admission control or queue-expired deadline)",
    )
    registry.counter(
        "repro_pool_deadline_exceeded_total",
        "Pool jobs whose deadline expired mid-execution",
    )
    registry.counter(
        "repro_pool_rescued_total", "Pool jobs re-run after a failed audit"
    )
    registry.counter(
        "repro_shard_evaluations_total", "Sharded likelihood evaluations"
    )
    registry.counter(
        "repro_shard_jobs_total", "Shard jobs submitted to the pool"
    )
    registry.counter(
        "repro_shard_retries_total", "Shard attempts retried after a failure"
    )
    registry.counter(
        "repro_shard_speculative_wasted_total",
        "Speculative duplicate shard results discarded (loser copies)",
    )
    registry.counter(
        "repro_shard_stragglers_total",
        "Shard jobs cancelled by straggler deadlines",
    )
    registry.counter(
        "repro_shard_escalations_total",
        "Shards escalated to scaled arithmetic after underflow",
    )
    registry.counter(
        "repro_shard_disagreements_total",
        "Speculative shard copies that returned different bits",
    )
    registry.counter(
        "repro_shard_resumed_total",
        "Shards restored from a checkpoint instead of recomputed",
    )
    registry.counter(
        "repro_shard_checkpoint_writes_total", "Shard checkpoints written"
    )
    registry.counter(
        "repro_serve_served_total", "Server requests completed with a value"
    )
    registry.counter(
        "repro_serve_rejected_total",
        "Server submissions refused by admission control",
    )
    registry.counter(
        "repro_serve_shed_total",
        "Server requests shed (queue-expired or brownout)",
    )
    registry.counter(
        "repro_serve_failed_total",
        "Server requests exhausting their uncoalesced retry",
    )
    registry.counter(
        "repro_serve_retries_total",
        "Server requests re-dispatched uncoalesced after a batch failure",
    )
    registry.counter(
        "repro_serve_late_total",
        "Served values delivered after their request deadline",
    )
    registry.counter(
        "repro_serve_verify_failures_total",
        "Served values that failed the serial bit-identity gate",
    )


def record_pool_stats(stats, registry: Optional[MetricsRegistry] = None) -> None:
    """Export a :class:`~repro.exec.pool.PoolStats` ledger as gauges.

    Every ledger field becomes a ``repro_pool_*`` gauge, and —
    crucially — the number of violated ledger identities is exported as
    ``repro_pool_ledger_imbalances``: an imbalance stops being a silent
    internal invariant and becomes an alertable metric. The gauges and
    identities are the ones the ledger declares
    (:class:`~repro.exec.ledger.Ledger`).
    """
    registry = registry if registry is not None else get_recorder().metrics
    _record_ledger(stats, "repro_pool", registry)


def _record_ledger(ledger, prefix: str, registry: MetricsRegistry) -> None:
    """One ``<prefix>_<field>`` gauge per counter of ``ledger.gauges()``,
    and the violated-identity count as ``<prefix>_ledger_imbalances``."""
    name = type(ledger).__name__
    for field, value in ledger.gauges().items():
        registry.gauge(
            f"{prefix}_{field}", f"{name}.{field} at the last export"
        ).set(value)
    registry.gauge(
        f"{prefix}_ledger_imbalances",
        f"Violated {name} identities (0 = ledger closes)",
    ).set(len(ledger.imbalances()))


def record_serve_stats(ledger, registry: Optional[MetricsRegistry] = None) -> None:
    """Export a :class:`~repro.serve.ledger.ServeLedger` as gauges.

    Mirrors :func:`record_pool_stats`: every aggregate bucket becomes a
    ``repro_serve_*`` gauge, rejection reasons and shed causes export as
    labeled gauges, and the violated-identity count lands in
    ``repro_serve_ledger_imbalances`` so a drifting request ledger is an
    alertable signal, not a silent invariant.
    """
    registry = registry if registry is not None else get_recorder().metrics
    _record_ledger(ledger, "repro_serve", registry)
    for reason, count in sorted(ledger.rejected_by_reason.items()):
        registry.gauge(
            "repro_serve_rejected_by_reason",
            "Server rejections, by typed admission reason",
            labels={"reason": reason},
        ).set(count)
    for cause, count in sorted(ledger.shed_by_cause.items()):
        registry.gauge(
            "repro_serve_shed_by_cause",
            "Server sheds, by typed cause",
            labels={"cause": cause},
        ).set(count)
