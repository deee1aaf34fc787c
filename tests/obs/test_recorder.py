"""Recorder facade, global install/restore, and stack integration."""

from __future__ import annotations

import json

from repro.data import simulate_alignment
from repro.exec.pool import PoolStats
from repro.inference import TreeLikelihood
from repro.models import JC69
from repro.obs import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    get_recorder,
    record_pool_stats,
    record_serve_stats,
    recording,
    set_recorder,
    validate_metrics,
    validate_trace,
)
from repro.obs.profile import PHASE_MODELLED
from repro.obs.tracing import NULL_SPAN
from repro.trees import pectinate_tree


def test_default_global_recorder_is_the_null_singleton():
    assert get_recorder() is NULL_RECORDER
    assert not get_recorder().enabled


def test_set_recorder_returns_previous_and_none_restores_null():
    active = Recorder()
    previous = set_recorder(active)
    try:
        assert previous is NULL_RECORDER
        assert get_recorder() is active
    finally:
        assert set_recorder(None) is active
    assert get_recorder() is NULL_RECORDER


def test_recording_context_restores_on_exception():
    try:
        with recording() as obs:
            assert get_recorder() is obs
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert get_recorder() is NULL_RECORDER


def test_recorder_facade_delegates_to_components():
    recorder = Recorder()
    with recorder.span("work", category="test", k=1):
        recorder.count("repro_plans_built_total", 2)
        recorder.gauge_set("depth", 7)
        recorder.observe("repro_sets_per_plan", 3)
        recorder.add_phase_seconds(PHASE_MODELLED, 1.5, calls=4)
    (record,) = recorder.tracer.records()
    assert record.name == "work"
    assert recorder.metrics.counter("repro_plans_built_total").value == 2
    assert recorder.metrics.gauge("depth").value == 7
    assert recorder.metrics.histogram("repro_sets_per_plan").count == 1
    (phase,) = recorder.profiler.stats()
    assert (phase.name, phase.seconds, phase.calls) == (PHASE_MODELLED, 1.5, 4)


def test_null_recorder_hooks_are_shared_noops():
    null = NullRecorder()
    assert null.span("x", category="y", huge_kwargs=1) is NULL_SPAN
    null.count("anything")
    null.observe("anything", 1)
    null.gauge_set("anything", 1)
    null.add_phase_seconds("anything", 1.0)
    assert null.tracer.records() == []
    assert null.metrics.to_prometheus() == ""


def test_standard_metrics_predeclared_with_help_text():
    recorder = Recorder()
    text = recorder.metrics.to_prometheus()
    for name in (
        "repro_operations_evaluated_total",
        "repro_kernel_launches_total",
        "repro_sets_per_plan",
        "repro_pool_jobs_completed_total",
        "repro_mcmc_steps_total",
    ):
        assert f"# HELP {name} " in text
        assert f"# TYPE {name} " in text


def test_likelihood_evaluation_traces_all_layers(tmp_path):
    tree = pectinate_tree(12, branch_length=0.1)
    model = JC69()
    alignment = simulate_alignment(tree, model, 32, seed=3)
    with recording() as obs:
        evaluator = TreeLikelihood(
            tree, model, alignment, mode="concurrent", reroot="fast"
        )
        value = evaluator.log_likelihood()
    # Same computation, no recorder: values are identical.
    silent = TreeLikelihood(
        tree, model, alignment, mode="concurrent", reroot="fast"
    )
    assert silent.log_likelihood() == value

    categories = obs.tracer.categories()
    for expected in ("kernel", "plan", "reroot"):
        assert expected in categories
    assert obs.metrics.counter("repro_kernel_launches_total").value > 0
    assert obs.metrics.counter("repro_operations_evaluated_total").value > 0
    assert obs.metrics.counter("repro_reroot_searches_total").value == 1
    assert obs.profiler.total_seconds() > 0

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    obs.tracer.write(trace_path)
    obs.metrics.write_json(metrics_path)
    assert validate_trace(json.loads(trace_path.read_text())) == []
    assert validate_metrics(json.loads(metrics_path.read_text())) == []


def test_record_pool_stats_exports_gauges_and_imbalances():
    recorder = Recorder()
    stats = PoolStats(workers=2, offered=5, completed=4, shed=1)
    stats.faults.errors = 0
    record_pool_stats(stats, registry=recorder.metrics)
    assert recorder.metrics.gauge("repro_pool_offered").value == 5
    assert recorder.metrics.gauge("repro_pool_completed").value == 4
    assert recorder.metrics.gauge("repro_pool_ledger_imbalances").value == 0

    broken = PoolStats(workers=2, offered=5, completed=3)  # 2 jobs lost
    record_pool_stats(broken, registry=recorder.metrics)
    assert recorder.metrics.gauge("repro_pool_ledger_imbalances").value == 1


def test_record_pool_stats_defaults_to_global_recorder():
    with recording() as obs:
        record_pool_stats(PoolStats(workers=1))
    assert obs.metrics.gauge("repro_pool_workers").value == 1


def test_record_serve_stats_exports_gauges_and_labeled_breakdowns():
    from repro.serve import SHED_EXPIRED, ServeLedger

    ledger = ServeLedger()
    for _ in range(3):
        ledger.record_offered("a")
        ledger.record_admitted("a")
    ledger.record_offered("b")
    ledger.record_rejected("b", "queue-full")
    ledger.record_dispatched("a")
    ledger.record_served("a")
    ledger.record_dispatched("a")
    ledger.record_served("a", late=True)
    ledger.record_shed("a", SHED_EXPIRED)

    recorder = Recorder()
    record_serve_stats(ledger, registry=recorder.metrics)
    assert recorder.metrics.gauge("repro_serve_offered").value == 4
    assert recorder.metrics.gauge("repro_serve_served").value == 2
    assert recorder.metrics.gauge("repro_serve_late").value == 1
    assert recorder.metrics.gauge("repro_serve_tenants").value == 2
    assert (
        recorder.metrics.gauge(
            "repro_serve_rejected_by_reason", labels={"reason": "queue-full"}
        ).value
        == 1
    )
    assert (
        recorder.metrics.gauge(
            "repro_serve_shed_by_cause", labels={"cause": SHED_EXPIRED}
        ).value
        == 1
    )
    # The ledger above closes: every identity holds.
    assert recorder.metrics.gauge("repro_serve_ledger_imbalances").value == 0


def test_record_serve_stats_flags_an_unbalanced_ledger():
    from repro.serve import ServeLedger

    broken = ServeLedger()
    broken.record_offered("a")
    broken.record_admitted("a")
    broken.queued = 0  # lose the request: admitted != served+shed+failed+...
    recorder = Recorder()
    record_serve_stats(broken, registry=recorder.metrics)
    assert recorder.metrics.gauge("repro_serve_ledger_imbalances").value >= 1


def test_pool_stats_explain_names_each_identity():
    balanced = PoolStats(offered=3, completed=2, shed=1)
    lines = balanced.explain().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("[ok]") for line in lines)

    broken = PoolStats(offered=3, completed=1)
    lines = broken.explain().splitlines()
    assert lines[0].startswith("[VIOLATED]")
    assert "offered == completed + shed + surfaced" in lines[0]
    assert "(3 vs 1)" in lines[0]
    assert "terminal outcome" in lines[0]
    # explain() and imbalances() must agree on what is violated.
    assert len([l for l in lines if "VIOLATED" in l]) == len(broken.imbalances())
