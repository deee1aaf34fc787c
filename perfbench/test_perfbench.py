"""Smoke tests of the benchmark itself, at tiny problem sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SPANS = ("core.make_plan", "models.eigen", "beagle.create_instance")
ENGINE_SPANS = (
    "core.execute_plan",
    "beagle.update_partials_set",
    "beagle.update_transition_matrices",
    "beagle.calculate_root_log_likelihood",
)
#: The wrappers each workload's timed units must pass through.
UNIT_SPANS = {
    "eval-narrow": ENGINE_SPANS + ("inference.log_likelihood",),
    "eval-wide": ENGINE_SPANS + ("inference.log_likelihood",),
    "mcmc": ENGINE_SPANS
    + (
        "core.incremental_plan",
        "inference.propose",
        "inference.accept",
        "inference.reject",
        "inference.branch_length_move",
        "inference.nni_move_at",
    ),
    "gradient": ENGINE_SPANS
    + (
        "core.make_plan",
        "core.make_gradient_plan",
        "core.execute_gradient_plan",
        "beagle.create_instance",
        "beagle.update_upper_partials_set",
        "inference.all_branch_derivatives",
    ),
    "serve": ENGINE_SPANS
    + (
        "beagle.create_instance",
        "serve.submit",
        "serve.step",
        "exec.pool_submit",
        "exec.pool_drain",
    ),
}


def test_every_workload_has_wrapper_expectations():
    assert set(UNIT_SPANS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result, details = run.run_workload(name, 3, 0.3, 0, "tiny")
    assert result["correct"], details["tally"].notes
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_fires_every_wrapper(name):
    result, details = run.run_workload(name, 3, 0.3, 1, "tiny")
    assert result["correct"], details["tally"].notes
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.PER_LAYER
    setup_calls, unit_calls = details["setup_calls"], details["unit_calls"]
    for span in SETUP_SPANS + (("core.reroot",) if name == "eval-narrow" else ()):
        assert setup_calls.get(span, 0) > 0, span
    for span in UNIT_SPANS[name]:
        assert unit_calls.get(span, 0) > 0, span
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    for key in (
        "core.launches_per_unit",
        "core.ops_per_unit",
        "beagle.patterns",
        "gpu.modelled_us_per_unit",
        "beagle.bytes_per_unit_computed",
        "host.probe_ms",
        "trace.units",
    ):
        assert metrics[key] > 0, key
    assert 0.5 < metrics["trace.attributed_frac"] <= 1.0


def test_tracer_restores_every_patched_reference():
    from repro.beagle.instance import BeagleInstance
    from repro.core import planner
    from repro.inference import likelihood

    originals = (
        BeagleInstance.update_partials_set,
        planner.execute_plan,
        likelihood.execute_plan,
    )
    tracer = tracing.Tracer()
    with tracer.applied():
        assert likelihood.execute_plan is not originals[2]
        assert likelihood.execute_plan is planner.execute_plan
    assert (
        BeagleInstance.update_partials_set,
        planner.execute_plan,
        likelihood.execute_plan,
    ) == originals


def test_self_time_excludes_child_spans():
    import time

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        child_span()

    tracer = tracing.Tracer(entry_points=())
    child_span = tracer._wrap("child", child, None)
    parent_span = tracer._wrap("parent", parent, None)
    parent_span()
    assert tracer.total["parent"] >= tracer.total["child"] >= 0.02
    assert 0.01 <= tracer.self_time["parent"] < tracer.total["child"]


def test_times_are_calibrated_by_the_probe_around_them():
    class Fixed(workloads.Workload):
        sizes = {"full": None}
        block = 3

        def run(self, state, n, tally):
            tally.attempted += n
            return [0.010] * n

    slow_host = lambda: 2 * run.REFERENCE_PROBE_S  # noqa: E731
    tally = workloads.Tally()
    measured = run._measure(Fixed(), None, 0.05, tally, slow_host)
    assert measured["raw_latencies"] and measured["latencies"]
    assert all(t == 0.005 for t in measured["latencies"])
    assert all(t == 0.010 for t in measured["raw_latencies"])
    for raw, calibrated in zip(measured["raw_rates"], measured["rates"]):
        assert calibrated == pytest.approx(2 * raw)


def test_work_counts_do_not_depend_on_the_seed():
    assert run.self_check("tiny") == 0


def test_count_check_catches_seed_dependent_mcmc_work():
    """``run_mcmc`` picks edges from its seed, so its work drifts with it."""
    from repro import GTR, TreeLikelihood, balanced_tree, random_patterns
    from repro.inference import run_mcmc

    def signature(seed):
        tree = balanced_tree(16, branch_length=0.1)
        patterns = random_patterns(tree.tip_names(), 16, seed=5)
        evaluator = TreeLikelihood(tree, GTR(), patterns)
        tracer = tracing.Tracer()
        tracer.counting = True
        with tracer.applied():
            run_mcmc(evaluator, 200, seed=seed, incremental=True)
        return tracer.work_signature()

    assert run.compare_counts(signature(1), signature(2))


def test_wrong_answer_fails_the_run(monkeypatch):
    real_setup = workloads.Evaluate.setup

    def off_by_one_ulp(self, inputs):
        state = real_setup(self, inputs)
        state["reference"] = state["reference"] * (1 + 2**-52)
        return state

    monkeypatch.setattr(workloads.Evaluate, "setup", off_by_one_ulp)
    code = run.main(
        ["--workload", "eval-narrow", "--seconds", "0.2", "--size", "tiny"]
    )
    assert code == 1


def test_missing_program_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "eval-narrow",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_what_the_code_reports():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
