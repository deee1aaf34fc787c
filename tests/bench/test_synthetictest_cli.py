"""Tests for the synthetictest CLI (Table II surface)."""

from __future__ import annotations

import io

from repro.bench.synthetictest import build_parser, run


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_table2_options_exist(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "--rsrc", "1",
                "--taxa", "64",
                "--sites", "512",
                "--reps", "1000",
                "--full-timing",
                "--manualscale",
                "--rescale-frequency", "1000",
                "--randomtree",
                "--reroot",
                "--seed", "1",
            ]
        )
        assert args.taxa == 64
        assert args.sites == 512
        assert args.reroot and args.randomtree and args.manualscale
        assert args.rescale_frequency == 1000

    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.rsrc == "0"
        assert not args.pectinate and not args.randomtree


class TestRun:
    def test_paper_example_invocation(self):
        """The exact command from §VI-F (reduced reps for test speed)."""
        code, text = run_cli(
            "--rsrc", "1", "--taxa", "64", "--sites", "512", "--reps", "10",
            "--full-timing", "--manualscale", "--rescale-frequency", "10",
            "--randomtree", "--reroot", "--seed", "1",
        )
        assert code == 0
        assert "type=random" in text
        assert "rerooted=yes" in text
        assert "GP100" in text
        assert "logL:" in text
        assert "per-launch breakdown" in text

    def test_cpu_resource_measures(self):
        code, text = run_cli(
            "--rsrc", "0", "--taxa", "8", "--sites", "32", "--reps", "2"
        )
        assert code == 0
        assert "CPU (NumPy engine), reps=2" in text
        assert "kernel backend" not in text
        assert "GFLOPS" in text

    def test_pectinate_counts(self):
        code, text = run_cli(
            "--rsrc", "1", "--taxa", "16", "--sites", "64", "--pectinate"
        )
        assert code == 0
        assert "operation sets: 15" in text

    def test_pectinate_rerooted_counts(self):
        code, text = run_cli(
            "--rsrc", "1", "--taxa", "16", "--sites", "64", "--pectinate",
            "--reroot",
        )
        assert code == 0
        assert "operation sets: 8" in text

    def test_serial_flag(self):
        code, text = run_cli(
            "--rsrc", "1", "--taxa", "16", "--sites", "64", "--serial"
        )
        assert code == 0
        assert "speedup vs serial launches: 1.00" in text

    def test_seed_changes_tree(self):
        _, a = run_cli("--rsrc", "1", "--taxa", "32", "--randomtree", "--seed", "1")
        _, b = run_cli("--rsrc", "1", "--taxa", "32", "--randomtree", "--seed", "2")
        assert a != b

    def test_deterministic(self):
        _, a = run_cli("--rsrc", "1", "--taxa", "32", "--randomtree", "--seed", "7")
        _, b = run_cli("--rsrc", "1", "--taxa", "32", "--randomtree", "--seed", "7")
        assert a == b

    def test_exclusive_topologies(self):
        code, text = run_cli("--pectinate", "--randomtree")
        assert code == 2
        assert "exclusive" in text

    def test_taxa_validation(self):
        code, text = run_cli("--taxa", "1")
        assert code == 2

    def test_rsrc_validation(self):
        for rsrc in ("5", "blocked", "pattern-blocked"):
            code, text = run_cli("--rsrc", rsrc)
            assert code == 2
            assert "0/cpu" in text and "1/gp100" in text

    def test_manualscale_cpu_path(self):
        code, text = run_cli(
            "--rsrc", "0", "--taxa", "8", "--sites", "16", "--reps", "3",
            "--manualscale", "--rescale-frequency", "2",
        )
        assert code == 0
        assert "logL:" in text


class TestExtensions:
    def test_partitions(self):
        code, text = run_cli(
            "--rsrc", "1", "--taxa", "16", "--sites", "64", "--partitions", "4"
        )
        assert code == 0
        assert "partitions: 4 x 16 patterns" in text
        assert "merged" in text

    def test_partitions_validation(self):
        code, _ = run_cli("--partitions", "0")
        assert code == 2

    def test_streams(self):
        code, text = run_cli(
            "--rsrc", "1", "--taxa", "16", "--sites", "64", "--streams", "4"
        )
        assert code == 0
        assert "streams (S=4)" in text

    def test_streams_requires_device_model(self):
        code, text = run_cli("--rsrc", "0", "--streams", "2")
        assert code == 2
        assert "requires" in text

    def test_streams_slower_than_multiop(self):
        _, multi = run_cli(
            "--rsrc", "1", "--taxa", "64", "--sites", "128", "--seed", "3"
        )
        _, stream = run_cli(
            "--rsrc", "1", "--taxa", "64", "--sites", "128", "--seed", "3",
            "--streams", "4",
        )
        def eval_us(text):
            line = [l for l in text.splitlines() if "time per evaluation" in l][0]
            return float(line.split(":")[1].split("us")[0])
        assert eval_us(stream) >= eval_us(multi)


class TestReplayableChaos:
    def test_inline_pool_soak_replays_its_fault_stream(self):
        """The inline pool soak's fault history, pinned draw for draw.

        The inline executor dispatches deterministically, so every count
        on the ``pool`` line follows from the seeded fault streams alone.
        A change to the number or order of fault draws per launch (or to
        how a faulting set degrades) changes this line.
        """
        code, text = run_cli(
            "--taxa", "32", "--sites", "64", "--reps", "24", "--seed", "4",
            "--pool", "4", "--pool-inline", "--pool-health-every", "5",
            "--worker-fault-rates", "0.25,0.25,0.25,1.0",
            "--fault-seed", "4", "--resilience", "full",
        )
        assert code == 0
        pool_line = [l for l in text.splitlines() if l.startswith("pool pool:")]
        assert pool_line == [
            "pool pool: workers=4 evicted=[] offered=24 completed=24 shed=0 "
            "surfaced=0 rerouted=3 rescued=0 probes=6 probe_failures=0 | "
            "faults: injected=57 detected=57 retried=51 degraded=3 rescued=0 "
            "errors=3 rerouted=3 shed=0 surfaced=0"
        ]
        assert "pool verified: 24/24" in text


class TestShardedRuns:
    def test_sharded_run_verifies_bitwise(self):
        code, text = run_cli(
            "--taxa", "10", "--sites", "256", "--shards", "4"
        )
        assert code == 0
        assert "CPU sharded (4 shards" in text
        assert "shard verified:" in text
        assert "recomputed_completed=0" in text

    def test_sharded_soak_with_faults_and_eviction(self):
        code, text = run_cli(
            "--taxa", "10", "--sites", "256", "--shards", "5",
            "--fault-rate", "0.25", "--shard-speculate",
            "--pool", "3", "--worker-fault-rates", "1.0",
            "--resilience", "retry", "--full-timing",
        )
        assert code == 0
        assert "shard verified:" in text
        # Shard-scoped chaos actually fired and the dead worker was
        # circuit-broken out of the fleet.
        assert "injected={" in text and "injected={}" not in text
        assert "evicted=[0]" in text

    def test_crash_drill_resumes_without_recompute(self, tmp_path):
        ckpt = str(tmp_path / "shards.json")
        code, text = run_cli(
            "--taxa", "10", "--sites", "256", "--shards", "4",
            "--shard-checkpoint", ckpt, "--shard-abort-after", "2",
        )
        assert code == 0
        assert "crash drill: aborted after 2 completed shards" in text
        assert "resumed 2 shard(s) without recomputation" in text
        assert "shard verified:" in text

    def test_shard_validation(self):
        for argv, message in [
            (["--shards", "-1"], "--shards must be non-negative"),
            (["--shards", "2", "--rsrc", "1"], "--shards requires a CPU"),
            (["--pool", "2", "--rsrc", "1"], "--pool requires a CPU"),
            (["--shard-speculate"], "shard options require --shards"),
            (
                ["--shards", "2", "--shard-resume"],
                "require --shard-checkpoint",
            ),
            (
                ["--shards", "2", "--manualscale"],
                "drop --manualscale",
            ),
            (
                ["--shards", "2", "--shard-fault-rate", "1.5"],
                "--shard-fault-rate must be within",
            ),
        ]:
            code, text = run_cli(*argv)
            assert code == 2, argv
            assert message in text


class TestServeFlags:
    def test_deadline_ms_with_serve_is_refused(self):
        # The server runs per-request deadlines of its own; a pool job
        # budget would be silently ignored, so the flag is refused.
        code, text = run_cli(
            "--pool", "3", "--pool-inline", "--serve", "16",
            "--serve-tenants", "2", "--deadline-ms", "0.001",
        )
        assert code == 2
        assert "use --serve-deadline-ms" in text


class TestGradientFlag:
    def test_gradient_verifies_against_oracle(self):
        code, text = run_cli(
            "--taxa", "8", "--sites", "32", "--reps", "1",
            "--randomtree", "--gradient", "--seed", "3",
        )
        assert code == 0, text
        assert "gradient: one sweep = 19 ops" in text
        assert (
            "gradient verified: 13/13 edges match the per-edge reroot oracle "
            "(exact" in text
        )
        assert "session instances: 1" in text
        assert (
            "gradient warm sweep verified: 13/13 edges match the per-edge "
            "reroot oracle after new branch lengths (exact)" in text
        )

    def test_warm_sweep_restores_the_branch_lengths(self):
        # The partition report after the gate evaluates the tree afresh.
        argv = ("--taxa", "12", "--sites", "32", "--reps", "1", "--partitions", "2")
        code, text = run_cli(*argv, "--gradient")
        assert code == 0, text
        assert "gradient warm sweep verified: 21/21" in text
        _, plain = run_cli(*argv)
        joint = [line for line in plain.splitlines() if "joint logL" in line]
        assert joint and joint[0] in text.splitlines()

    def test_closed_stdout_exits_nonzero_without_a_traceback(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.bench.synthetictest",
                "--taxa", "8", "--sites", "16", "--reps", "1", "--gradient",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()  # the reader goes away before the first line
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err, err

    def test_gradient_exact_on_wide_upper_sets(self):
        # Balanced 32 taxa: pre-order sets up to 16 wide run as run
        # steps, the first one per operation; both must stay exact.
        code, text = run_cli(
            "--taxa", "32", "--sites", "32", "--reps", "1", "--gradient",
        )
        assert code == 0, text
        assert "edges match the per-edge reroot oracle (exact" in text

    def test_gradient_device_model_economics(self):
        code, text = run_cli(
            "--taxa", "16", "--sites", "64", "--reps", "1",
            "--gradient", "--rsrc", "1", "--seed", "2",
        )
        assert code == 0, text
        assert "modelled gradient: one sweep" in text
        assert "launches saved" in text

    def test_gradient_needs_three_taxa(self):
        code, text = run_cli("--taxa", "2", "--gradient")
        assert code == 2
        assert "--gradient needs at least 3 taxa" in text

    def test_gradient_with_lint_verifies_plan(self):
        code, text = run_cli(
            "--taxa", "8", "--sites", "32", "--reps", "1",
            "--gradient", "--lint",
        )
        assert code == 0, text
