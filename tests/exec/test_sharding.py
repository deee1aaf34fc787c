"""Unit tests for site-pattern sharding (repro.exec.sharding).

The property suite (tests/property/test_shard_determinism.py) fuzzes the
bit-identity contract; these tests pin down the mechanics — shard
planning, ledger identities, checkpoint/resume, the crash drill, fault
escalation and speculation accounting — and that a sharded total is the
unsharded engine's logL, bit for bit.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import create_instance, execute_plan, make_plan
from repro.data import random_patterns
from repro.exec import (
    CheckpointError,
    LikelihoodPool,
    ShardAborted,
    ShardFailure,
    ShardFaultSpec,
    ShardLedger,
    ShardedLikelihood,
    plan_shards,
)
from repro.exec.sharding import MIN_SHARD_WIDTH
from repro.gpu import GP100, WorkloadDims, time_set_sizes
from repro.inference import TreeLikelihood
from repro.models import random_gtr
from repro.trees import random_attachment_tree, yule_tree


def _problem(taxa=6, sites=96, seed=3):
    rng = np.random.default_rng(seed)
    tree = yule_tree(taxa, rng)
    model = random_gtr(rng)
    patterns = random_patterns(tree.tip_names(), sites, rng=rng)
    return tree, model, patterns


def _unsharded(tree, model, patterns):
    """The oracle: the unsharded engine's logL."""
    return TreeLikelihood(tree, model, patterns).log_likelihood()


class TestPlanShards:
    def test_even_split_is_contiguous_and_complete(self):
        shards = plan_shards(100, 4, min_width=1)
        assert [s.index for s in shards] == [0, 1, 2, 3]
        assert shards[0].start == 0 and shards[-1].stop == 100
        for left, right in zip(shards, shards[1:]):
            assert left.stop == right.start
        assert sum(s.width for s in shards) == 100

    def test_width_floor_clamps_shard_count(self):
        # 20 patterns can host at most 2 shards of MIN_SHARD_WIDTH=8.
        shards = plan_shards(20, 10)
        assert len(shards) == 20 // MIN_SHARD_WIDTH == 2
        assert all(s.width >= MIN_SHARD_WIDTH for s in shards)

    def test_single_shard_when_too_narrow(self):
        shards = plan_shards(5, 4)
        assert len(shards) == 1
        assert shards[0].width == 5

    def test_weighted_cuts_balance_site_counts(self):
        # One heavy pattern at the front: the weighted plan gives the
        # first shard fewer patterns than the even split would.
        weights = np.ones(64)
        weights[0] = 64.0
        shards = plan_shards(64, 4, weights=weights, min_width=8)
        assert shards[0].width < 16
        assert sum(s.width for s in shards) == 64
        assert all(s.width >= 8 for s in shards)

    def test_plan_is_deterministic(self):
        w = np.random.default_rng(0).integers(1, 50, size=200).astype(float)
        a = plan_shards(200, 7, weights=w)
        b = plan_shards(200, 7, weights=w)
        assert a == b

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            plan_shards(0, 2)
        with pytest.raises(ValueError):
            plan_shards(10, 0)
        with pytest.raises(ValueError):
            plan_shards(10, 2, weights=np.ones(3))


class TestShardLedger:
    def test_balanced_ledger_closes(self):
        ledger = ShardLedger(
            total_shards=3, computed=3, submissions=4, ok=4,
            wins=3, wasted=1,
        )
        assert ledger.balances()

    def test_imbalances_name_the_identity(self):
        ledger = ShardLedger(total_shards=3, computed=2, submissions=1)
        problems = ledger.imbalances()
        assert any("total_shards" in p for p in problems)
        assert any("submissions" in p for p in problems)


class TestShardedLikelihood:
    def test_matches_reference_bitwise(self):
        tree, model, patterns = _problem()
        engine = ShardedLikelihood(tree, model, patterns, n_shards=4)
        value = engine.log_likelihood()
        assert value == _unsharded(tree, model, patterns)
        assert engine.ledger.balances()

    def test_terms_cover_every_pattern(self):
        # The spliced site logs are the full instance's, slot for slot.
        tree, model, patterns = _problem()
        engine = ShardedLikelihood(tree, model, patterns, n_shards=3)
        engine.evaluate()
        instance = create_instance(tree, model, patterns)
        plan = make_plan(tree, "concurrent")
        execute_plan(instance, plan)
        np.testing.assert_array_equal(
            engine.site_logs, instance.site_log_likelihoods(plan.root_buffer)
        )

    def test_speculation_accounting(self):
        tree, model, patterns = _problem()
        engine = ShardedLikelihood(
            tree, model, patterns, n_shards=4, speculate=True
        )
        value = engine.log_likelihood()
        assert value == _unsharded(tree, model, patterns)
        ledger = engine.ledger
        assert ledger.balances(), ledger.imbalances()
        # Every shard was submitted twice; the losing copies are
        # reconciled as wasted, never silently dropped.
        assert ledger.submissions == 2 * engine.n_shards
        assert ledger.wins == engine.n_shards
        assert ledger.wasted == engine.n_shards

    def test_injected_underflow_escalates_and_preserves_bits(self):
        tree, model, patterns = _problem()
        engine = ShardedLikelihood(
            tree,
            model,
            patterns,
            n_shards=4,
            fault_spec=ShardFaultSpec(
                rate=1.0, seed=9, classes=("shard_underflow",), max_faults=2
            ),
        )
        value = engine.log_likelihood()
        assert value == _unsharded(tree, model, patterns)
        assert engine.ledger.escalations == 2
        assert engine.ledger.balances()

    def test_retry_budget_exhaustion_raises_shard_failure(self):
        tree, model, patterns = _problem()
        engine = ShardedLikelihood(
            tree,
            model,
            patterns,
            n_shards=2,
            retries=1,
            fault_spec=ShardFaultSpec(
                rate=1.0, seed=0, classes=("shard_lost",)
            ),
        )
        with pytest.raises(ShardFailure):
            engine.evaluate()

    def test_modelled_seconds_prices_every_shard_width(self):
        tree, model, patterns = _problem()
        engine = ShardedLikelihood(tree, model, patterns, n_shards=4)
        widths = [s.width for s in plan_shards(patterns.n_patterns, 4)]
        assert [s.width for s in engine.shards] == widths

        def seconds(width):
            dims = WorkloadDims(patterns=width, states=model.n_states)
            return time_set_sizes(GP100, dims, engine.plan.set_sizes).seconds

        assert engine.modelled_seconds(GP100) == sum(map(seconds, widths))
        # Every shard pays each launch's fixed cost, so the shards'
        # total never undercuts one full-width evaluation.
        assert engine.modelled_seconds(GP100) >= seconds(patterns.n_patterns)

    def test_with_tree_shares_pool_and_config(self):
        tree, model, patterns = _problem()
        pool = LikelihoodPool(2, executor="inline", deadline_s=None)
        engine = ShardedLikelihood(
            tree, model, patterns, n_shards=3, pool=pool, speculate=True
        )
        other = engine.with_tree(tree)
        assert other.pool is pool
        assert other.n_shards == engine.n_shards
        assert other.speculate
        assert other.log_likelihood() == engine.log_likelihood()


class TestCheckpointResume:
    def test_crash_drill_resumes_without_recompute(self, tmp_path):
        tree, model, patterns = _problem(sites=128)
        path = tmp_path / "shards.json"
        drill = ShardedLikelihood(
            tree,
            model,
            patterns,
            n_shards=4,
            checkpoint_path=path,
            abort_after=2,
        )
        with pytest.raises(ShardAborted):
            drill.evaluate()
        assert path.exists()

        resumed = ShardedLikelihood(
            tree,
            model,
            patterns,
            n_shards=4,
            checkpoint_path=path,
            resume=True,
        )
        value = resumed.log_likelihood()
        assert value == _unsharded(tree, model, patterns)
        assert resumed.ledger.resumed == 2
        assert resumed.ledger.computed == resumed.n_shards - 2
        assert resumed.ledger.recomputed_completed == 0
        assert resumed.ledger.balances()

    def test_resume_with_missing_checkpoint_computes_everything(
        self, tmp_path
    ):
        tree, model, patterns = _problem()
        engine = ShardedLikelihood(
            tree,
            model,
            patterns,
            n_shards=3,
            checkpoint_path=tmp_path / "none.json",
            resume=True,
        )
        assert engine.log_likelihood() == _unsharded(tree, model, patterns)
        assert engine.ledger.resumed == 0

    def test_resume_refuses_a_different_problem(self, tmp_path):
        tree, model, patterns = _problem(sites=128)
        path = tmp_path / "shards.json"
        drill = ShardedLikelihood(
            tree, model, patterns, n_shards=4,
            checkpoint_path=path, abort_after=2,
        )
        with pytest.raises(ShardAborted):
            drill.evaluate()

        other_tree, other_model, other_patterns = _problem(seed=99, sites=128)
        stale = ShardedLikelihood(
            other_tree, other_model, other_patterns, n_shards=4,
            checkpoint_path=path, resume=True,
        )
        # A fingerprint mismatch must not splice foreign shard results:
        # either the resume is refused outright or nothing is restored.
        try:
            stale.evaluate()
        except Exception:
            pass
        else:
            assert stale.ledger.resumed == 0

    def test_version_1_checkpoint_is_refused(self, tmp_path):
        # Version 1 stored weighted terms; splicing them as site logs
        # would weight every pattern twice, so the file is refused.
        tree, model, patterns = _problem(sites=128)
        path = tmp_path / "shards.json"
        drill = ShardedLikelihood(
            tree, model, patterns, n_shards=4,
            checkpoint_path=path, abort_after=2,
        )
        with pytest.raises(ShardAborted):
            drill.evaluate()
        payload = json.loads(path.read_text())
        payload["version"] = 1
        payload["completed"] = payload.pop("site_logs")
        path.write_text(json.dumps(payload))
        resumed = ShardedLikelihood(
            tree, model, patterns, n_shards=4,
            checkpoint_path=path, resume=True,
        )
        with pytest.raises(CheckpointError, match="format version 1"):
            resumed.evaluate()


class TestUnshardedBits:
    """A sharded total is the unsharded engine's logL, bit for bit."""

    @pytest.mark.parametrize("seed", range(12))
    def test_sharded_adapter_matches_log_likelihood(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_attachment_tree(24, rng, random_lengths=True)
        model = random_gtr(rng)
        patterns = random_patterns(tree.tip_names(), 1000, rng=rng)
        evaluator = TreeLikelihood(tree, model, patterns)
        pool = LikelihoodPool(2, executor="inline", deadline_s=None)
        sharded = evaluator.sharded(n_shards=4, pool=pool)
        assert sharded.n_shards == 4
        assert sharded.log_likelihood() == evaluator.log_likelihood()
