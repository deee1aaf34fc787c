"""Blocking a set into runs never changes a bit.

A compiled program runs a set as per-operation products or as runs of
operations whose operands step by one stride. Here every set of a
compiled program is forced through one of them — per operation as the
reference, run steps whose runs are cut into blocks of at most a fixed
number of operations as the candidate — and the log-likelihoods must be
equal, not close.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.harness import build_tree
from repro.core import create_instance, execute_plan, make_plan, optimal_reroot_fast
from repro.data import random_patterns
from repro.exec.sharding import ShardedLikelihood
from repro.inference import TreeLikelihood
from repro.inference.proposals import branch_length_move
from repro.models import random_gtr
from tests.executor import forced_executor


def _case(n_tips=12, n_patterns=40, seed=3):
    rng = np.random.default_rng(seed)
    tree = build_tree("random", n_tips, seed)
    for edge in tree.edges():
        edge.length = float(rng.exponential(0.1))
    model = random_gtr(rng)
    patterns = random_patterns(tree.tip_names(), n_patterns, rng=rng)
    return tree, model, patterns


def _loglik(block, case, dtype=np.float64, mode="concurrent", scaling=False):
    """The plan's logL from its second, compiled execution (the first
    runs one-set programs, per operation), equal to the first."""
    tree, model, patterns = case
    with forced_executor(block):
        instance = create_instance(
            tree, model, patterns, dtype=dtype, scaling=scaling
        )
        plan = make_plan(tree, mode, scaling=scaling)
        first = execute_plan(instance, plan)
        second = execute_plan(instance, plan)
    assert second == first
    return second


def _incremental_ll(block, case):
    """Propose/accept a branch move incrementally; the proposed logL."""
    tree, model, patterns = case
    with forced_executor(block):
        lik = TreeLikelihood(tree.copy(), model, patterns)
        lik.log_likelihood()
        lik.log_likelihood()  # the full plan's compiled program
        move = branch_length_move(lik.tree, np.random.default_rng(7))
        value = lik.propose(move)
        lik.accept()
        return value


def _sharded_ll(block, case):
    tree, model, patterns = case
    with forced_executor(block):
        sharded = ShardedLikelihood(tree, model, patterns, n_shards=2)
        sharded.log_likelihood()
        return sharded.log_likelihood()


class TestBlockedBitIdentity:
    """Blocking never changes a single bit."""

    @pytest.mark.parametrize("block", [1, 3, 8, 1024])
    def test_explicit_block_sizes(self, block):
        case = _case()
        expected = _loglik(None, case)
        got = _loglik(block, case)
        assert got == expected  # exact, not approx

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_both_precisions(self, dtype):
        case = _case()
        expected = _loglik(None, case, dtype=dtype)
        got = _loglik(2, case, dtype=dtype)
        assert got == expected

    def test_with_scaling(self):
        case = _case()
        expected = _loglik(None, case, scaling=True)
        got = _loglik(2, case, scaling=True)
        assert got == expected

    def test_serial_mode(self):
        case = _case()
        expected = _loglik(None, case, mode="serial")
        got = _loglik(2, case, mode="serial")
        assert got == expected

    def test_parity_battery_green(self):
        # Both precisions × as-given and rerooted, serial launches, the
        # incremental propose/accept path and a two-shard reduction.
        tree, model, patterns = _case(n_tips=8, n_patterns=24)
        rerooted = optimal_reroot_fast(tree).tree
        checks = {}
        for dtype in (np.float64, np.float32):
            for label, t in (("as-given", tree), ("rerooted", rerooted)):
                case = (t, model, patterns)
                checks[f"{dtype.__name__}/{label}"] = (
                    _loglik(None, case, dtype=dtype),
                    _loglik(2, case, dtype=dtype),
                )
        case = (tree, model, patterns)
        checks["serial"] = (
            _loglik(None, case, mode="serial"),
            _loglik(2, case, mode="serial"),
        )
        checks["incremental"] = (
            _incremental_ll(None, case),
            _incremental_ll(2, case),
        )
        checks["sharded"] = (_sharded_ll(None, case), _sharded_ll(2, case))
        for name, (expected, got) in checks.items():
            assert np.isfinite(expected), name
            assert got == expected, name
