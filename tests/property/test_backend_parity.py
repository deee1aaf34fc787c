"""Executor parity through the engine's own paths: any plan, same bits.

``tests/property/test_set_executor.py`` calls the executor's strategies
directly, set by set. These properties pin one strategy for a whole
evaluation instead and drive it through ``execute_plan``,
``TreeLikelihood``'s incremental propose/accept and
``ShardedLikelihood``: the result must equal the per-operation
reference bit for bit, whichever strategy or block size ran.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import create_instance, execute_plan, make_plan, optimal_reroot_fast
from repro.data import compress, simulate_alignment
from repro.exec.sharding import ShardedLikelihood
from repro.inference import TreeLikelihood
from repro.inference.proposals import branch_length_move
from repro.models import HKY85
from tests.executor import forced_executor
from tests.strategies import tree_strategy

MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])

#: Every way the executor can run a set: per operation, the width rule
#: as shipped, and arena blocks of 1, 2 and "the whole set".
EXECUTORS = {
    "per-operation": lambda: forced_executor(None),
    "selected": nullcontext,
    "arena-1": lambda: forced_executor(1),
    "arena-2": lambda: forced_executor(2),
    "arena-whole": lambda: forced_executor(10**6),
}


def _patterns(tree, seed):
    return compress(simulate_alignment(tree, MODEL, 16, seed=seed))


def _plan_ll(tree, patterns, executor, dtype, mode):
    with EXECUTORS[executor]():
        instance = create_instance(tree, MODEL, patterns, dtype=dtype)
        return execute_plan(instance, make_plan(tree, mode))


class TestAllRegisteredBackends:
    @given(
        tree_strategy(min_tips=3, max_tips=12),
        st.integers(0, 10**6),
        st.sampled_from([np.float64, np.float32]),
        st.booleans(),
    )
    @settings(max_examples=20)
    def test_every_backend_honours_its_parity_class(
        self, tree, seed, dtype, reroot
    ):
        patterns = _patterns(tree, seed)
        if reroot:
            tree = optimal_reroot_fast(tree).tree
        expected = _plan_ll(tree, patterns, "per-operation", dtype, "concurrent")
        for name in EXECUTORS:
            got = _plan_ll(tree, patterns, name, dtype, "concurrent")
            assert got == expected, (name, dtype)

    @given(tree_strategy(min_tips=3, max_tips=10), st.integers(0, 10**6))
    @settings(max_examples=10)
    def test_serial_and_concurrent_agree_per_backend(self, tree, seed):
        patterns = _patterns(tree, seed)
        for name in EXECUTORS:
            serial = _plan_ll(tree, patterns, name, np.float64, "serial")
            batched = _plan_ll(tree, patterns, name, np.float64, "concurrent")
            assert serial == batched, name


class TestBlockedBeyondFullTraversals:
    """Arena blocking on the engine's stateful paths."""

    @given(
        tree_strategy(min_tips=4, max_tips=12),
        st.integers(0, 10**6),
        st.integers(1, 12),
    )
    @settings(max_examples=15)
    def test_incremental_path_bit_identical(self, tree, seed, block):
        patterns = _patterns(tree, seed)
        values = []
        for pinned in (None, block):
            with forced_executor(pinned):
                lik = TreeLikelihood(tree.copy(), MODEL, patterns)
                lik.log_likelihood()
                move = branch_length_move(lik.tree, np.random.default_rng(seed))
                proposed = lik.propose(move)
                lik.accept()
                values.append((proposed, lik.log_likelihood()))
        assert values[0] == values[1]

    @given(
        tree_strategy(min_tips=4, max_tips=12),
        st.integers(0, 10**6),
        st.integers(2, 4),
    )
    @settings(max_examples=10)
    def test_sharded_path_bit_identical(self, tree, seed, n_shards):
        patterns = _patterns(tree, seed)
        values = []
        for pinned in (None, 2):
            with forced_executor(pinned):
                values.append(
                    ShardedLikelihood(
                        tree, MODEL, patterns, n_shards=n_shards
                    ).log_likelihood()
                )
        assert values[0] == values[1]

    @given(st.integers(1, 40))
    @settings(max_examples=20)
    def test_any_block_size_matches_reference(self, block):
        # A fixed wide case (many same-depth operations) so block
        # boundaries actually land inside operation sets.
        from repro.bench.harness import build_tree

        tree = build_tree("balanced", 16, 1)
        patterns = _patterns(tree, 5)
        expected = _plan_ll(
            tree, patterns, "per-operation", np.float64, "concurrent"
        )
        with forced_executor(block):
            instance = create_instance(tree, MODEL, patterns)
            got = execute_plan(instance, make_plan(tree, "concurrent"))
        assert got == expected
