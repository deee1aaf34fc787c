"""Every execution route gives the engine's answer: one property.

The oracle is ``execute_plan`` on a fresh instance. Each random problem
(at most 8 tips, weighted patterns) runs through every route the
library offers, and each route belongs to one of two classes:

* **exact** — the route runs the engine's own per-pattern arithmetic
  and its one reduction (:func:`~repro.beagle.kernels.reduce_sites`),
  so it must return the oracle's bits: every set-executor variant,
  serial and concurrent plans, a plan's first (one-set) and second
  (compiled) execution, an incremental propose, k-shard evaluation, an
  inline pool under seeded worker faults, and a coalesced server
  request;
* **tolerance** — the route computes the same likelihood with other
  arithmetic (a rerooted tree multiplies partials in another order, the
  gradient sweep recombines half-tree partials across each edge, the
  reference oracles are independent implementations), so it must agree
  within :data:`REL_TOL`.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.beagle import brute_force_log_likelihood, pruning_log_likelihood
from repro.core import create_instance, execute_plan, make_plan, optimal_reroot_fast
from repro.data import random_patterns
from repro.exec import FaultSpec, LikelihoodPool, RetryPolicy, ShardedLikelihood
from repro.inference import TreeLikelihood, all_branch_derivatives
from repro.inference.proposals import branch_length_move
from repro.models import HKY85
from repro.serve import CoalescePolicy, LikelihoodServer, RequestDims
from tests.executor import forced_executor
from tests.strategies import tree_strategy

MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])

#: Relative agreement required of the tolerance class.
REL_TOL = 1e-12

#: Every way a compiled program can run a set: per operation, the
#: lowering rule as shipped, and run steps whose runs are cut to at most
#: 1, 2 or all of the set's operations.
EXECUTORS = {
    "per-operation": lambda: forced_executor(None),
    "selected": nullcontext,
    "runs-of-1": lambda: forced_executor(1),
    "runs-of-2": lambda: forced_executor(2),
    "whole-runs": lambda: forced_executor(10**6),
}


@st.composite
def problems(draw, min_tips: int = 3, max_tips: int = 8):
    """A random tree with at least 24 weighted patterns (three shards)."""
    tree = draw(tree_strategy(min_tips=min_tips, max_tips=max_tips))
    n_patterns = draw(st.integers(24, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    patterns = random_patterns(tree.tip_names(), n_patterns, rng=rng)
    weights = rng.integers(1, 5, n_patterns).astype(np.float64)
    return tree, replace(patterns, weights=weights)


def _oracle(tree, patterns, dtype=np.float64):
    instance = create_instance(tree, MODEL, patterns, dtype=dtype)
    return execute_plan(instance, make_plan(tree, "concurrent"))


def _close(value, expected):
    return math.isclose(value, expected, rel_tol=REL_TOL, abs_tol=0.0)


class TestExactRoutes:
    @given(
        problems(), st.sampled_from([np.float64, np.float32]), st.booleans()
    )
    def test_executors_modes_and_compiled_runs(self, problem, dtype, reroot):
        tree, patterns = problem
        if reroot:
            tree = optimal_reroot_fast(tree).tree
        expected = _oracle(tree, patterns, dtype)
        for name in EXECUTORS:
            for mode in ("serial", "concurrent"):
                with EXECUTORS[name]():
                    instance = create_instance(
                        tree, MODEL, patterns, dtype=dtype
                    )
                    plan = make_plan(tree, mode)
                    first = execute_plan(instance, plan)
                    second = execute_plan(instance, plan)
                assert (first, second) == (expected, expected), (name, mode)

    @given(problems(min_tips=4), st.integers(0, 10**6))
    def test_incremental_propose_matches_a_fresh_run(
        self, problem, seed
    ):
        tree, patterns = problem
        for name in EXECUTORS:
            with EXECUTORS[name]():
                lik = TreeLikelihood(tree.copy(), MODEL, patterns)
                lik.log_likelihood()
                lik.log_likelihood()  # the full plan's compiled program
                move = branch_length_move(lik.tree, np.random.default_rng(seed))
                proposed = lik.propose(move)
                moved = lik.tree.copy()
                lik.accept()
            assert proposed == _oracle(moved, patterns), name

    @given(problems(), st.sampled_from(sorted(EXECUTORS)))
    def test_k_shards(self, problem, executor):
        tree, patterns = problem
        expected = _oracle(tree, patterns)
        for k in (1, 2, 3):
            with EXECUTORS[executor]():
                engine = ShardedLikelihood(tree, MODEL, patterns, n_shards=k)
                first = engine.log_likelihood()
                second = engine.log_likelihood()  # compiled programs
            assert engine.n_shards == k
            assert first == second == expected, k

    @given(problems(), st.integers(0, 10**6))
    def test_pool_under_seeded_worker_faults(self, problem, fault_seed):
        tree, patterns = problem
        expected = _oracle(tree, patterns)
        plan = make_plan(tree, "concurrent")
        policy = RetryPolicy(degrade=False, rescale=False)
        # At most max_retries faults per worker: no launch can run out
        # of attempts, so every job must recover, and recover exactly.
        budget = policy.max_retries
        pool = LikelihoodPool(
            2,
            policy=policy,
            worker_fault_specs=[
                FaultSpec(rate=0.3, seed=fault_seed, max_faults=budget),
                FaultSpec(rate=0.3, seed=fault_seed + 1, max_faults=budget),
            ],
            executor="inline",
            deadline_s=None,
        )
        for _ in range(3):
            pool.submit_case(
                lambda: (create_instance(tree, MODEL, patterns), plan)
            )
        outcomes = pool.drain()
        assert [o.value for o in outcomes] == [expected] * 3

    @given(problems(), st.integers(2, 4))
    def test_coalesced_server_request(self, problem, width):
        tree, patterns = problem
        expected = _oracle(tree, patterns)
        plan = make_plan(tree, "concurrent")
        server = LikelihoodServer(
            LikelihoodPool(2, executor="inline", deadline_s=None),
            coalesce=CoalescePolicy(max_width=width),
        )
        dims = RequestDims(state_count=4, pattern_count=patterns.n_patterns)
        for tenant in range(width):
            server.submit(
                f"t{tenant}",
                lambda: (create_instance(tree, MODEL, patterns), plan),
                dims=dims,
            )
        outcomes = server.drain()
        assert [o.value for o in outcomes] == [expected] * width
        assert all(o.coalesced_width >= 2 for o in outcomes)


class TestToleranceRoutes:
    @given(problems())
    def test_rerooted_gradient_and_reference_oracles(self, problem):
        tree, patterns = problem
        expected = _oracle(tree, patterns)
        rerooted = optimal_reroot_fast(tree).tree
        assert _close(_oracle(rerooted, patterns), expected)
        gradient = all_branch_derivatives(tree, MODEL, patterns)
        for derivatives in gradient.derivatives:
            assert _close(derivatives.log_likelihood, expected)
        assert _close(pruning_log_likelihood(tree, MODEL, patterns), expected)
        if len(tree.tip_names()) <= 6:
            assert _close(
                brute_force_log_likelihood(tree, MODEL, patterns), expected
            )


@given(st.integers(1, 40))
def test_any_block_size_matches_reference(block):
    # A fixed wide case (many same-depth operations) so the blocks that
    # runs are cut into end inside operation sets; the plan's second
    # execution runs its compiled program.
    from repro.bench.harness import build_tree

    tree = build_tree("balanced", 16, 1)
    patterns = random_patterns(tree.tip_names(), 32, seed=5)
    expected = _oracle(tree, patterns)
    with forced_executor(block):
        instance = create_instance(tree, MODEL, patterns)
        plan = make_plan(tree, "concurrent")
        got = [execute_plan(instance, plan) for _ in range(2)]
    assert got == [expected, expected]
