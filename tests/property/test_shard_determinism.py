"""Bit-identical sharded likelihood — the shard contract, fuzzed.

The contract (:mod:`repro.exec.sharding`): the sharded log-likelihood is
a pure function of the *problem* — tree, model, patterns — and never of
the *execution*. Shard count, completion order, injected faults, bounded
retries, speculation, and dead workers must all produce the bits of the
unsharded engine, because shards return site logs and the total is the
engine's own reduction of them.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import random_patterns
from repro.exec import (
    FaultSpec,
    LikelihoodPool,
    RetryPolicy,
    ShardFaultSpec,
    ShardedLikelihood,
)
from repro.inference import TreeLikelihood
from repro.models import random_gtr
from repro.trees import yule_tree


def _problem(taxa: int, sites: int, seed: int):
    rng = np.random.default_rng(seed)
    tree = yule_tree(taxa, rng)
    model = random_gtr(rng)
    patterns = random_patterns(tree.tip_names(), sites, rng=rng)
    return tree, model, patterns


@given(
    taxa=st.integers(min_value=4, max_value=8),
    sites=st.integers(min_value=24, max_value=96),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_shards=st.integers(min_value=1, max_value=8),
    alt_shards=st.integers(min_value=1, max_value=8),
    order_seed=st.integers(min_value=0, max_value=2**31 - 1),
    fault_rate=st.sampled_from([0.0, 0.15, 0.3]),
    speculate=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_sharded_loglik_is_bit_stable(
    taxa, sites, seed, n_shards, alt_shards, order_seed, fault_rate, speculate
):
    tree, model, patterns = _problem(taxa, sites, seed)
    chaotic = ShardedLikelihood(
        tree,
        model,
        patterns,
        n_shards=n_shards,
        order_seed=order_seed,
        speculate=speculate,
        retries=8,
        fault_spec=(
            ShardFaultSpec(rate=fault_rate, seed=seed) if fault_rate else None
        ),
    )
    value = chaotic.log_likelihood()

    # Bit-identical to the unsharded engine, whatever chaos the
    # execution saw...
    unsharded = TreeLikelihood(tree, model, patterns).log_likelihood()
    assert value == unsharded
    # ...and to a fault-free run under a different shard count and a
    # different completion order.
    calm = ShardedLikelihood(
        tree, model, patterns, n_shards=alt_shards, order_seed=order_seed + 1
    )
    assert value == calm.log_likelihood()
    # Every submission is accounted for.
    assert chaotic.ledger.balances(), chaotic.ledger.imbalances()
    assert calm.ledger.balances()


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_shards=st.integers(min_value=2, max_value=6),
    order_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=15, deadline=None)
def test_dead_worker_does_not_perturb_bits(seed, n_shards, order_seed):
    tree, model, patterns = _problem(6, 64, seed)
    # Worker 0 faults on every launch: its resilient stack retries, the
    # pool circuit-breaks and reroutes, and the shard layer re-submits —
    # none of which may change a single bit of the result.
    pool = LikelihoodPool(
        3,
        policy=RetryPolicy(degrade=False, rescale=False),
        worker_fault_specs=[FaultSpec(rate=1.0, seed=seed), None, None],
        executor="inline",
        deadline_s=None,
    )
    engine = ShardedLikelihood(
        tree,
        model,
        patterns,
        n_shards=n_shards,
        pool=pool,
        order_seed=order_seed,
        retries=8,
    )
    value = engine.log_likelihood()
    assert value == TreeLikelihood(tree, model, patterns).log_likelihood()
    assert engine.ledger.balances(), engine.ledger.imbalances()
