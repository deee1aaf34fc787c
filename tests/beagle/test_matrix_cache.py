"""The LRU transition-matrix cache: hits, eviction, and bit-identity.

Inference loops re-derive the same ``P(t)`` constantly — a single-edge
proposal changes one matrix and leaves ``n − 2`` untouched. The cache
serves repeated (eigen, rates, length) triples with the exact array the
original miss computed, so likelihoods are bitwise unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.beagle.workspace import TransitionMatrixCache
from repro.core import create_instance, execute_plan, make_plan
from repro.data import random_patterns
from repro.inference import TreeLikelihood
from repro.models import HKY85, discrete_gamma
from repro.obs import recording
from repro.trees import balanced_tree

MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])


def _case(n_taxa=8, n_patterns=16, seed=1, branch_length=0.1):
    tree = balanced_tree(n_taxa, branch_length=branch_length)
    patterns = random_patterns(tree.tip_names(), n_patterns, seed=seed)
    return tree, patterns


class TestCacheMechanics:
    def test_validates_construction(self):
        with pytest.raises(ValueError):
            TransitionMatrixCache(capacity=0)
        with pytest.raises(ValueError):
            TransitionMatrixCache(quantum=-0.1)

    def test_lru_eviction(self):
        cache = TransitionMatrixCache(capacity=2)
        eigen = object()
        keys = [cache.key_for(eigen, b"r", t) for t in (0.1, 0.2, 0.3)]
        cache.store(keys[0], np.zeros(1))
        cache.store(keys[1], np.ones(1))
        assert cache.lookup(keys[0]) is not None  # refreshes 0.1
        cache.store(keys[2], np.full(1, 2.0))  # evicts 0.2, the LRU
        assert cache.lookup(keys[1]) is None
        assert cache.lookup(keys[0]) is not None
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_quantization_snaps_keys(self):
        exact = TransitionMatrixCache()
        assert exact.effective_length(0.123456) == 0.123456
        coarse = TransitionMatrixCache(quantum=0.01)
        assert coarse.effective_length(0.123456) == pytest.approx(0.12)
        assert coarse.effective_length(-0.001) == 0.0
        assert coarse.key_for("e", b"r", 0.1201) == coarse.key_for(
            "e", b"r", 0.1199
        )

    def test_distinct_rates_versions_do_not_alias(self):
        cache = TransitionMatrixCache()
        eigen = object()
        assert cache.key_for(eigen, b"a", 0.1) != cache.key_for(eigen, b"b", 0.1)


class TestEngineIntegration:
    def test_instance_hits_on_repeated_lengths(self):
        tree, patterns = _case()
        cache = TransitionMatrixCache()
        inst = create_instance(tree, MODEL, patterns)
        inst.matrix_cache = cache
        plan = make_plan(tree)
        baseline = execute_plan(inst, plan)
        assert cache.misses >= 1
        # Constant branch lengths: after the first matrix, every further
        # one in the first evaluation — and all of the second — hit.
        hits_after_first = cache.hits
        assert hits_after_first > 0
        value = execute_plan(inst, plan)
        assert value == baseline  # bit-identical through the cache
        assert cache.misses == 1  # one distinct length in the whole tree
        assert cache.hits > hits_after_first

    def test_cache_is_bit_identical_to_uncached(self):
        tree, patterns = _case(n_taxa=16, seed=3)
        rates = discrete_gamma(0.5, 4)
        plain = TreeLikelihood(tree.copy(), MODEL, patterns, rates=rates)
        cached = TreeLikelihood(
            tree.copy(), MODEL, patterns, rates=rates, matrix_cache=True
        )
        assert plain.log_likelihood() == cached.log_likelihood()
        assert cached.matrix_cache.hits > 0

    def test_in_place_rate_edit_cannot_split_cached_and_uncached(self):
        """The instance copies its category rates: editing the caller's
        array in place moves neither instance, so the cached one cannot
        keep serving matrices the uncached one no longer computes."""
        tree, patterns = _case()
        rates = discrete_gamma(0.5, 4)
        cached = TreeLikelihood(tree, MODEL, patterns, rates=rates, matrix_cache=True)
        plain = TreeLikelihood(tree, MODEL, patterns, rates=rates)
        before = cached.log_likelihood()
        assert plain.log_likelihood() == before
        rates.rates[:] = discrete_gamma(2.0, 4).rates
        assert cached.log_likelihood() == plain.log_likelihood() == before

    def test_setters_copy_their_input(self):
        tree, patterns = _case()
        rates = discrete_gamma(0.5, 4)
        instance = create_instance(tree, MODEL, patterns, rates=rates)
        plan = make_plan(tree)
        before = execute_plan(instance, plan)
        weights = np.array(patterns.weights, dtype=np.float64)
        category_weights = rates.probabilities.copy()
        instance.set_pattern_weights(weights)
        instance.set_category_weights(category_weights)
        weights *= 3.0
        category_weights[:] = [0.7, 0.1, 0.1, 0.1]
        rates.rates[:] = 1.0
        assert execute_plan(instance, plan) == before

    def test_shared_cache_across_derived_evaluators(self):
        """with_tree/rerooted evaluators share one model, hence one eigen
        object, hence cache keys — the shared cache serves all of them."""
        tree, patterns = _case(n_taxa=8, seed=4)
        base = TreeLikelihood(tree, MODEL, patterns, matrix_cache=True)
        base.log_likelihood()
        misses = base.matrix_cache.misses
        derived = base.with_tree(tree.copy())
        assert derived.matrix_cache is base.matrix_cache
        derived.log_likelihood()
        assert base.matrix_cache.misses == misses  # fully served by cache
        rerooted = base.rerooted_for_concurrency()
        assert rerooted.matrix_cache is base.matrix_cache

    def test_counters_exported_through_obs(self):
        tree, patterns = _case(seed=5)
        with recording() as rec:
            ev = TreeLikelihood(tree, MODEL, patterns, matrix_cache=True)
            ev.log_likelihood()
            ev.invalidate()
            ev.log_likelihood()
        dump = rec.metrics.to_prometheus()
        assert "repro_matrix_cache_hits_total" in dump
        assert "repro_matrix_cache_misses_total" in dump


class TestTreeLikelihoodOption:
    def test_matrix_cache_argument_forms(self):
        tree, patterns = _case()
        assert TreeLikelihood(tree, MODEL, patterns).matrix_cache is None
        assert (
            TreeLikelihood(tree, MODEL, patterns, matrix_cache=False).matrix_cache
            is None
        )
        enabled = TreeLikelihood(tree, MODEL, patterns, matrix_cache=True)
        assert isinstance(enabled.matrix_cache, TransitionMatrixCache)
        own = TransitionMatrixCache(capacity=7)
        passed = TreeLikelihood(tree, MODEL, patterns, matrix_cache=own)
        assert passed.matrix_cache is own
