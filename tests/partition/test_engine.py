"""Unit and integration tests for PartitionedLikelihood."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.beagle import pruning_log_likelihood, setexec
from repro.core import count_operation_sets
from repro.data import random_patterns, simulate_alignment
from repro.gpu import GP100, SMALL_GPU
from repro.inference import TreeLikelihood
from repro.models import GTR, HKY85, JC69, discrete_gamma
from repro.partition import (
    DataPartition,
    PartitionedDataset,
    PartitionedLikelihood,
    partition_by_ranges,
)
from repro.trees import pectinate_tree, random_attachment_tree


@pytest.fixture
def setup():
    tree = random_attachment_tree(12, 9, random_lengths=True)
    aln = simulate_alignment(tree, JC69(), 90, seed=72)
    models = [JC69(), HKY85(2.0, [0.3, 0.2, 0.2, 0.3]), GTR([1, 2, 1, 1, 2, 1])]
    dataset = partition_by_ranges(
        aln, [(0, 30), (30, 60), (60, 90)], models, rates=[
            discrete_gamma(0.5, 2),
            discrete_gamma(1.0, 2),
            discrete_gamma(2.0, 2),
        ]
    )
    return tree, dataset


class TestLikelihood:
    def test_sum_of_partitions(self, setup):
        tree, dataset = setup
        pl = PartitionedLikelihood(tree, dataset)
        parts = pl.partition_log_likelihoods()
        assert pl.log_likelihood() == pytest.approx(sum(parts))
        # Each partition must match the independent reference.
        for value, partition in zip(parts, dataset):
            expected = pruning_log_likelihood(
                tree, partition.model, partition.patterns, partition.rates
            )
            assert value == pytest.approx(expected, abs=1e-8)

    def test_matches_unpartitioned_single_model(self):
        # One partition with the whole alignment == plain TreeLikelihood.
        tree = random_attachment_tree(8, 3, random_lengths=True)
        aln = simulate_alignment(tree, JC69(), 40, seed=73)
        dataset = partition_by_ranges(aln, [(0, 40)], [JC69()])
        pl = PartitionedLikelihood(tree, dataset)
        tl = TreeLikelihood(tree, JC69(), aln)
        assert pl.log_likelihood() == pytest.approx(tl.log_likelihood(), abs=1e-9)

    def test_reroot_option(self, setup):
        tree, dataset = setup
        base = PartitionedLikelihood(tree, dataset)
        rerooted = PartitionedLikelihood(tree, dataset, reroot="fast")
        assert rerooted.log_likelihood() == pytest.approx(
            base.log_likelihood(), abs=1e-8
        )
        assert rerooted.plan.n_launches <= base.plan.n_launches
        with pytest.raises(ValueError):
            PartitionedLikelihood(tree, dataset, reroot="???")

    def test_scaling(self, setup):
        tree, dataset = setup
        plain = PartitionedLikelihood(tree, dataset)
        scaled = PartitionedLikelihood(tree, dataset, scaling=True)
        assert scaled.log_likelihood() == pytest.approx(
            plain.log_likelihood(), abs=1e-9
        )

    def test_sharded_partitions_match_unsharded(self):
        tree = random_attachment_tree(16, 9, random_lengths=True)
        aln = simulate_alignment(tree, JC69(), 1500, seed=72)
        models = [JC69(), HKY85(2.0, [0.3, 0.2, 0.2, 0.3]), GTR([1, 2, 1, 1, 2, 1])]
        dataset = partition_by_ranges(
            aln, [(0, 500), (500, 1000), (1000, 1500)], models,
            rates=[discrete_gamma(a, 2) for a in (0.5, 1.0, 2.0)],
        )
        plain = PartitionedLikelihood(tree, dataset)
        sharded = PartitionedLikelihood(tree, dataset, shards=2)
        assert (
            sharded.partition_log_likelihoods()
            == plain.partition_log_likelihoods()
        )
        assert sharded.log_likelihood() == plain.log_likelihood()


    def test_partitions_of_two_tip_kinds_stay_compiled(self, monkeypatch):
        """Two partitions of one shape share the plan, one with an explicit-
        partials tip: after the plan's second execution each runs its own
        program, and no later evaluation lowers anything."""
        tree = random_attachment_tree(10, 5, random_lengths=True)
        plain = random_patterns(tree.tip_names(), 24, seed=1)
        ambiguous = dataclasses.replace(
            random_patterns(tree.tip_names(), 24, seed=2),
            partials={
                tree.tip_names()[0]: np.random.default_rng(3).uniform(
                    0.05, 1.0, size=(24, 4)
                )
            },
        )
        model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        dataset = PartitionedDataset(
            [
                DataPartition("plain", plain, model),
                DataPartition("ambiguous", ambiguous, model),
            ]
        )
        pl = PartitionedLikelihood(tree, dataset)
        first = pl.partition_log_likelihoods()
        assert pl.partition_log_likelihoods() == first  # lowers both
        assert len(pl.plan.programs.by_key) == 2
        compiles = []
        compile_program = setexec.compile_program

        def spy(instance, operation_sets):
            compiles.append(instance)
            return compile_program(instance, operation_sets)

        monkeypatch.setattr(setexec, "compile_program", spy)
        for _ in range(3):
            assert pl.partition_log_likelihoods() == first
        assert compiles == []


class TestLaunchAccounting:
    def test_counts(self, setup):
        tree, dataset = setup
        pl = PartitionedLikelihood(tree, dataset)
        sets = count_operation_sets(tree)
        assert pl.launches_concurrent_partitions() == sets
        assert pl.launches_sequential_partitions() == 3 * sets

    def test_device_timing_structure(self, setup):
        tree, dataset = setup
        pl = PartitionedLikelihood(tree, dataset)
        seq = pl.device_timing(concurrent_partitions=False)
        conc = pl.device_timing(concurrent_partitions=True)
        assert seq.n_launches == pl.launches_sequential_partitions()
        assert conc.n_launches == pl.launches_concurrent_partitions()
        # Work totals identical; only grouping differs.
        assert seq.n_operations == conc.n_operations
        assert seq.flops == conc.flops

    def test_partition_concurrency_speeds_up(self, setup):
        """The §IV-A effect: merging partitions into shared launches wins
        when the device is undersaturated."""
        tree, dataset = setup
        pl = PartitionedLikelihood(tree, dataset)
        speedup = pl.partition_concurrency_speedup(GP100)
        assert speedup > 1.5

    def test_small_device_gains_less(self, setup):
        tree, dataset = setup
        pl = PartitionedLikelihood(tree, dataset)
        big = pl.partition_concurrency_speedup(GP100)
        small = pl.partition_concurrency_speedup(SMALL_GPU)
        assert small < big

    def test_combines_with_rerooting(self):
        """Rerooting and partition concurrency compose: a pectinate tree
        gains from both, multiplicatively in launch count."""
        tree = pectinate_tree(32, branch_length=0.1)
        aln = simulate_alignment(tree, JC69(), 60, seed=74)
        dataset = partition_by_ranges(
            aln, [(0, 20), (20, 40), (40, 60)], [JC69(), JC69(), JC69()]
        )
        plain = PartitionedLikelihood(tree, dataset)
        rerooted = PartitionedLikelihood(tree, dataset, reroot="fast")
        assert plain.launches_sequential_partitions() == 3 * 31
        assert rerooted.launches_concurrent_partitions() == 16
        t_plain = plain.device_timing(concurrent_partitions=False).seconds
        t_both = rerooted.device_timing(concurrent_partitions=True).seconds
        assert t_plain / t_both > 3.0
