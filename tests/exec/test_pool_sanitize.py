"""Shadow-state sanitizer under the pool (ISSUE acceptance criteria).

Two halves of the contract: a deliberately racy schedule — two threads
driving one shared engine instance — is *caught* (offender pair with
buffer index and both thread ids), while the PR 3 degraded-fleet soak
configuration (25% worker fault rates plus one dead worker, full
resilience, threaded executor) runs sanitizer-clean, because every job
builds a fresh instance and drains are synchronization barriers.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.planner import create_instance, execute_plan, make_plan
from repro.data import random_patterns
from repro.exec import FaultSpec, LikelihoodPool
from repro.models import JC69
from repro.trees import balanced_tree


@pytest.fixture(scope="module")
def case():
    tree = balanced_tree(8)
    patterns = random_patterns(
        tree.tip_names(), 24, rng=np.random.default_rng(11)
    )
    model = JC69()
    plan = make_plan(tree, "concurrent")

    def make_case():
        return create_instance(tree, model, patterns), plan

    reference = execute_plan(*make_case())
    return make_case, reference


class TestSanitizerOff:
    def test_off_by_default(self, case):
        pool = LikelihoodPool(2)
        assert pool.detector is None
        assert pool.sanitizer_clean
        assert pool.race_report().clean


class TestSanitizerClean:
    @pytest.mark.parametrize("executor", ["inline", "thread"])
    def test_fresh_instances_never_race(self, case, executor):
        make_case, reference = case
        pool = LikelihoodPool(3, sanitize=True, executor=executor)
        for rep in range(9):
            pool.submit_case(make_case, label=f"rep-{rep}")
        outcomes = pool.drain()
        assert all(o.ok and o.value == reference for o in outcomes)
        assert pool.sanitizer_clean, pool.detector.format()
        # The sanitizer actually observed the traffic, it just found no
        # cross-thread pair — a zero-access "clean" proves nothing.
        assert pool.detector.accesses_recorded > 0
        assert pool.race_report().clean

    def test_values_bit_identical_with_sanitizer_on(self, case):
        make_case, reference = case
        plain = LikelihoodPool(2, executor="inline")
        wrapped = LikelihoodPool(2, sanitize=True, executor="inline")
        assert plain.map_cases([make_case] * 4) == [reference] * 4
        assert wrapped.map_cases([make_case] * 4) == [reference] * 4

    def test_drain_is_an_epoch_barrier(self, case):
        make_case, reference = case
        # The SAME instance evaluated in two different drains from
        # (potentially) different worker threads: ordered by the drain
        # barrier, so no race may be reported.
        instance, plan = make_case()
        pool = LikelihoodPool(2, sanitize=True, executor="thread")
        for _ in range(2):
            pool.submit(lambda ctx: ctx.execute(instance, plan))
            outcomes = pool.drain()
            assert all(o.ok and o.value == reference for o in outcomes)
        assert pool.sanitizer_clean, pool.detector.format()
        assert pool.detector.epoch == 2

    def test_soak_config_is_sanitizer_clean(self, case):
        # PR 3 degraded-fleet soak: 25% fault rates + one dead worker,
        # full resilience, threaded executor, three seeds.
        make_case, reference = case
        for seed in (1, 2, 3):
            pool = LikelihoodPool(
                4,
                sanitize=True,
                worker_fault_specs=[
                    FaultSpec(rate=0.25, seed=seed * 101),
                    FaultSpec(rate=0.25, seed=seed * 202),
                    FaultSpec(rate=0.25, seed=seed * 303),
                    FaultSpec(rate=1.0, seed=seed * 404),  # dead
                ],
                executor="thread",
                cooldown_s=0.0,
            )
            for rep in range(8):
                pool.submit_case(make_case, label=f"s{seed}-rep-{rep}")
            outcomes = pool.drain()
            stats = pool.stats()
            assert all(o.ok and o.value == reference for o in outcomes)
            assert stats.balances(), stats.imbalances()
            assert pool.sanitizer_clean, pool.detector.format()


def _racing_execute(ctx, shared, plan):
    """Run ``plan`` on an engine another thread drives at the same time.

    When the other thread's ``invalidate_partials`` lands between this
    thread's sets, the engine refuses to read the wiped buffer; that is
    the deliberate race doing its damage, not a failure of the test, so
    the job returns ``None`` and the sanitizer's report is what counts.
    """
    try:
        return ctx.execute(shared, plan)
    except ValueError as exc:
        if "read before being computed" not in str(exc):
            raise
        return None


class TestSanitizerCatchesRaces:
    def test_shared_instance_across_threads_is_caught(self, case):
        make_case, _ = case
        shared, plan = make_case()
        # Two jobs, two worker threads, one shared engine. The barrier
        # pins the interleaving: neither thread proceeds until both hold
        # the job, so their buffer accesses land in the same epoch.
        barrier = threading.Barrier(2, timeout=10.0)

        def racy(ctx):
            barrier.wait()
            return _racing_execute(ctx, shared, plan)

        pool = LikelihoodPool(
            2, sanitize=True, executor="thread", audit=False
        )
        pool.submit(racy, label="left")
        pool.submit(racy, label="right")
        pool.drain()
        assert not pool.sanitizer_clean
        report = pool.race_report()
        assert report.has_code("data-race")
        race = pool.detector.races[0]
        # Offender pair: buffer index plus both thread ids.
        assert race.index >= 0
        assert race.first_thread != race.second_thread
        assert "write" in (race.first_access, race.second_access)
        assert str(race.index) in race.format()

    def test_one_report_per_offending_pair(self, case):
        make_case, _ = case
        shared, plan = make_case()
        barrier = threading.Barrier(2, timeout=10.0)

        def racy(ctx):
            barrier.wait()
            return _racing_execute(ctx, shared, plan)

        pool = LikelihoodPool(
            2, sanitize=True, executor="thread", audit=False
        )
        pool.submit(racy, label="left")
        pool.submit(racy, label="right")
        pool.drain()
        races = pool.detector.races
        pairs = {
            (r.kind, r.index, *sorted((r.first_thread, r.second_thread)))
            for r in races
        }
        assert len(pairs) == len(races)  # deduplicated

    def test_inline_executor_never_races(self, case):
        # Single OS thread: even a shared instance cannot race.
        make_case, reference = case
        shared, plan = make_case()
        pool = LikelihoodPool(2, sanitize=True, executor="inline")
        for _ in range(4):
            pool.submit(lambda ctx: ctx.execute(shared, plan))
        outcomes = pool.drain()
        assert all(o.ok and o.value == reference for o in outcomes)
        assert pool.sanitizer_clean, pool.detector.format()
