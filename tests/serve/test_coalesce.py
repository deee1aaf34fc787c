"""Coalescing: compatibility keys, assembly, and workspace-sharing bit-identity."""

from __future__ import annotations

import pytest

from repro.core.planner import execute_plan
from repro.gpu import GP100, WorkloadDims, time_set_sizes
from repro.serve import (
    BatchAssembler,
    CoalescedBatch,
    CoalescePolicy,
    CompatKey,
    RequestDims,
)
from repro.serve.request import LikelihoodRequest


def request(index, tenant="t", dims=None, set_sizes=(), make_case=None):
    return LikelihoodRequest(
        index=index, tenant=tenant,
        make_case=make_case or (lambda: (None, None)),
        label=f"r{index}", dims=dims, set_sizes=tuple(set_sizes),
    )


class TestCompatKey:
    def test_split_separates_different_pattern_counts(self):
        a = CompatKey.of(RequestDims(4, 24))
        b = CompatKey.of(RequestDims(4, 30))
        assert a != b

    def test_state_count_always_separates(self):
        a = CompatKey.of(RequestDims(4, 24))
        b = CompatKey.of(RequestDims(20, 24))
        assert a != b

    def test_precision_always_separates(self):
        a = CompatKey.of(RequestDims(4, 24, precision="double"))
        b = CompatKey.of(RequestDims(4, 24, precision="single"))
        assert a != b


class TestAssembler:
    def test_groups_compatible_up_to_width(self):
        dims = RequestDims(4, 24)
        assembler = BatchAssembler(CoalescePolicy(max_width=3))
        batches = assembler.assemble([request(i, dims=dims) for i in range(7)])
        assert [b.width for b in batches] == [3, 3, 1]

    def test_preserves_dispatch_order_within_class(self):
        dims = RequestDims(4, 24)
        assembler = BatchAssembler(CoalescePolicy(max_width=8))
        batches = assembler.assemble([request(i, dims=dims) for i in range(5)])
        assert [m.index for m in batches[0].members] == [0, 1, 2, 3, 4]

    def test_incompatible_requests_never_share(self):
        assembler = BatchAssembler(CoalescePolicy(max_width=8))
        picks = [
            request(0, dims=RequestDims(4, 24)),
            request(1, dims=RequestDims(4, 30)),
            request(2, dims=RequestDims(4, 24)),
        ]
        batches = assembler.assemble(picks)
        widths = {b.key.pattern_count: b.width for b in batches}
        assert widths == {24: 2, 30: 1}

    def test_dimless_request_is_singleton(self):
        dims = RequestDims(4, 24)
        assembler = BatchAssembler(CoalescePolicy(max_width=8))
        batches = assembler.assemble(
            [request(0, dims=dims), request(1, dims=None), request(2, dims=dims)]
        )
        assert sorted(b.width for b in batches) == [1, 2]

    def test_disabled_policy_yields_singletons(self):
        dims = RequestDims(4, 24)
        assembler = BatchAssembler(CoalescePolicy(enabled=False))
        batches = assembler.assemble([request(i, dims=dims) for i in range(4)])
        assert [b.width for b in batches] == [1, 1, 1, 1]

    def test_width_scale_widens_batches(self):
        dims = RequestDims(4, 24)
        assembler = BatchAssembler(CoalescePolicy(max_width=2))
        batches = assembler.assemble(
            [request(i, dims=dims) for i in range(8)], width_scale=2.0
        )
        assert [b.width for b in batches] == [4, 4]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            CoalescedBatch([])


class TestLaunchSchedule:
    def test_lockstep_rounds_sum_set_sizes(self):
        batch = CoalescedBatch(
            [
                request(0, set_sizes=(4, 2, 1)),
                request(1, set_sizes=(4, 2, 1)),
                request(2, set_sizes=(3, 1)),
            ]
        )
        assert batch.launch_schedule() == [11, 5, 2]
        assert batch.solo_launches() == 8

    def test_unknown_shapes_yield_empty_schedule(self):
        batch = CoalescedBatch([request(0), request(1, set_sizes=(2,))])
        assert batch.launch_schedule() == []

    def test_model_prices_coalescing_ahead_of_solo(self):
        dims = WorkloadDims(patterns=128, states=4, categories=1)
        batch = CoalescedBatch(
            [request(i, set_sizes=(4, 2, 1)) for i in range(8)]
        )
        coalesced = time_set_sizes(GP100, dims, batch.launch_schedule())
        solo = time_set_sizes(
            GP100, dims, [k for m in batch.members for k in m.set_sizes]
        )
        assert solo.seconds > coalesced.seconds
        assert coalesced.n_launches == 3
        assert solo.n_launches == batch.solo_launches() == 24

    def test_curve_trades_latency_for_throughput(self):
        dims = WorkloadDims(patterns=128, states=4, categories=1)
        throughputs, latencies = [], []
        for width in (1, 4, 16):
            batch = CoalescedBatch(
                [request(i, set_sizes=(4, 2, 1)) for i in range(width)]
            )
            # Every member waits for the whole batch.
            seconds = time_set_sizes(
                GP100, dims, batch.launch_schedule()
            ).seconds
            throughputs.append(width / seconds)
            latencies.append(seconds)
        assert throughputs == sorted(throughputs)  # aggregate rises
        assert latencies == sorted(latencies)  # per-request pays


class TestArenaSharing:
    def test_same_shape_members_share_one_workspace(self, case):
        make_case, reference, plan = case
        instances = []

        def tracked_make_case():
            instance, p = make_case()
            instances.append(instance)
            return instance, p

        batch = CoalescedBatch(
            [request(i, make_case=tracked_make_case) for i in range(3)]
        )

        class DirectCtx:
            def execute(self, instance, p):
                return execute_plan(instance, p)

        values = batch.job_fn()(DirectCtx())
        # Every member computed the exact serial value...
        assert values == [reference] * 3
        # ...and later members adopted the first member's workspace.
        workspaces = {id(instance.workspace) for instance in instances}
        assert len(workspaces) == 1

    def test_adopt_workspace_rejects_mismatched_dims(self, case):
        make_case, _, _ = case
        instance, _ = make_case()
        from repro.beagle.workspace import Workspace

        wrong = Workspace(
            dtype=instance.workspace.dtype,
            category_count=instance.workspace.category_count,
            pattern_count=instance.workspace.pattern_count + 1,
            state_count=instance.workspace.state_count,
        )
        with pytest.raises(ValueError):
            instance.adopt_workspace(wrong)

    def test_adopted_arena_is_bit_transparent(self, case):
        # Evaluating on a workspace another instance already used must
        # not change a single bit of the result (scratch is write-before-
        # read): run A, adopt A's workspace into B, run B, compare to a
        # clean serial evaluation.
        make_case, reference, _ = case
        a, plan = make_case()
        execute_plan(a, plan)
        b, plan_b = make_case()
        b.adopt_workspace(a.workspace)
        assert execute_plan(b, plan_b) == reference
