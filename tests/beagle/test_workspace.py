"""The preallocated kernel workspace: reuse, growth and zero-allocation.

The engine's batched path must not allocate per operation set in steady
state: every scratch array lives in a :class:`repro.beagle.workspace.Workspace`
that grows geometrically to the largest set seen and is then reused
byte-for-byte.
"""

from __future__ import annotations

import numpy as np

from repro.beagle.workspace import Workspace
from repro.core import create_instance, execute_plan, make_plan
from repro.data import random_patterns
from repro.models import HKY85
from repro.trees import balanced_tree, pectinate_tree

MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])


class TestWorkspace:
    def test_ensure_grows_geometrically(self):
        ws = Workspace(np.float64, category_count=2, pattern_count=8, state_count=4)
        assert ws.capacity == 0
        ws.ensure(3)
        assert ws.capacity >= 3
        first = ws.allocations
        cap = ws.capacity
        ws.ensure(cap)  # within capacity: no new allocation
        assert ws.allocations == first
        ws.ensure(cap + 1)  # growth at least doubles
        assert ws.capacity >= 2 * cap
        assert ws.allocations == first + 1

    def test_buffers_have_engine_shapes(self):
        ws = Workspace(np.float32, category_count=3, pattern_count=6, state_count=4)
        ws.ensure(2)
        rows = 2 * ws.capacity
        assert ws.contributions.shape == (rows, 3, 6, 4)
        # Gathered transposed matrices keep the ones row at state index S
        # that the "unknown" tip code reads.
        assert ws.mats.shape == (rows, 3, 5, 4)
        assert ws.codes.shape == (rows, 6)
        assert ws.rowidx.shape == (rows, 3, 6)
        assert ws.contributions.dtype == np.float32
        assert ws.scale_logs.dtype == np.float32

    def test_steady_state_executes_without_allocation(self):
        """Repeated plan executions reuse the same buffers: no ensure()
        growth, and the identity of every large array is stable."""
        tree = balanced_tree(16, branch_length=0.1)
        patterns = random_patterns(tree.tip_names(), 16, seed=1)
        inst = create_instance(tree, MODEL, patterns)
        plan = make_plan(tree)
        # Warm-up: the one-set programs, then the compiled program (its
        # run steps gather their tips ahead), size the workspace.
        for _ in range(2):
            execute_plan(inst, plan)
        ws = inst.workspace
        allocations = ws.allocations
        token = ws.buffer_token()
        values = [execute_plan(inst, plan) for _ in range(5)]
        assert ws.allocations == allocations
        assert ws.buffer_token() == token
        assert len(set(values)) == 1  # bitwise stable, too

    def test_workspace_sized_by_widest_set(self):
        tree = balanced_tree(32, branch_length=0.1)
        patterns = random_patterns(tree.tip_names(), 8, seed=2)
        inst = create_instance(tree, MODEL, patterns)
        plan = make_plan(tree)
        execute_plan(inst, plan)
        widest = max(plan.set_sizes)
        assert inst.workspace.capacity >= widest

    def test_serial_mode_uses_no_workspace(self):
        tree = pectinate_tree(8, branch_length=0.1)
        patterns = random_patterns(tree.tip_names(), 8, seed=3)
        inst = create_instance(tree, MODEL, patterns)
        execute_plan(inst, make_plan(tree, "serial"))
        assert inst._workspace is None or inst._workspace.capacity <= 1

    def test_nbytes_reports_footprint(self):
        ws = Workspace(np.float64, category_count=1, pattern_count=4, state_count=4)
        cold = ws.nbytes()  # scaling scratch only
        ws.ensure(2)
        assert ws.nbytes() > cold
