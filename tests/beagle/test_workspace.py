"""The preallocated kernel workspace: reuse, growth and zero-allocation.

The engine's set executor must not allocate per operation set in steady
state: every scratch array lives in a :class:`repro.beagle.workspace.Workspace`
that grows to the largest tip chunk and run step seen and is then reused
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
        """The compact-tip gather scratch at least doubles when it grows;
        scratch and gathered tip rows grow to what is asked."""
        ws = Workspace(np.float64, category_count=2, pattern_count=8, state_count=4)
        assert ws.tip_capacity == 0 and ws.allocations == 0
        ws.ensure_tips(3)
        assert ws.tip_capacity == 3 and ws.allocations == 1
        ws.ensure_tips(3)  # within capacity: no new allocation
        assert ws.allocations == 1
        ws.ensure_tips(4)  # growth at least doubles
        assert ws.tip_capacity == 6 and ws.allocations == 2
        ws.ensure_scratch(5)
        ws.ensure_scratch(2)
        assert len(ws.scratch) == 5 and ws.allocations == 3
        ws.ensure_gathered(3, 8)  # straight to the target rows
        ws.ensure_gathered(8, 8)
        assert len(ws.gathered_tips) == 8 and ws.allocations == 4

    def test_buffers_have_engine_shapes(self):
        ws = Workspace(np.float32, category_count=3, pattern_count=6, state_count=4)
        ws.ensure_scratch(2)
        ws.ensure_gathered(4, 0)
        ws.ensure_tips(4)
        assert ws.scratch.shape == (2, 3, 6, 4)
        assert ws.gathered_tips.shape == (4, 3, 6, 4)
        assert ws.codes.shape == (4, 6)
        assert ws.rowidx.shape == (4, 3, 6)
        assert ws.row.shape == (3, 6, 4)
        for rows in (ws.scratch, ws.gathered_tips, ws.row, ws.scale_logs):
            assert rows.dtype == np.float32

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
        """The compiled program's widest set, 16 tip pairs, gathers its
        32 tip rows in one chunk, and its widest run with two store
        children, the 8 operations above it, sizes the scratch rows; a
        first execution (one-set programs) sizes neither."""
        tree = balanced_tree(32, branch_length=0.1)
        patterns = random_patterns(tree.tip_names(), 8, seed=2)
        inst = create_instance(tree, MODEL, patterns)
        plan = make_plan(tree)
        execute_plan(inst, plan)
        ws = inst.workspace
        assert len(ws.gathered_tips) == len(ws.scratch) == 0
        execute_plan(inst, plan)
        assert max(plan.set_sizes) == 16
        assert len(ws.gathered_tips) == 32 and len(ws.scratch) == 8

    def test_serial_mode_uses_no_workspace(self):
        tree = pectinate_tree(8, branch_length=0.1)
        patterns = random_patterns(tree.tip_names(), 8, seed=3)
        inst = create_instance(tree, MODEL, patterns)
        execute_plan(inst, make_plan(tree, "serial"))
        assert inst._workspace is None or len(inst._workspace.scratch) == 0

    def test_nbytes_reports_footprint(self):
        ws = Workspace(np.float64, category_count=1, pattern_count=4, state_count=4)
        cold = ws.nbytes()  # one row and scaling scratch only
        ws.ensure_scratch(2)
        assert ws.nbytes() == cold + ws.scratch.nbytes > cold
