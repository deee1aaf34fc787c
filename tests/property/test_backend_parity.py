"""Executor parity on wider trees: any strategy, same bits.

``tests/property/test_route_parity.py`` checks every execution route on
problems of at most 8 tips. These two properties keep the executor axis
on trees of up to 12 tips, whose operation sets are wide enough for
runs cut to 1 and 2 operations to split them: a compiled evaluation
pinned to one strategy must equal the per-operation run bit for bit, and
serial and concurrent plans must agree under every strategy.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import create_instance, execute_plan, make_plan, optimal_reroot_fast
from repro.data import compress, simulate_alignment
from tests.property.test_route_parity import EXECUTORS, MODEL
from tests.strategies import tree_strategy


def _patterns(tree, seed):
    return compress(simulate_alignment(tree, MODEL, 16, seed=seed))


def _plan_ll(tree, patterns, executor, dtype, mode):
    """The plan's logL from its second, compiled execution, equal to the
    first (one-set programs)."""
    with EXECUTORS[executor]():
        instance = create_instance(tree, MODEL, patterns, dtype=dtype)
        plan = make_plan(tree, mode)
        first = execute_plan(instance, plan)
        second = execute_plan(instance, plan)
    assert second == first, executor
    return second


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
