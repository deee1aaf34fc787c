"""Unit tests for the theoretical speedup bounds (paper §V, Table III)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    balanced_sets,
    count_operation_sets,
    optimal_reroot_exhaustive,
    pectinate_sets,
    rerooted_pectinate_sets,
    rerooted_speedup_interval,
    speedup_balanced,
    speedup_pectinate_rerooted,
    theoretical_speedup,
    tree_theoretical_speedup,
)
from repro.trees import balanced_tree, pectinate_tree
from tests.strategies import tree_strategy


class TestSetFormulas:
    def test_balanced(self):
        assert balanced_sets(8) == 3
        assert balanced_sets(64) == 6
        assert balanced_sets(100) == 7  # non-power-of-two rounds up

    def test_pectinate(self):
        assert pectinate_sets(8) == 7

    def test_rerooted_pectinate(self):
        assert rerooted_pectinate_sets(8) == 4
        assert rerooted_pectinate_sets(9) == 5

    def test_degenerate(self):
        assert balanced_sets(1) == 0
        assert pectinate_sets(1) == 0

    @given(st.integers(2, 4096))
    def test_formulas_match_generators(self, n):
        # The closed forms must equal the measured counts (on sizes small
        # enough to construct quickly).
        if n <= 512:
            assert count_operation_sets(balanced_tree(n)) == balanced_sets(n)
            assert count_operation_sets(pectinate_tree(n)) == pectinate_sets(n)


class TestSpeedups:
    def test_table3_values_for_64_otus(self):
        """Table III's theoretical column for n = 64."""
        assert speedup_balanced(64) == pytest.approx(10.5)
        assert speedup_pectinate_rerooted(64) == pytest.approx(63 / 32)  # 1.97
        assert theoretical_speedup(64, 63) == pytest.approx(1.0)  # pectinate

    def test_pectinate_rerooted_approaches_two(self):
        """§V-A: (n−1)/ceil(n/2) → 2 from below."""
        values = [speedup_pectinate_rerooted(n) for n in (4, 16, 64, 406, 4096)]
        assert all(v < 2.0 for v in values)
        assert values == sorted(values)
        assert values[-1] > 1.999

    def test_interval_ordering(self):
        for n in (8, 64, 500):
            lo, hi = rerooted_speedup_interval(n)
            assert lo <= hi
            assert lo == speedup_pectinate_rerooted(n)
            assert hi == speedup_balanced(n)

    def test_degenerate_speedup(self):
        assert theoretical_speedup(1, 0) == 1.0
        assert theoretical_speedup(2, 1) == 1.0


class TestTreeSpecific:
    @given(tree_strategy(min_tips=3, max_tips=40))
    def test_within_global_bounds(self, tree):
        n = tree.n_tips
        s = tree_theoretical_speedup(tree)
        assert 1.0 <= s <= speedup_balanced(n) + 1e-12

    @given(tree_strategy(min_tips=3, max_tips=30))
    def test_rerooting_raises_tree_speedup_into_interval(self, tree):
        """§V-B: after optimal rerooting the tree-specific speedup is at
        least the pectinate-rerooted lower bound."""
        result = optimal_reroot_exhaustive(tree)
        lo, hi = rerooted_speedup_interval(tree.n_tips)
        s = tree_theoretical_speedup(result.tree)
        assert s >= lo - 1e-12
        assert s <= hi + 1e-12

    def test_balanced_hits_upper(self):
        t = balanced_tree(64)
        assert tree_theoretical_speedup(t) == pytest.approx(speedup_balanced(64))

    def test_pectinate_hits_lower(self):
        t = pectinate_tree(64)
        assert tree_theoretical_speedup(t) == pytest.approx(1.0)
