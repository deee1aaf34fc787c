"""Unit tests for the vectorised likelihood kernels.

``update_partials`` and ``rescale_partials`` below are the one-operation
oracles for the set executor's arithmetic; the engine never calls them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.beagle import (
    child_contribution,
    operation_flops,
    root_site_likelihoods,
)
from repro.beagle.kernels import pattern_maxima, reduce_sites
from repro.models import HKY85


def update_partials(
    matrices1: np.ndarray,
    matrices2: np.ndarray,
    partials1: Optional[np.ndarray] = None,
    codes1: Optional[np.ndarray] = None,
    partials2: Optional[np.ndarray] = None,
    codes2: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Oracle for one operation: one destination partials array.

    Eq. 1 of the paper for every category, pattern and parent state: the
    product of the two child contributions, optionally written into a
    preallocated ``(C, P, S)`` ``out``.
    """
    left = child_contribution(matrices1, partials1, codes1)
    right = child_contribution(matrices2, partials2, codes2)
    if out is None:
        return left * right
    np.multiply(left, right, out=out)
    return out


def rescale_partials(partials: np.ndarray) -> np.ndarray:
    """Oracle rescaler: scale ``(C, P, S)`` partials in place and return
    the per-pattern log factors.

    The scale factor for a pattern is the maximum of its partials across
    categories and states (BEAGLE's default "dynamic max" scaler).
    Patterns whose partials are all zero keep factor 1 so a hard underflow
    stays visible as a −inf site likelihood rather than NaN.
    """
    factors = partials.max(axis=(0, 2))
    safe = np.where(factors > 0.0, factors, 1.0)
    partials /= safe[None, :, None]
    return np.log(safe)


@pytest.fixture
def matrices():
    """(C=2, S=4, S=4) transition matrices for two rate categories."""
    model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
    return np.stack([model.transition_matrix(0.1), model.transition_matrix(0.4)])


def naive_contribution(matrices, child_partials):
    C, P, S = child_partials.shape
    out = np.zeros((C, P, S))
    for c in range(C):
        for p in range(P):
            for z in range(S):
                out[c, p, z] = sum(
                    matrices[c, z, x] * child_partials[c, p, x] for x in range(S)
                )
    return out


class TestChildContribution:
    def test_matches_naive_loops(self, matrices):
        rng = np.random.default_rng(0)
        partials = rng.random((2, 5, 4))
        fast = child_contribution(matrices, partials=partials)
        slow = naive_contribution(matrices, partials)
        assert np.allclose(fast, slow, atol=1e-14)

    def test_codes_equal_onehot_partials(self, matrices):
        codes = np.array([0, 3, 1, 2, 0])
        onehot = np.zeros((2, 5, 4))
        for p, s in enumerate(codes):
            onehot[:, p, s] = 1.0
        assert np.allclose(
            child_contribution(matrices, codes=codes),
            child_contribution(matrices, partials=onehot),
            atol=1e-14,
        )

    def test_unknown_code_gives_ones(self, matrices):
        codes = np.array([4, 4])  # unknown
        out = child_contribution(matrices, codes=codes)
        assert np.allclose(out, 1.0)

    def test_requires_exactly_one_source(self, matrices):
        with pytest.raises(ValueError):
            child_contribution(matrices)
        with pytest.raises(ValueError):
            child_contribution(
                matrices, partials=np.ones((2, 1, 4)), codes=np.array([0])
            )


class TestUpdatePartials:
    def test_product_of_contributions(self, matrices):
        rng = np.random.default_rng(1)
        p1 = rng.random((2, 6, 4))
        p2 = rng.random((2, 6, 4))
        dest = update_partials(matrices, matrices, partials1=p1, partials2=p2)
        expected = child_contribution(matrices, partials=p1) * child_contribution(
            matrices, partials=p2
        )
        assert np.allclose(dest, expected, atol=1e-14)

    def test_out_parameter_in_place(self, matrices):
        rng = np.random.default_rng(2)
        p1 = rng.random((2, 3, 4))
        p2 = rng.random((2, 3, 4))
        out = np.empty((2, 3, 4))
        result = update_partials(matrices, matrices, partials1=p1, partials2=p2, out=out)
        assert result is out
        assert np.allclose(out, update_partials(matrices, matrices, partials1=p1, partials2=p2))

    def test_mixed_tip_and_partials(self, matrices):
        rng = np.random.default_rng(3)
        p2 = rng.random((2, 4, 4))
        codes = np.array([0, 1, 2, 4])
        dest = update_partials(matrices, matrices, codes1=codes, partials2=p2)
        assert dest.shape == (2, 4, 4)
        assert np.all(dest >= 0)


class TestRescale:
    def test_scales_to_max_one(self):
        rng = np.random.default_rng(7)
        partials = rng.random((2, 5, 4)) * 1e-20
        logs = rescale_partials(partials)
        assert partials.max(axis=(0, 2)) == pytest.approx(1.0)
        assert logs.shape == (5,)
        assert np.all(logs < 0)  # tiny values -> negative log factors

    def test_reconstruction(self):
        rng = np.random.default_rng(8)
        original = rng.random((1, 4, 4))
        partials = original.copy()
        logs = rescale_partials(partials)
        assert np.allclose(partials * np.exp(logs)[None, :, None], original)

    def test_zero_pattern_kept_visible(self):
        partials = np.zeros((1, 2, 4))
        partials[0, 0, :] = 0.5
        logs = rescale_partials(partials)
        assert logs[1] == 0.0
        assert np.all(partials[0, 1] == 0.0)


class TestRootReduction:
    def test_uniform_case(self):
        # Root partials all ones with uniform frequencies -> site lik 1.
        partials = np.ones((2, 3, 4))
        site = root_site_likelihoods(
            partials, np.full(4, 0.25), np.array([0.5, 0.5])
        )
        assert np.allclose(site, 1.0)

    def test_category_weighting(self):
        partials = np.zeros((2, 1, 4))
        partials[0] = 1.0  # category 0 likelihood 1, category 1 zero
        site = root_site_likelihoods(
            partials, np.full(4, 0.25), np.array([0.3, 0.7])
        )
        assert site[0] == pytest.approx(0.3)


class TestReduceSites:
    """A ``(k, P)`` stack reduces each row to the bits that row has alone,
    so a gradient branch's totals do not depend on its batch."""

    @given(
        k=st.sampled_from([1, 2, 3, 16, 40]),
        n_patterns=st.integers(1, 700),
        dtype=st.sampled_from([np.float32, np.float64]),
        order=st.sampled_from(["C", "F"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_each_row_alone(self, k, n_patterns, dtype, order, seed):
        rng = np.random.default_rng(seed)
        weights = rng.integers(1, 50, n_patterns).astype(np.float64)
        values = rng.standard_normal((k, n_patterns)) * 10.0 ** rng.integers(
            -3, 4, (k, n_patterns)
        )
        values = np.array(values, dtype=dtype, order=order)
        if order == "F" and min(k, n_patterns) > 1:
            assert not values[0].flags.c_contiguous  # strided rows
        alone = [reduce_sites(weights, row) for row in values]
        assert all(type(total) is float for total in alone)
        stacked = reduce_sites(weights, values)
        assert stacked.shape == (k,) and stacked.dtype == np.float64
        assert stacked.tobytes() == np.array(alone).tobytes()

    def test_non_finite_rows(self):
        weights = np.array([1.0, 2.0, 3.0])
        values = np.array(
            [[0.0, -np.inf, 1.0], [np.nan, 1.0, 2.0], [np.inf, -np.inf, 0.0]]
        )
        alone = [reduce_sites(weights, row) for row in values]
        assert reduce_sites(weights, values).tobytes() == np.array(alone).tobytes()


class TestFlops:
    def test_formula(self):
        assert operation_flops(512, 4, 1) == 512 * 4 * 17
        assert operation_flops(100, 20, 4) == 4 * 100 * 20 * 81

    def test_scales_linearly_in_patterns(self):
        assert operation_flops(1000, 4) == 10 * operation_flops(100, 4)


class TestPatternMaxima:
    """The per-pattern maximum equals NumPy's axis reduction exactly, on
    either side of the state count where it switches to the slice loop."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("categories", [1, 4])
    @pytest.mark.parametrize("states", [2, 4, 5, 8, 9, 20, 61])
    def test_equals_the_axis_reduction(self, states, categories, dtype):
        rng = np.random.default_rng(100 * states + categories)
        rows = rng.random((7, categories, 16, states)).astype(dtype)
        rows[0] = 0.0
        rows[1] *= np.finfo(dtype).tiny / 8  # subnormal
        rows[2, :, 3, -1] = np.nan
        rows[2, -1, 5, 0] = np.nan
        rows[2, 0, 6, states // 2] = np.nan
        rows[3, :, 7, states // 2] = np.inf
        rows[3, 0, 8] = -np.inf
        rows[3, -1, 9, 0] = np.inf
        rows[3, -1, 9, -1] = np.nan
        rows[4] = -rows[4]
        rows[4, :, 10] = -0.0
        rows[5, :, 11] = np.nan
        rows[6, 0, :, 0] = np.finfo(dtype).max
        before = rows.copy()

        got = pattern_maxima(rows)
        expected = rows.max(axis=(-3, -1))
        assert got.dtype == expected.dtype and got.shape == (7, 16)
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(rows, before, equal_nan=True)
        # One (C, P, S) row into a buffer, as the rescaler calls it.
        out = np.empty(16, dtype=dtype)
        for row in rows:
            assert pattern_maxima(row, out=out) is out
            assert np.array_equal(out, row.max(axis=(0, 2)), equal_nan=True)
