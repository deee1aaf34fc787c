"""Unit tests for among-site rate variation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import RateCategories, discrete_gamma, invariant_plus_gamma, single_rate


class TestRateCategories:
    def test_valid(self):
        rc = RateCategories(np.array([0.5, 1.5]), np.array([0.5, 0.5]))
        assert rc.n_categories == 2
        assert rc.mean_rate() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RateCategories(np.array([1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            RateCategories(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            RateCategories(np.array([1.0, 1.0]), np.array([0.7, 0.7]))

    def test_single_rate(self):
        rc = single_rate()
        assert rc.n_categories == 1
        assert rc.rates[0] == 1.0

    def test_sum_check_is_np_isclose(self):
        """The scalar distribution check accepts exactly what
        ``np.isclose(sum, 1.0)`` accepts, the tolerance edges, NaN and
        inf included."""
        from repro.models.siterates import sums_to_one

        edge = 1e-08 + 1e-05
        for total in (
            1.0, 1.0 + edge, 1.0 - edge, 1.0 + 1.001 * edge, 1.0 - 1.001 * edge,
            np.nextafter(1.0 + edge, 2.0), 0.0, 2.0, np.nan, np.inf, -np.inf,
        ):
            values = np.array([total])
            assert sums_to_one(values) == bool(np.isclose(total, 1.0)), total


class TestDiscreteGamma:
    def test_yang_1994_reference_values(self):
        # Published example: alpha = 0.5, k = 4 mean-of-quantile rates.
        rc = discrete_gamma(0.5, 4)
        expected = [0.0334, 0.2519, 0.8203, 2.8944]
        assert np.allclose(rc.rates, expected, atol=2e-4)

    def test_mean_is_one(self):
        for alpha in (0.1, 0.5, 1.0, 2.0, 10.0):
            for k in (2, 4, 8):
                rc = discrete_gamma(alpha, k)
                assert rc.mean_rate() == pytest.approx(1.0)

    def test_rates_increasing(self):
        rc = discrete_gamma(0.7, 6)
        assert np.all(np.diff(rc.rates) > 0)

    def test_large_alpha_approaches_uniform(self):
        rc = discrete_gamma(500.0, 4)
        assert np.allclose(rc.rates, 1.0, atol=0.1)

    def test_small_alpha_spreads(self):
        rc = discrete_gamma(0.1, 4)
        assert rc.rates[0] < 1e-3
        assert rc.rates[-1] > 3.0

    def test_one_category_trivial(self):
        rc = discrete_gamma(0.5, 1)
        assert rc.rates.tolist() == [1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            discrete_gamma(0.0, 4)
        with pytest.raises(ValueError):
            discrete_gamma(1.0, 0)


class TestInvariantPlusGamma:
    def test_structure(self):
        rc = invariant_plus_gamma(0.5, 0.2, 4)
        assert rc.n_categories == 5
        assert rc.rates[0] == 0.0
        assert rc.probabilities[0] == pytest.approx(0.2)

    def test_mean_preserved(self):
        rc = invariant_plus_gamma(0.5, 0.3, 4)
        assert rc.mean_rate() == pytest.approx(1.0)

    def test_zero_invariant_matches_gamma(self):
        rc = invariant_plus_gamma(0.5, 0.0, 4)
        base = discrete_gamma(0.5, 4)
        assert np.allclose(rc.rates[1:], base.rates)

    def test_validation(self):
        with pytest.raises(ValueError):
            invariant_plus_gamma(0.5, 1.0)
        with pytest.raises(ValueError):
            invariant_plus_gamma(0.5, -0.1)


class TestDrawSiteRates:
    def test_values_from_categories(self):
        import numpy as np
        from repro.models import draw_site_rates

        rc = discrete_gamma(0.5, 4)
        rates = draw_site_rates(rc, 500, np.random.default_rng(1))
        assert rates.shape == (500,)
        assert set(np.round(rates, 10)) <= set(np.round(rc.rates, 10))

    def test_mean_near_one(self):
        import numpy as np
        from repro.models import draw_site_rates

        rc = discrete_gamma(1.0, 4)
        rates = draw_site_rates(rc, 20_000, np.random.default_rng(2))
        assert abs(rates.mean() - 1.0) < 0.05

    def test_validation(self):
        import numpy as np
        from repro.models import draw_site_rates

        with pytest.raises(ValueError):
            draw_site_rates(single_rate(), 0, np.random.default_rng(0))
