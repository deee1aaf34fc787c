"""Among-site rate variation.

Real sequence data mixes fast- and slow-evolving sites. The standard
treatment (Yang 1994) discretises a Gamma(α, α) distribution (mean 1) into
``k`` equal-probability categories, each represented by its mean rate; the
site likelihood is then the category-probability-weighted mixture. An
optional proportion of invariant sites (rate 0) extends this to the
"Γ + I" model. Rate categories multiply the engine's work by ``k`` — the
partial-likelihood grid becomes ``patterns × states × categories`` — which
is why they appear in the FLOP accounting of :mod:`repro.gpu`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import gamma as gamma_dist

__all__ = [
    "RateCategories",
    "discrete_gamma",
    "invariant_plus_gamma",
    "single_rate",
    "draw_site_rates",
]


def sums_to_one(values: np.ndarray) -> bool:
    """``np.isclose(values.sum(), 1.0)`` at its default tolerances
    (``atol + rtol·|1|``) as a scalar test, false for NaN and inf."""
    return bool(abs(values.sum() - 1.0) <= 1e-08 + 1e-05)


@dataclass(frozen=True)
class RateCategories:
    """A finite mixture of site-rate classes.

    Attributes
    ----------
    rates:
        Rate multiplier of each category.
    probabilities:
        Prior probability of each category (sums to 1).
    """

    rates: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        rates = np.asarray(self.rates, dtype=np.float64)
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if rates.ndim != 1 or rates.shape != probs.shape:
            raise ValueError("rates and probabilities must be 1-D and equal length")
        if np.any(rates < 0):
            raise ValueError("rates must be non-negative")
        if np.any(probs < 0) or not sums_to_one(probs):
            raise ValueError("probabilities must be non-negative and sum to 1")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "probabilities", probs)

    @property
    def n_categories(self) -> int:
        return int(self.rates.shape[0])

    def mean_rate(self) -> float:
        """Expected rate over categories (≈ 1 for normalised mixtures)."""
        return float(np.dot(self.rates, self.probabilities))


_SINGLE_RATE = RateCategories(np.array([1.0]), np.array([1.0]))
_SINGLE_RATE.rates.setflags(write=False)
_SINGLE_RATE.probabilities.setflags(write=False)


def single_rate() -> RateCategories:
    """The trivial one-category mixture (no rate heterogeneity).

    Every call returns the same mixture, so its arrays are read-only:
    a caller that needs to edit rates builds its own
    :class:`RateCategories`.
    """
    return _SINGLE_RATE


def discrete_gamma(alpha: float, n_categories: int = 4) -> RateCategories:
    """Yang's (1994) mean-of-quantile discrete Gamma approximation.

    The Gamma(α, α) density is cut at its ``i/k`` quantiles; each
    category's rate is the conditional mean within its slice, computed
    analytically from the incomplete-gamma identity
    ``E[X; X ≤ q] = CDF_{α+1}(q · α/(α+1) scale)``. Category rates are then
    renormalised so the mixture mean is exactly 1.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if n_categories < 1:
        raise ValueError("need at least one category")
    if n_categories == 1:
        return single_rate()
    k = n_categories
    # Gamma(shape=alpha, scale=1/alpha): mean 1.
    dist = gamma_dist(a=alpha, scale=1.0 / alpha)
    cuts = dist.ppf(np.arange(1, k) / k)
    # E[X · 1{X ≤ q}] for Gamma(a, scale) equals CDF of Gamma(a+1, scale)
    # at q times the distribution mean (= 1 here).
    upper_dist = gamma_dist(a=alpha + 1.0, scale=1.0 / alpha)
    partial = np.concatenate(([0.0], upper_dist.cdf(cuts), [1.0]))
    rates = (partial[1:] - partial[:-1]) * k
    rates = rates / rates.mean()
    probs = np.full(k, 1.0 / k)
    return RateCategories(rates, probs)


def invariant_plus_gamma(
    alpha: float, p_invariant: float, n_categories: int = 4
) -> RateCategories:
    """Γ + I mixture: a point mass of invariant sites plus discrete Γ.

    The Γ category rates are scaled by ``1/(1 − p_inv)`` so the overall
    mean rate remains 1 (branch lengths keep their substitutions-per-site
    meaning).
    """
    if not 0.0 <= p_invariant < 1.0:
        raise ValueError("p_invariant must be in [0, 1)")
    base = discrete_gamma(alpha, n_categories)
    rates = np.concatenate(([0.0], base.rates / (1.0 - p_invariant)))
    probs = np.concatenate(([p_invariant], base.probabilities * (1.0 - p_invariant)))
    return RateCategories(rates, probs)


def draw_site_rates(
    categories: RateCategories,
    n_sites: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample one rate multiplier per site from a category mixture.

    The sampling counterpart of likelihood-side rate mixtures: feed the
    result to :func:`repro.data.simulate.simulate_alignment` via
    ``site_rates`` so simulated data carries the heterogeneity the
    analysis model assumes.
    """
    if n_sites < 1:
        raise ValueError("need at least one site")
    picks = rng.choice(
        categories.n_categories, size=n_sites, p=categories.probabilities
    )
    return categories.rates[picks]
