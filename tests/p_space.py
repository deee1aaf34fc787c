"""The P-space recombination, kept as an oracle for the eigen-space one.

:func:`repro.inference.derivatives._recombine_edges` contracts half-tree
partials with the branches' rows of an eigen basis built once per sweep
(:class:`~repro.inference.derivatives._EigenBasis`), never forms a
transition matrix, and reduces a batch's rows in three stacked
:func:`~repro.beagle.kernels.reduce_sites` calls. This module keeps the
matrix form it replaced: per category, the transition matrix and its
first two derivatives, each applied to the far half-tree's partials and
weighted by the stationary distribution, then each branch reduced on
its own 1-D row.

``P`` is formed as ``I + E · diag(expm1(λt)) · E⁻¹``. The plain
``E · diag(e^{λt}) · E⁻¹`` of
:func:`~repro.models.eigen.transition_matrices` rounds ``E · E⁻¹`` to
the identity only to ``ε``, and at short branches a pattern whose far
side strongly favours another state than the near side amplifies that:
on such patterns it is ~1e-12 off a 40-digit ``expm(Qt)``, where this
form and the eigen-space routine are ~1e-14 off.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.beagle.kernels import reduce_sites
from repro.models.eigen import EigenDecomposition
from repro.models.ratematrix import SubstitutionModel
from repro.models.siterates import RateCategories


def transition_derivatives(
    eigen: EigenDecomposition, times: Sequence[float], order: int = 1
) -> np.ndarray:
    """Batched derivatives ``d^k P(t) / dt^k = U · diag(λ^k e^{λt}) · U⁻¹``.

    ``order`` 1 gives ``Q·P(t)``, order 2 gives ``Q²·P(t)``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError("times must be one-dimensional")
    if np.any(t < 0):
        raise ValueError("branch lengths must be non-negative")
    factor = eigen.values**order
    scaled_exp = factor[None, :] * np.exp(np.outer(t, eigen.values))
    scaled = eigen.vectors[None, :, :] * scaled_exp[:, None, :]
    return scaled @ eigen.inverse_vectors


def p_space_recombine(
    U: np.ndarray,
    V: np.ndarray,
    t: np.ndarray,
    model: SubstitutionModel,
    rates: RateCategories,
    weights: np.ndarray,
) -> List[Tuple[float, float, float]]:
    """``(logL, d/dt, d²/dt²)`` of ``k`` branches through ``P``, ``dP`` and
    ``d²P``: ``L_p = Σ_c w_c Σ_a π_a U[c,a] (M_c V[c])_a`` for each
    matrix ``M_c`` in turn."""
    eigen = model.eigen
    pi = model.frequencies
    site = np.zeros((3, U.shape[0], U.shape[2]))
    for c, (rate, cat_weight) in enumerate(zip(rates.rates, rates.probabilities)):
        scaled_t = rate * t
        decay = np.expm1(np.outer(scaled_t, eigen.values))
        matrices = (
            np.eye(eigen.n_states)
            + (eigen.vectors[None] * decay[:, None, :]) @ eigen.inverse_vectors,
            transition_derivatives(eigen, scaled_t, order=1) * rate,
            transition_derivatives(eigen, scaled_t, order=2) * rate**2,
        )
        for accumulator, matrix in zip(site, matrices):
            joint = U[:, c] * (V[:, c] @ matrix.transpose(0, 2, 1))
            accumulator += cat_weight * (joint @ pi)
    logs = np.log(site[0])
    ratio1 = site[1] / site[0]
    curvature = site[2] / site[0] - ratio1**2
    return [
        (
            reduce_sites(weights, logs[i]),
            reduce_sites(weights, ratio1[i]),
            reduce_sites(weights, curvature[i]),
        )
        for i in range(len(t))
    ]
