"""Eigendecomposition-based transition probabilities.

For a time-reversible rate matrix ``Q`` (i.e. ``π_i q_ij = π_j q_ji``) the
similarity transform ``S = diag(√π) Q diag(1/√π)`` is symmetric, so its
eigendecomposition is numerically stable (``scipy.linalg.eigh``) and gives

    P(t) = exp(Qt) = U · diag(exp(λ t)) · U⁻¹,
    U = diag(1/√π) V,   U⁻¹ = Vᵀ diag(√π),

with ``V`` the orthonormal eigenvectors of ``S``. This is exactly the
decomposition BEAGLE's ``setEigenDecomposition`` consumes, which is why the
engine (:mod:`repro.beagle`) accepts ``(U, U⁻¹, λ)`` triples rather than
raw rate matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

__all__ = [
    "EigenDecomposition",
    "decompose_reversible",
    "transition_matrices",
]


@dataclass(frozen=True)
class EigenDecomposition:
    """``Q = U · diag(values) · U⁻¹`` for a reversible rate matrix.

    Attributes
    ----------
    values:
        Eigenvalues ``λ`` (all ≤ 0 up to round-off; the zero eigenvalue
        corresponds to the stationary distribution).
    vectors:
        ``U`` — right eigenvectors as columns.
    inverse_vectors:
        ``U⁻¹``.
    """

    values: np.ndarray
    vectors: np.ndarray
    inverse_vectors: np.ndarray

    @property
    def n_states(self) -> int:
        return self.values.shape[0]


def decompose_reversible(Q: np.ndarray, frequencies: np.ndarray) -> EigenDecomposition:
    """Stable eigendecomposition of a reversible rate matrix.

    Parameters
    ----------
    Q:
        ``(s, s)`` rate matrix with zero row sums satisfying detailed
        balance with respect to ``frequencies``.
    frequencies:
        Stationary distribution ``π`` (strictly positive).

    Raises
    ------
    ValueError
        If ``Q`` is not reversible with respect to ``frequencies`` (the
        symmetrised matrix would not be symmetric, silently corrupting
        transition probabilities).
    """
    Q = np.asarray(Q, dtype=np.float64)
    pi = np.asarray(frequencies, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be square")
    if pi.shape != (Q.shape[0],) or np.any(pi <= 0):
        raise ValueError("frequencies must be strictly positive, one per state")

    sqrt_pi = np.sqrt(pi)
    S = Q * (sqrt_pi[:, None] / sqrt_pi[None, :])
    asymmetry = np.max(np.abs(S - S.T))
    scale = max(1.0, np.max(np.abs(S)))
    if asymmetry > 1e-8 * scale:
        raise ValueError(
            f"rate matrix is not reversible w.r.t. the given frequencies "
            f"(asymmetry {asymmetry:.3e})"
        )
    S = (S + S.T) / 2.0
    values, V = scipy.linalg.eigh(S)
    U = V / sqrt_pi[:, None]
    U_inv = V.T * sqrt_pi[None, :]
    return EigenDecomposition(values=values, vectors=U, inverse_vectors=U_inv)


def transition_matrices(
    eigen: EigenDecomposition, times: Sequence[float]
) -> np.ndarray:
    """Batched ``P(t) = U · diag(exp(λ t)) · U⁻¹`` for many branch lengths.

    The batch is computed with one broadcast multiply and one stacked
    ``matmul`` — the vectorised form of BEAGLE's
    ``updateTransitionMatrices`` — so requesting all branches of a tree at
    once costs a single BLAS call.

    Returns
    -------
    ndarray
        ``(len(times), s, s)`` stochastic matrices. Tiny negative entries
        from round-off are clipped to 0.
    """
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError("times must be one-dimensional")
    if np.any(t < 0):
        raise ValueError("branch lengths must be non-negative")
    # exp_lambda_t: (k, s); scale columns of U once per time.
    exp_lt = np.exp(np.outer(t, eigen.values))
    scaled = eigen.vectors[None, :, :] * exp_lt[:, None, :]
    P = scaled @ eigen.inverse_vectors
    np.clip(P, 0.0, None, out=P)
    return P

