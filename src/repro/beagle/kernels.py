"""Vectorised partial-likelihood kernels.

These are the NumPy counterparts of BEAGLE's CUDA kernels. Array layout is
``(categories, patterns, states)`` for partials and
``(categories, states, states)`` for transition matrices, so the paper's
fine-grained ``patterns × states`` grid maps onto contiguous BLAS batches,
and the medium-grained ``× subtrees`` axis (paper §IV-B) is one more
leading batch dimension.

:func:`child_contribution` is one child's factor of an operation; the
set executor (:mod:`repro.beagle.setexec`) runs the same arithmetic as
compiled per-operation or run steps for a whole independent operation
set, the analogue of BEAGLE's multi-operation kernel (§VI-A).

FLOP accounting (:func:`operation_flops`) follows the paper's effective-
FLOPS throughput metric (§VI-C).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

__all__ = [
    "child_contribution",
    "dense_tip_partials",
    "root_site_likelihoods",
    "edge_site_likelihoods",
    "operation_flops",
    "pattern_maxima",
    "reduce_sites",
]


def dense_tip_partials(
    codes: np.ndarray,
    n_states: int,
    n_categories: int,
    dtype: np.dtype,
) -> np.ndarray:
    """Expand compact tip codes to dense ``(C, P, S)`` partials.

    The identity-matrix contribution of :func:`child_contribution`:
    observed states become one-hot rows, the "unknown" code ``n_states``
    becomes all-ones. Used to seed pre-order upper-partial buffers from
    tip sources and by ``get_partials`` on a tip, which gives the gradient
    sweep its tip branches' lower partials, once per swept topology.
    """
    eye = np.eye(n_states, dtype=dtype)
    return child_contribution(
        np.broadcast_to(eye, (n_categories, n_states, n_states)),
        codes=codes,
        dtype=np.dtype(dtype),
    )


def child_contribution(
    matrices: np.ndarray,
    partials: Optional[np.ndarray] = None,
    codes: Optional[np.ndarray] = None,
    dtype: Optional[np.dtype] = None,
) -> np.ndarray:
    """One child's factor of Eq. 1: ``Σ_x P(x|z,t) L(x)``.

    Parameters
    ----------
    matrices:
        ``(C, S, S)`` transition matrices, ``matrices[c, z, x] =
        Pr(x | z, t·r_c)``.
    partials:
        ``(C, P, S)`` child partials (internal node or ambiguous tip).
    codes:
        ``(P,)`` compact tip states; the value ``S`` means "unknown"
        (contribution 1 for every parent state). Exactly one of
        ``partials``/``codes`` must be given.
    dtype:
        Dtype of the code-gather scratch (and hence the result on the
        codes path); defaults to ``matrices.dtype`` so float32 inputs
        yield float32 contributions instead of silently widening.

    Returns
    -------
    ndarray
        ``(C, P, S)`` contribution indexed by parent state ``z``.
    """
    if (partials is None) == (codes is None):
        raise ValueError("provide exactly one of partials or codes")
    if partials is not None:
        # Σ_x L[c,p,x] · P[c,z,x]  ==  L @ Pᵀ  batched over categories.
        return partials @ matrices.transpose(0, 2, 1)
    C, S, _ = matrices.shape
    codes = np.asarray(codes)
    if dtype is None:
        dtype = matrices.dtype
    # Gather columns of P by observed state; pad with a ones column so the
    # unknown code S yields a contribution of 1 for every parent state.
    padded = np.concatenate(
        [matrices, np.ones((C, S, 1), dtype=dtype)], axis=2
    )
    return padded[:, :, codes].transpose(0, 2, 1)


def root_site_likelihoods(
    partials: np.ndarray,
    frequencies: np.ndarray,
    category_weights: np.ndarray,
) -> np.ndarray:
    """Per-pattern likelihood at the root: ``Σ_c w_c Σ_z π_z L[c,p,z]``."""
    by_category = partials @ frequencies  # (C, P)
    return category_weights @ by_category  # (P,)


def edge_site_likelihoods(
    parent_partials: np.ndarray,
    child_contribution_: np.ndarray,
    frequencies: np.ndarray,
    category_weights: np.ndarray,
) -> np.ndarray:
    """Per-pattern likelihood across a root edge.

    ``parent_partials`` are the partials of the node above the edge viewed
    as a half-tree root; ``child_contribution_`` is
    :func:`child_contribution` of the node below across the edge's
    transition matrices.
    """
    joint = parent_partials * child_contribution_
    by_category = joint @ frequencies
    return category_weights @ by_category


#: Largest state count whose per-pattern maximum loops over state slices:
#: the nucleotide models, the only state count a benchmark workload runs.
_SLICE_MAX_STATES = 4


def pattern_maxima(rows: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Each pattern's maximum over categories and states.

    Reduces ``(..., C, P, S)`` partials to ``(..., P)``: the rescaler's
    divisor and the resilience checks' underflow and poison probe. NumPy
    reduces a short last axis slowly, about 0.07 µs per reduced group
    (row × category × pattern), so for ``S ≤ 4`` the states are folded
    with one ``np.maximum`` per state slice, a fixed cost of about 11 µs,
    and only the category axis is reduced; other state counts keep the
    axis reduction. A max is an exact selection that propagates NaN
    either way, so both forms give the values of
    ``rows.max(axis=(-3, -1))`` (NaN and ±inf included).

    µs, axis max / slice loop, best of 15 interleaved runs on a 2-vCPU
    Xeon, NumPy 2.4, f64; the columns are a 16-destination serve set's
    verification, one rescale at the eval-wide shape and one narrow
    destination of 128 patterns:

    ====  ============  ==============  ===========
    S     (16,1,64,S)   (1,4,1024,S)    (1,1,128,S)
    ====  ============  ==============  ===========
    2     55 / 7        262 / 14        11 / 9
    3     60 / 9        235 / 13        12 / 11
    4     64 / 11       272 / 18        13 / 14
    5     69 / 13       297 / 23        13 / 16
    6     93 / 26       318 / 28        14 / 18
    8     103 / 33      260 / 41        16 / 23
    9     61 / 35       247 / 53        11 / 25
    12    70 / 29       321 / 68        13 / 32
    16    113 / 57      268 / 108       16 / 42
    20    94 / 68       292 / 89        14 / 51
    61    99 / 203      439 / 395       16 / 150
    ====  ============  ==============  ===========

    The loop wins from about 128 groups up and loses below (at S = 4:
    one 64-pattern destination 7 / 12, two 11 / 12, four 19 / 12), so
    the crossover is in the array's size more than in S, and no workload
    measures a state count above 4: the loop is kept to ``S ≤ 4``, where
    the serve verification and the eval-wide rescale gain 6× and 15×.
    With one category the state fold is already the maximum, so it
    writes ``out`` itself and the category reduction (about 3 µs) is
    skipped.
    """
    n_states = rows.shape[-1]
    if n_states > _SLICE_MAX_STATES:
        return np.amax(rows, axis=(-3, -1), out=out)
    if rows.shape[-3] == 1 and n_states > 1:
        rows = rows[..., 0, :, :]
        best = np.maximum(rows[..., 0], rows[..., 1], out=out)
        for state in range(2, n_states):
            np.maximum(best, rows[..., state], out=best)
        return best
    best = rows[..., 0]
    for state in range(1, n_states):
        best = np.maximum(best, rows[..., state], out=None if state == 1 else best)
    return best.max(axis=-2, out=out)


def reduce_sites(weights: np.ndarray, values: np.ndarray) -> Any:
    """The one reduction of per-pattern values: ``Σ_p w_p · v_p``.

    Every route that turns site values into a likelihood total calls
    this: root and edge log-likelihoods and the sharded splice on one
    1-D vector (a ``float`` back), the gradient's recombination on a
    ``(k, P)`` stack of branch rows (the ``(k,)`` row totals back).
    ``np.vecdot`` runs the same ``dot`` loop per row that ``np.dot``
    runs on one vector, so a row's total has the same bits alone or in
    any stack. Per-pattern arithmetic does not depend on the other
    patterns in an instance, so equal site vectors reduce to equal bits
    whichever route produced them.
    """
    if values.ndim == 1:
        return float(np.dot(weights, values))
    return np.vecdot(values, weights)


def operation_flops(n_patterns: int, n_states: int, n_categories: int = 1) -> int:
    """Effective floating-point operations of one partial-likelihood op.

    Per category, pattern and parent state: two length-``S`` inner
    products (``2S`` multiply–adds each) plus the final multiply — the
    count underlying the paper's GFLOPS throughput metric.
    """
    per_state = 4 * n_states + 1
    return n_categories * n_patterns * n_states * per_state
