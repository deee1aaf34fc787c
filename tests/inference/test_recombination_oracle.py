"""The eigen-space edge recombination against the P-space formula.

:func:`repro.inference.derivatives._recombine_edges` contracts each
branch's half-tree partials with its rows of an
:class:`~repro.inference.derivatives._EigenBasis`. The formula it
replaced builds ``P``, ``dP`` and ``d²P`` per category
(:mod:`tests.p_space`); the two must agree to round-off at every branch
length the optimisers and samplers reach, for both dtypes, gamma
categories and ambiguous tips.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.planner import create_instance
from repro.inference import all_branch_derivatives, edge_log_likelihood_derivatives
from repro.inference.derivatives import _EigenBasis, _recombine_edges
from repro.models import discrete_gamma
from repro.models.eigen import transition_matrices
from repro.models.siterates import single_rate
from repro.trees import balanced_tree
from tests.inference.test_gradient import (
    MODEL,
    ambiguous_patterns,
    half_trees_by_getters,
)
from tests.p_space import p_space_recombine, transition_derivatives
from tests.strategies import tree_strategy

#: From the smallest length Brent's optimiser tries (1e-9) and the
#: gradient optimisers' floor (1e-8) up to saturation.
LENGTHS = (1e-9, 1e-8, 1e-4, 0.5, 5.0, 20.0)


class TestTransitionDerivatives:
    def test_first_equals_qp(self):
        eigen = MODEL.eigen
        for t in (0.01, 0.3, 2.0):
            dP = transition_derivatives(eigen, [t])[0]
            P = transition_matrices(eigen, [t])[0]
            assert np.allclose(dP, MODEL.rate_matrix @ P, atol=1e-12)

    def test_second_equals_qqp(self):
        eigen = MODEL.eigen
        Q = MODEL.rate_matrix
        t = 0.4
        d2P = transition_derivatives(eigen, [t], order=2)[0]
        P = transition_matrices(eigen, [t])[0]
        assert np.allclose(d2P, Q @ Q @ P, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            transition_derivatives(MODEL.eigen, [0.1], order=0)
        with pytest.raises(ValueError):
            transition_derivatives(MODEL.eigen, [-0.1])


class TestEigenSpaceRecombination:
    @given(
        tree=tree_strategy(min_tips=4, max_tips=12),
        categories=st.sampled_from([1, 4]),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_p_space_formula(self, tree, categories, dtype, seed):
        for edge in tree.root.traverse_postorder():
            if edge.parent is not None:
                edge.length = max(float(edge.length), 0.02)
        tree.invalidate_indices()
        patterns = ambiguous_patterns(tree, 48, seed)
        assert patterns.partials and (patterns.codes == 4).any()
        rates = discrete_gamma(0.7, 4) if categories == 4 else single_rate()
        instance = create_instance(
            tree, MODEL, patterns, rates=rates, dtype=dtype
        )
        bg = all_branch_derivatives(
            tree, MODEL, patterns, rates=rates, instance=instance
        )
        U, V = half_trees_by_getters(instance, [tree.index_of(e) for e in bg.edges])
        k = len(bg.edges)
        for t in (bg.branch_lengths(), *(np.full(k, x) for x in LENGTHS)):
            basis = _EigenBasis(t, MODEL, rates)
            got = _recombine_edges(U, V, basis, 0, patterns.weights).tolist()
            want = p_space_recombine(U, V, t, MODEL, rates, patterns.weights)
            assert np.isfinite(got).all()
            assert np.isclose(got, want, rtol=1e-12, atol=1e-12).all(), t[0]

    def test_negative_lengths_raise(self):
        tree = balanced_tree(8, branch_length=0.1)
        patterns = ambiguous_patterns(tree, 24, seed=5)
        edge = tree.edges()[0]
        with pytest.raises(ValueError, match="non-negative"):
            edge_log_likelihood_derivatives(
                tree, MODEL, patterns, edge, at_length=-0.1
            )
        with pytest.raises(ValueError, match="non-negative"):
            _EigenBasis(np.array([0.1, -1e-9]), MODEL, single_rate())
        edge.length = -0.1
        tree.invalidate_indices()
        with pytest.raises(ValueError, match="non-negative"):
            all_branch_derivatives(tree, MODEL, patterns)
