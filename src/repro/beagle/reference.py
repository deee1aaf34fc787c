"""Independent reference likelihood implementations.

Two oracles used to validate the buffer-based engine, deliberately sharing
no code with it:

* :func:`brute_force_log_likelihood` — sums the joint probability over
  *every* combination of internal-node states (Felsenstein's Eq. before
  pruning). Exponential in internal nodes; only for ≤ ~6 tips, but it is
  the ground truth the pruning algorithm must equal.
* :func:`pruning_log_likelihood` — a plain, recursive Felsenstein pruning
  over the tree with per-node dictionaries (no buffers, no batching).
  Fast enough for medium trees; used to cross-check engine results where
  brute force is infeasible.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

import numpy as np

from ..data.patterns import PatternData
from ..models.ratematrix import SubstitutionModel
from ..models.siterates import RateCategories, single_rate
from ..trees import Tree
from .kernels import reduce_sites

__all__ = ["brute_force_log_likelihood", "pruning_log_likelihood"]


def _tip_partial_lookup(patterns: PatternData) -> Dict[str, np.ndarray]:
    return {name: patterns.tip_partials(name) for name in patterns.taxa}


def brute_force_log_likelihood(
    tree: Tree,
    model: SubstitutionModel,
    patterns: PatternData,
    rates: Optional[RateCategories] = None,
) -> float:
    """Joint-state enumeration likelihood (exact, exponential cost)."""
    rates = rates or single_rate()
    s = model.n_states
    internals = tree.internals()
    if s ** len(internals) > 2_000_000:
        raise ValueError("tree too large for brute-force enumeration")
    tips = _tip_partial_lookup(patterns)
    pi = model.frequencies
    n_patterns = patterns.n_patterns

    site_likelihood = np.zeros(n_patterns)
    for rate, weight in zip(rates.rates, rates.probabilities):
        matrices = {
            id(node): model.transition_matrix(rate * node.length)
            for node in tree.nodes()
            if node.parent is not None
        }
        total = np.zeros(n_patterns)
        for assignment in itertools.product(range(s), repeat=len(internals)):
            states = {id(node): st for node, st in zip(internals, assignment)}
            prob = np.full(n_patterns, pi[states[id(tree.root)]])
            for node in tree.nodes():
                if node.parent is None:
                    continue
                parent_state = states[id(node.parent)]
                if node.is_tip:
                    P_row = matrices[id(node)][parent_state]
                    prob = prob * (tips[node.name] @ P_row)
                else:
                    prob = prob * matrices[id(node)][parent_state, states[id(node)]]
            total += prob
        site_likelihood += weight * total

    with np.errstate(divide="ignore"):
        return reduce_sites(patterns.weights, np.log(site_likelihood))


def pruning_log_likelihood(
    tree: Tree,
    model: SubstitutionModel,
    patterns: PatternData,
    rates: Optional[RateCategories] = None,
    *,
    rescaled: bool = False,
) -> float:
    """Plain Felsenstein pruning, independent of the buffer engine.

    With ``rescaled=True`` every internal node's partials are divided by
    their per-pattern maximum and the logs accumulated separately, so the
    oracle stays finite on trees deep enough to underflow ``float64``
    (the regime the engine needs scale buffers for). The two paths share
    the same arithmetic; ``rescaled=True`` only re-normalises.
    """
    rates = rates or single_rate()
    tips = _tip_partial_lookup(patterns)
    pi = model.frequencies
    n_patterns = patterns.n_patterns

    if not rescaled:
        site_likelihood = np.zeros(n_patterns)
        for rate, weight in zip(rates.rates, rates.probabilities):
            partials: Dict[int, np.ndarray] = {}
            for node in tree.root.traverse_postorder():
                if node.is_tip:
                    partials[id(node)] = tips[node.name]
                    continue
                value = np.ones((n_patterns, model.n_states))
                for child in node.children:
                    P = model.transition_matrix(rate * child.length)
                    value = value * (partials[id(child)] @ P.T)
                partials[id(node)] = value
            site_likelihood += weight * (partials[id(tree.root)] @ pi)

        with np.errstate(divide="ignore"):
            return reduce_sites(patterns.weights, np.log(site_likelihood))

    # Rescaled path: per-pattern log site likelihoods per category,
    # combined with logaddexp so no intermediate ever leaves log space.
    log_site_by_category = []
    for rate, weight in zip(rates.rates, rates.probabilities):
        partials = {}
        log_scale: Dict[int, np.ndarray] = {}
        for node in tree.root.traverse_postorder():
            if node.is_tip:
                partials[id(node)] = tips[node.name]
                log_scale[id(node)] = np.zeros(n_patterns)
                continue
            value = np.ones((n_patterns, model.n_states))
            scale = np.zeros(n_patterns)
            for child in node.children:
                P = model.transition_matrix(rate * child.length)
                value = value * (partials[id(child)] @ P.T)
                scale = scale + log_scale[id(child)]
            factors = value.max(axis=1)
            nonzero = factors > 0.0
            value[nonzero] /= factors[nonzero, None]
            with np.errstate(divide="ignore"):
                scale = scale + np.where(nonzero, np.log(factors), -np.inf)
            partials[id(node)] = value
            log_scale[id(node)] = scale
        root = tree.root
        with np.errstate(divide="ignore"):
            log_site_by_category.append(
                np.log(weight) + np.log(partials[id(root)] @ pi) + log_scale[id(root)]
            )
    log_site = np.logaddexp.reduce(np.stack(log_site_by_category), axis=0)
    return reduce_sites(patterns.weights, log_site)
