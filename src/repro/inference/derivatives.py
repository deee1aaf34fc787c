"""Analytic branch-length derivatives via rerooting.

To differentiate the log-likelihood with respect to one branch length,
view the tree as rooted *on that branch* — free for reversible models
(the same pulley principle the paper's whole approach rests on). The
likelihood then factors through the branch's transition matrix alone::

    L_p(t) = Σ_c w_c Σ_{a,b} π_a · U_p[c,a] · P_c(t)[a,b] · V_p[c,b]

with ``U`` and ``V`` the partials of the two half-trees, so

    dL_p/dt  = Σ_c w_c r_c · π (U ∘ (Q P V)),
    d²L_p/dt² = Σ_c w_c r_c² · π (U ∘ (Q² P V)),

and the log-likelihood derivatives follow from ``(L' / L)`` per pattern.
This is BEAGLE's ``calculateEdgeLogLikelihoods``-with-derivatives
capability, and it powers the Newton branch optimiser in
:mod:`repro.inference.optimize` — quadratically convergent, a fraction
of Brent's likelihood evaluations per branch.

Two evaluation strategies share one recombination routine. It takes a
batch of ``k`` branches — stacked ``(k, C, P, S)`` half-tree partials
and ``(k,)`` lengths — and per category makes one eigen call per
derivative order and one stacked matmul per order, then reduces each
branch over its own row:

* :func:`edge_log_likelihood_derivatives` — the per-edge oracle: one
  rerooted post-order evaluation per branch, O(n) partial updates each.
  A :class:`DerivativeSession` amortises the engine instance across
  edges of the same (model, data) pair so the path is no longer
  quadratic in *allocations* (it stays quadratic in partial updates).
  It recombines a batch of one.
* :func:`all_branch_derivatives` — the one-sweep engine: a single
  post-order + pre-order :class:`~repro.core.planner.GradientPlan`
  leaves every node's lower *and* upper partials in the instance, and
  all ``2n − 3`` branches recombine from buffers already in memory —
  ``3n − 5`` partial updates total instead of ``(2n−3)(n−1)``. The
  branches go in cache-sized chunks
  (:func:`~repro.beagle.setexec.block_ops`, the arena's block rule),
  each gathered from the store in one call. Results are bit-consistent
  with the per-edge oracle (same partials bits, same routine, per-row
  reductions), which the gradient parity gate asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..beagle.instance import BeagleInstance
from ..beagle.setexec import block_ops
from ..core.planner import (
    create_instance,
    execute_gradient_plan,
    make_gradient_plan,
    make_plan,
)
from ..data.patterns import PatternData
from ..models.eigen import transition_derivatives, transition_matrices
from ..models.ratematrix import SubstitutionModel
from ..models.siterates import RateCategories, single_rate
from ..obs import get_recorder
from ..trees import Tree
from ..trees.node import Node
from ..trees.reroot import reroot_above

__all__ = [
    "EdgeDerivatives",
    "edge_log_likelihood_derivatives",
    "DerivativeSession",
    "BranchGradient",
    "all_branch_derivatives",
    "canonical_edges",
    "merged_edge_length",
]


@dataclass(frozen=True)
class EdgeDerivatives:
    """Log-likelihood and its first two branch-length derivatives."""

    log_likelihood: float
    first: float
    second: float


class DerivativeSession:
    """Engine-instance reuse across per-edge derivative evaluations.

    The legacy per-edge path allocated a fresh
    :class:`~repro.beagle.instance.BeagleInstance` (partials storage,
    matrix bank, workspace arena) for *every* edge of every tree — a
    full gradient was quadratic in allocations on top of being quadratic
    in partial updates. A session holds one instance for a fixed
    (model, patterns, rates, dtype) and re-populates only the
    tip→buffer name mapping per (rerooted) tree, so repeated calls are
    allocation-free in steady state. Likelihood bits are unchanged:
    partials are recomputed from scratch per call (``invalidate_partials``)
    from identical tip data and matrices.

    Pass a session to :func:`edge_log_likelihood_derivatives` via
    ``session=``; it also serves as the parity oracle for
    :func:`all_branch_derivatives` at matching dtype.
    """

    def __init__(
        self,
        model: SubstitutionModel,
        patterns: PatternData,
        rates: Optional[RateCategories] = None,
        *,
        dtype: np.dtype = np.float64,
    ) -> None:
        self.model = model
        self.patterns = patterns
        self.rates = rates or single_rate()
        self.dtype = np.dtype(dtype)
        self._instance: Optional[BeagleInstance] = None
        self._n_tips: Optional[int] = None
        #: Fresh engine instances created by this session (for tests).
        self.instances_created = 0
        #: half_tree_partials evaluations served.
        self.evaluations = 0

    def _instance_for(self, tree: Tree) -> BeagleInstance:
        """The session instance, (re)created only on a tip-count change."""
        if self._instance is None or self._n_tips != tree.n_tips:
            self._instance = create_instance(
                tree,
                self.model,
                self.patterns,
                rates=self.rates,
                dtype=self.dtype,
            )
            self._n_tips = tree.n_tips
            self.instances_created += 1
            return self._instance
        # Same shape, possibly different tip→buffer mapping: re-bind tip
        # data by name (cheap; no array allocation beyond the tip rows).
        tree.assign_indices()
        instance = self._instance
        for tip in tree.tips():
            index = tree.index_of(tip)
            if tip.name in self.patterns.partials:
                instance.set_tip_partials(
                    index, self.patterns.tip_partials(tip.name)
                )
            else:
                instance.set_tip_states(index, self.patterns.tip_codes(tip.name))
        return instance

    def half_tree_partials(
        self, tree: Tree
    ) -> Tuple[np.ndarray, np.ndarray, BeagleInstance]:
        """Root children's raw subtree partials for a (rerooted) tree.

        Same contract as the legacy module-level helper: the returned
        ``(U, V, instance)`` carry the children's own subtree partials
        ``(C, P, S)`` *excluding* their root branches.
        """
        instance = self._instance_for(tree)
        plan = make_plan(tree, "concurrent")
        instance.invalidate_partials()
        instance.update_transition_matrices(
            0, plan.matrix_indices, plan.branch_lengths
        )
        for op_set in plan.operation_sets:
            instance.update_partials_set(op_set)
        self.evaluations += 1
        left, right = tree.root.children
        return (
            instance.get_partials(tree.index_of(left)),
            instance.get_partials(tree.index_of(right)),
            instance,
        )


def _recombine_edges(
    U: np.ndarray,
    V: np.ndarray,
    t: np.ndarray,
    model: SubstitutionModel,
    rates: RateCategories,
    weights: np.ndarray,
) -> List[EdgeDerivatives]:
    """``(logL, d/dt, d²/dt²)`` of ``k`` branches from their half-tree partials.

    ``U`` and ``V`` are ``(k, C, P, S)`` stacks, ``t`` the ``(k,)`` branch
    lengths. Per category, one :func:`transition_matrices` call and one
    :func:`transition_derivatives` call per order cover all ``k`` scaled
    lengths, followed by one stacked matmul per order. Each branch is
    reduced over its own row with ``np.dot(weights, row)``, so a branch's
    bits do not depend on the batch it rides in. The one recombination
    of both the per-edge oracle (a batch of one) and the sweep.
    """
    eigen = model.eigen
    pi = model.frequencies
    k, n_patterns = U.shape[0], U.shape[2]

    site_L = np.zeros((k, n_patterns))
    site_d1 = np.zeros((k, n_patterns))
    site_d2 = np.zeros((k, n_patterns))
    for c, (rate, cat_weight) in enumerate(zip(rates.rates, rates.probabilities)):
        scaled_t = rate * t
        P = transition_matrices(eigen, scaled_t)
        dP = transition_derivatives(eigen, scaled_t, order=1) * rate
        d2P = transition_derivatives(eigen, scaled_t, order=2) * rate**2
        Uc, Vc = U[:, c], V[:, c]
        for matrix, accumulator in ((P, site_L), (dP, site_d1), (d2P, site_d2)):
            joint = Uc * (Vc @ matrix.transpose(0, 2, 1))
            accumulator += cat_weight * (joint @ pi)

    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(site_L)
        ratio1 = site_d1 / site_L
        ratio2 = site_d2 / site_L
    curvature = ratio2 - ratio1**2
    return [
        EdgeDerivatives(
            log_likelihood=float(np.dot(weights, logs[i])),
            first=float(np.dot(weights, ratio1[i])),
            second=float(np.dot(weights, curvature[i])),
        )
        for i in range(k)
    ]


def edge_log_likelihood_derivatives(
    tree: Tree,
    model: SubstitutionModel,
    patterns: PatternData,
    edge: Node,
    *,
    rates: Optional[RateCategories] = None,
    at_length: Optional[float] = None,
    session: Optional[DerivativeSession] = None,
) -> EdgeDerivatives:
    """Analytic ``(logL, dlogL/dt, d²logL/dt²)`` for one branch.

    Parameters
    ----------
    edge:
        The branch, identified by its child node in ``tree``. When the
        edge's parent is the root, the derivative refers to the *merged*
        pulley branch of the unrooted tree (child length + sibling
        length) — the only length the likelihood actually depends on for
        a reversible model.
    at_length:
        Evaluate at this branch length (defaults to the branch's current
        unrooted length). The input tree is never modified.
    session:
        A :class:`DerivativeSession` to reuse one engine instance across
        calls (same model/patterns/rates). Without one, a throwaway
        float64 session serves the call.
    """
    if edge.parent is None:
        raise ValueError("the root has no branch")
    rates = rates or single_rate()
    if at_length is None:
        t = float(edge.length)
        if edge.parent is tree.root and len(tree.root.children) == 2:
            sibling = edge.sibling()
            assert sibling is not None
            t += float(sibling.length)
    else:
        t = float(at_length)
    if t < 0:
        raise ValueError("branch length must be non-negative")

    # Root the evaluation on the focal branch, fraction 0 from the child:
    # child keeps length 0, the other side carries the full length t.
    # `fraction=0` puts the zero-length side (the clone of `edge`) first,
    # so U below is the focal subtree's raw partials and V the far side's.
    rerooted = reroot_above(tree, edge, fraction=0.0)
    if session is None:
        session = DerivativeSession(model, patterns, rates)
    U, V, _ = session.half_tree_partials(rerooted)
    return _recombine_edges(
        U[None], V[None], np.array([t]), model, rates, patterns.weights
    )[0]


def merged_edge_length(tree: Tree, edge: Node) -> float:
    """The unrooted length of a branch (pulley-merged at the root)."""
    t = float(edge.length)
    if edge.parent is tree.root and len(tree.root.children) == 2:
        sibling = edge.sibling()
        assert sibling is not None
        t += float(sibling.length)
    return t


def canonical_edges(tree: Tree) -> List[Node]:
    """The ``2n − 3`` unrooted branches, as child nodes, in post-order.

    Every non-root node except the *second* root child: under the pulley
    view the two root branches are one merged edge, represented by the
    first root child.
    """
    if len(tree.root.children) != 2:
        raise ValueError("canonical edges require a bifurcating root")
    skip = tree.root.children[1]
    return [
        node
        for node in tree.root.traverse_postorder()
        if node.parent is not None and node is not skip
    ]


@dataclass(frozen=True)
class BranchGradient:
    """Every branch's ``(logL, d/dt, d²/dt²)`` from one gradient sweep.

    Attributes
    ----------
    tree:
        The tree evaluated (indices assigned; not modified).
    log_likelihood:
        Root log-likelihood of the post-order pass.
    edges:
        The ``2n − 3`` canonical branches, as child nodes, in the order
        of :func:`canonical_edges`.
    derivatives:
        One :class:`EdgeDerivatives` per canonical branch, same order.
    """

    tree: Tree
    log_likelihood: float
    edges: Tuple[Node, ...]
    derivatives: Tuple[EdgeDerivatives, ...]

    def gradient(self) -> np.ndarray:
        """First derivatives ``dlogL/dt`` as a ``(2n−3,)`` vector."""
        return np.array([d.first for d in self.derivatives])

    def second_derivatives(self) -> np.ndarray:
        """Second derivatives ``d²logL/dt²`` as a ``(2n−3,)`` vector."""
        return np.array([d.second for d in self.derivatives])

    def branch_lengths(self) -> np.ndarray:
        """Unrooted branch lengths, same order as :attr:`edges`."""
        return np.array(
            [merged_edge_length(self.tree, e) for e in self.edges]
        )

    @cached_property
    def _by_id(self) -> Dict[int, EdgeDerivatives]:
        """Canonical edge ``id`` → derivatives, built on first lookup."""
        return {id(e): d for e, d in zip(self.edges, self.derivatives)}

    def for_edge(self, edge: Node) -> EdgeDerivatives:
        """The derivatives of one branch (by its child node)."""
        by_id = self._by_id
        if id(edge) in by_id:
            return by_id[id(edge)]
        # The second root child aliases the merged pulley edge.
        if edge.parent is self.tree.root:
            sibling = edge.sibling()
            if sibling is not None and id(sibling) in by_id:
                return by_id[id(sibling)]
        raise KeyError("node is not a canonical edge of this gradient")


def all_branch_derivatives(
    tree: Tree,
    model: SubstitutionModel,
    patterns: PatternData,
    *,
    rates: Optional[RateCategories] = None,
    dtype: np.dtype = np.float64,
    mode: str = "concurrent",
    instance: Optional[BeagleInstance] = None,
    verify: bool = False,
) -> BranchGradient:
    """Every branch's ``(logL, d/dt, d²/dt²)`` in one two-pass sweep.

    One post-order pass fills the lower partials, one pre-order pass the
    upper partials (``3n − 5`` partial updates total), and the ``2n − 3``
    canonical branches recombine in chunks of
    :func:`~repro.beagle.setexec.block_ops` branches: one
    :meth:`~repro.beagle.instance.BeagleInstance.edge_partials` gather
    and one batched recombination per chunk. Bit-consistent with
    :func:`edge_log_likelihood_derivatives` run per edge at the same
    dtype: both paths feed identical half-tree partials bits to the same
    recombination routine, which reduces every branch on its own row.

    Parameters
    ----------
    instance:
        Reuse an existing engine instance for the sweep (it must have
        been created for this tree/model/data shape); a fresh one is
        created otherwise.
    verify:
        Statically verify the gradient plan
        (:func:`repro.analysis.verify_gradient_plan`) before executing.
    """
    if tree.n_tips < 3:
        raise ValueError("all-branch gradients require at least three tips")
    rates = rates or single_rate()
    tree.assign_indices()
    gplan = make_gradient_plan(tree, mode=mode, verify=verify)
    if instance is None:
        instance = create_instance(
            tree, model, patterns, rates=rates, dtype=dtype
        )
    log_likelihood = execute_gradient_plan(instance, gplan)

    edges = canonical_edges(tree)
    nodes = [tree.index_of(edge) for edge in edges]
    lengths = np.array([merged_edge_length(tree, edge) for edge in edges])
    chunk = block_ops(instance)
    derivatives: List[EdgeDerivatives] = []
    for start in range(0, len(edges), chunk):
        U, V = instance.edge_partials(nodes[start : start + chunk])
        derivatives += _recombine_edges(
            U, V, lengths[start : start + chunk], model, rates, patterns.weights
        )
    obs = get_recorder()
    if obs.enabled:
        obs.count("repro_gradient_edges_total", len(edges))
    return BranchGradient(
        tree=tree,
        log_likelihood=log_likelihood,
        edges=tuple(edges),
        derivatives=tuple(derivatives),
    )
