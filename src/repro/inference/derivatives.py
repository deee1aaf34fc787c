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
and their rows of an eigen basis — and works in the model's eigenbasis:
with ``P(t) = E · diag(e^{λt}) · E⁻¹``, every ``L``, ``L'`` and ``L''``
of a category is the projection ``(U @ (π ∘ E)) ∘ (V @ E⁻ᵀ)``
contracted with ``[e^{rλt}, rλ·e^{rλt}, (rλ)²·e^{rλt}]``, so no ``P``,
``QP`` or ``Q²P`` is formed. The basis (:class:`_EigenBasis`) is built
once for all the lengths a caller recombines, and the batch's
``logL``, ratio and curvature rows go through three stacked
:func:`~repro.beagle.kernels.reduce_sites` calls, each of which gives
every row the bits it has alone:

* :func:`edge_log_likelihood_derivatives` — the per-edge oracle: one
  rerooted post-order evaluation per branch, O(n) partial updates each.
  A :class:`DerivativeSession` amortises the engine instance across
  edges of the same (model, data) pair so the path is no longer
  quadratic in *allocations* (it stays quadratic in partial updates).
  It recombines a batch of one, with a basis of its one length.
* :func:`all_branch_derivatives` — the one-sweep engine: a single
  post-order + pre-order :class:`~repro.core.planner.GradientPlan`
  leaves every node's lower *and* upper partials in the instance, and
  all ``2n − 3`` branches recombine from buffers already in memory —
  ``3n − 5`` partial updates total instead of ``(2n−3)(n−1)``. The
  branches go in buffer order, in cache-sized batches
  (:func:`~repro.beagle.setexec.batch_rows`), each a view of
  consecutive store rows: under the set-ordered
  numbering every internal lower and every upper lies in one run of
  rows, and a batch of tips gathers its 0/1 rows from the tip codes, so
  a sweep copies no row of the store, and one basis serves every
  batch. Results are bit-consistent with the per-edge oracle (same
  partials bits, same routine, row-wise reductions), which the gradient
  parity gate asserts. Successive
  sweeps on one topology (HMC's leapfrog steps) share one
  :class:`DerivativeSession`: its gradient plan, its loaded instance and
  both passes compiled, with only the branch lengths and the
  per-evaluation parameters refreshed (:meth:`DerivativeSession.sweep`).
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..beagle.instance import BeagleInstance
from ..beagle.kernels import reduce_sites
from ..beagle.setexec import batch_rows
from ..core.planner import (
    GradientPlan,
    create_instance,
    execute_gradient_plan,
    load_parameters,
    load_tips,
    make_gradient_plan,
    make_plan,
)
from ..data.patterns import PatternData
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
    """One engine instance reused across derivative evaluations.

    The legacy per-edge path allocated a fresh
    :class:`~repro.beagle.instance.BeagleInstance` (partials storage,
    matrix bank, workspace) for *every* edge of every tree — a
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

    The same session runs the one-sweep gradient (:meth:`sweep`), and
    there it also holds the :class:`~repro.core.planner.GradientPlan` of
    the last topology swept, with its canonical edges and their buffer
    indices; the instance keeps both passes compiled. A sweep recognises
    the topology by an O(n) check — the same tree, the same post-order
    nodes (by identity), each node's arity, the tip names and the mode —
    and then refreshes only the branch lengths and the per-evaluation
    parameters (frequencies, eigendecomposition, category rates and
    weights, pattern weights), which are re-read from ``model``,
    ``rates`` and ``patterns`` on every sweep. A session is not
    thread-safe: one thread uses it at a time.
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
        self._topology: Optional[_SweepTopology] = None
        #: Fresh engine instances created by this session (for tests).
        self.instances_created = 0
        #: half_tree_partials evaluations served.
        self.evaluations = 0

    def _instance_for(self, tree: Tree) -> BeagleInstance:
        """The session instance, (re)created only on a tip-count change.

        Otherwise the tips are re-bound to ``tree``'s buffers by name
        (cheap; no array allocation beyond the tip rows), which also
        retires the swept topology.
        """
        self._topology = None
        if self._instance is None or self._n_tips != tree.n_tips:
            self._instance = None  # free the old buffers before allocating
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
        load_tips(self._instance, tree, self.patterns)
        return self._instance

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

    def serves(
        self,
        model: SubstitutionModel,
        patterns: PatternData,
        rates: RateCategories,
        dtype: np.dtype,
    ) -> bool:
        """Whether this session can sweep for these inputs: the same
        model and patterns objects, dtype and rate-category count."""
        return (
            self.model is model
            and self.patterns is patterns
            and self.dtype == np.dtype(dtype)
            and self.rates.n_categories == rates.n_categories
        )

    def sweep(self, tree: Tree, mode: str = "concurrent") -> "BranchGradient":
        """Every branch's derivatives in one sweep on the session instance.

        The :func:`all_branch_derivatives` engine for this session's
        model, patterns, rates and dtype. On a topology the session has
        not just swept, the gradient plan is built and the tips re-bound
        (or the instance created); on the same topology only the branch
        lengths are refreshed, and from the second sweep on both passes
        run as compiled programs. The bits equal a sweep on a fresh
        instance.
        """
        if tree.n_tips < 3:
            raise ValueError("all-branch gradients require at least three tips")
        topology = self._topology
        if topology is not None and topology.matches(tree, mode):
            topology.refresh_lengths()
            tree.assign_indices()
            instance = self._instance
            assert instance is not None
        else:
            instance = self._instance_for(tree)
            topology = _SweepTopology(
                tree, mode, make_gradient_plan(tree, mode=mode)
            )
        load_parameters(instance, self.model, self.patterns, self.rates)
        log_likelihood = execute_gradient_plan(instance, topology.plan)
        self._topology = topology
        return _branch_gradient(
            instance, topology, log_likelihood, self.model, self.rates,
            self.patterns.weights,
        )


class _SweepTopology:
    """One swept topology: its gradient plan, the nodes whose lengths the
    plan reads, the canonical edges with their buffer indices, the O(n)
    key that recognises the topology on the next sweep, and where each
    branch's half-tree partials lie in the store.

    The branches recombine in buffer order, from runs of consecutive
    buffer indices: a run's lower partials are consecutive store rows
    (internal nodes) or tip rows (tips), and its upper partials are
    consecutive rows of the upper bank. ``order`` maps each position in
    buffer order to the branch's canonical position. Under the
    set-ordered numbering (:meth:`~repro.trees.tree.Tree.assign_indices`)
    the internal lowers and all uppers are each one run but for the
    root, which has no branch, and the merged second root child, which
    is the last internal node or a tip; so a sweep recombines from
    about three runs.
    """

    __slots__ = (
        "tree", "mode", "post", "arities", "names", "plan", "edges",
        "pulley", "pulley_row", "order", "runs", "nodes", "tip_rows", "reads",
    )

    def __init__(self, tree: Tree, mode: str, plan: GradientPlan) -> None:
        post = tree.nodes()
        self.tree = tree
        self.mode = mode
        self.post = post
        self.arities = [len(node.children) for node in post]
        self.names = [node.name for node in post if not node.children]
        self.plan = plan
        self.edges = tuple(canonical_edges(tree))
        self.pulley = tuple(tree.root.children)
        self.pulley_row = self.edges.index(self.pulley[0])
        buffers = [tree.index_of(edge) for edge in self.edges]
        self.order = np.argsort(buffers, kind="stable")
        #: Buffer indices in buffer order, and ``[start, stop)`` positions
        #: of each run of consecutive indices on one side of the tips.
        self.nodes = [buffers[i] for i in self.order]
        n_tips, starts = tree.n_tips, [0]
        for i in range(1, len(self.nodes)):
            a, b = self.nodes[i - 1], self.nodes[i]
            if b != a + 1 or b == n_tips:
                starts.append(i)
        self.runs = list(zip(starts, starts[1:] + [len(self.nodes)]))
        #: The tip batch buffer and the store rows read, made on the first
        #: recombination.
        self.tip_rows: Optional[np.ndarray] = None
        self.reads: Optional[np.ndarray] = None

    def matches(self, tree: Tree, mode: str) -> bool:
        """Whether ``tree`` still has this topology, tip names and mode."""
        post = tree.nodes()
        return (
            tree is self.tree
            and mode == self.mode
            and len(post) == len(self.post)
            and all(map(operator.is_, post, self.post))
            and [len(node.children) for node in post] == self.arities
            and [node.name for node in post if not node.children] == self.names
        )

    def refresh_lengths(self) -> None:
        """Rewrite the plan's branch lengths from the tree's nodes.

        The post-order plan's matrix updates follow the post-order
        without the root, which is ``post[:-1]``.
        """
        self.plan.post.branch_lengths[:] = [
            node.length for node in self.post[:-1]
        ]
        a, b = self.pulley
        self.plan.pulley_length = float(a.length) + float(b.length)

    def lengths(self) -> np.ndarray:
        """Unrooted lengths of the canonical edges (the first root child
        carries the merged pulley length)."""
        lengths = np.array([float(edge.length) for edge in self.edges])
        lengths[self.pulley_row] = self.plan.pulley_length
        return lengths

    def half_trees(
        self, instance: BeagleInstance, rows: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Every branch's ``(lower, upper)`` half-tree partials, in buffer
        order, as ``(k, C, P, S)`` batches of at most ``rows`` branches.

        Internal lowers and every upper are views of the instance's store,
        checked computed at once, before the first batch. A tip batch's
        lowers are equal to
        :meth:`~repro.beagle.instance.BeagleInstance.get_partials` of each
        tip: the 0/1 rows of its compact codes (all ones for the unknown
        code, the rows of :func:`~repro.beagle.kernels.dense_tip_partials`)
        gathered into one ``rows``-row buffer the topology keeps, explicit
        partials copied. The next tip batch refills that buffer, so use
        each batch before taking the next. No store row is copied.

        Raises
        ------
        ValueError
            What :meth:`~repro.beagle.instance.BeagleInstance.get_partials`
            or :meth:`~repro.beagle.instance.BeagleInstance.upper_partials`
            raises for the first branch whose buffer is not readable.
        """
        tips, upper = instance.tip_count, instance.partials_buffer_count
        if self.reads is None:
            nodes = np.array(self.nodes, dtype=np.int64)
            self.reads = np.concatenate(
                (nodes[nodes >= tips] - tips, nodes + upper)
            )
        store, valid = instance._partials, instance._partials_valid
        if not (store.shape[0] > upper and valid[self.reads].all()):
            # Replay the per-buffer getters so the error matches theirs.
            for node in self.nodes:
                instance.get_partials(node)
                instance.upper_partials(node)
        shape = (rows, instance.category_count, instance.pattern_count)
        if self.tip_rows is None or self.tip_rows.shape[:3] != shape:
            self.tip_rows = np.empty(
                shape + (instance.state_count,), dtype=instance.dtype
            )
        return self._batches(instance, rows)

    def _batches(
        self, instance: BeagleInstance, rows: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The batches :meth:`half_trees` checked, one at a time."""
        tips, upper = instance.tip_count, instance.partials_buffer_count
        store, buffer = instance._partials, self.tip_rows
        S = instance.state_count
        identity = np.eye(S + 1, S, dtype=instance.dtype)
        identity[S] = 1.0
        for start, stop in self.runs:
            first = self.nodes[start]
            for lo in range(start, stop, rows):
                a = first + lo - start
                b = a + min(rows, stop - lo)
                if first < tips:
                    lower = buffer[: b - a]
                    codes = instance._tip_codes_dense[a:b]
                    np.take(identity, codes, axis=0, out=lower[:, 0], mode="clip")
                    lower[:, 1:] = lower[:, :1]
                    for tip in range(a, b):
                        if tip in instance._tip_partials:
                            lower[tip - a] = instance._tip_partials[tip]
                else:
                    lower = store[a - tips : b - tips]
                yield lower, store[upper + a : upper + b]


class _EigenBasis:
    """The eigen-space factors of the recombination for ``n`` branch lengths.

    With ``P(t) = E · diag(e^{λt}) · E⁻¹``, a pattern's likelihood and
    both derivatives in a category of rate ``r`` are one contraction in
    eigen space: the projection ``ab = (U_c @ (π ∘ E)) ∘ (V_c @ E⁻ᵀ)``
    times the basis ``[e^{rλt}, rλ·e^{rλt}, (rλ)²·e^{rλt}]``. The
    likelihood column splits ``e^{rλt}`` into ``1 + expm1(rλt)`` and
    takes the ``1`` term, ``Σ_s ab_s``, as the equal ``Σ_a π_a U_a V_a``,
    which does not cancel when the two halves favour different states
    across a short branch. So ``left`` and ``right`` are the ``(S, 2S)``
    projections onto ``ab`` beside ``π ∘ U ∘ V``, ``columns[c]`` is
    category ``c``'s ``(n, 2S, 3)`` basis over the ``n`` lengths, and
    ``category_weights`` are the rates' weights. A sweep builds one for
    all its branches; every element is computed on its own, so a
    branch's basis has the same bits in a basis of one.
    """

    __slots__ = ("left", "right", "columns", "category_weights")

    def __init__(
        self, t: np.ndarray, model: SubstitutionModel, rates: RateCategories
    ) -> None:
        if np.any(t < 0):
            raise ValueError("branch lengths must be non-negative")
        eigen = model.eigen
        pi = model.frequencies
        S = eigen.n_states
        self.left = np.concatenate((pi[:, None] * eigen.vectors, np.diag(pi)), axis=1)
        self.right = np.concatenate((eigen.inverse_vectors.T, np.eye(S)), axis=1)
        self.category_weights = rates.probabilities
        self.columns = np.zeros((len(rates.rates), len(t), 2 * S, 3))
        self.columns[:, :, S:, 0] = 1.0
        for basis, rate in zip(self.columns, rates.rates):
            rl = rate * eigen.values
            rlt = np.outer(t, rl)
            decay = np.exp(rlt)
            basis[:, :S, 0] = np.expm1(rlt)
            basis[:, :S, 1] = rl * decay
            basis[:, :S, 2] = rl * rl * decay


def _recombine_edges(
    U: np.ndarray,
    V: np.ndarray,
    basis: _EigenBasis,
    start: int,
    weights: np.ndarray,
) -> np.ndarray:
    """``(logL, d/dt, d²/dt²)`` of ``k`` branches from their half-tree partials.

    ``U`` and ``V`` are ``(k, C, P, S)`` stacks; the branches' lengths
    are rows ``start`` to ``start + k`` of ``basis``. Each category is
    two projections onto ``2S`` columns and one stacked matmul with the
    category's ``(k, 2S, 3)`` basis rows, added into ``(k, P, 3)`` site
    triples with the category weight; no transition matrix or derivative
    is formed. The ``logL``, ratio and curvature rows are then reduced
    in three stacked :func:`reduce_sites` calls, which give each row the
    bits it has alone, so a branch's bits do not depend on the batch it
    rides in. Returns the ``(k, 3)`` triples. The one recombination of
    both the per-edge oracle (a batch of one) and the sweep.
    """
    k = len(U)
    site = np.zeros((k, U.shape[2], 3))
    for c, cat_weight in enumerate(basis.category_weights):
        ab = (U[:, c] @ basis.left) * (V[:, c] @ basis.right)
        site += cat_weight * (ab @ basis.columns[c, start : start + k])

    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(site[:, :, 0])
        ratio1 = site[:, :, 1] / site[:, :, 0]
        ratio2 = site[:, :, 2] / site[:, :, 0]
    curvature = ratio2 - ratio1**2
    return np.stack(
        (
            reduce_sites(weights, logs),
            reduce_sites(weights, ratio1),
            reduce_sites(weights, curvature),
        ),
        axis=1,
    )


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
    basis = _EigenBasis(np.array([t]), model, rates)
    triple = _recombine_edges(U[None], V[None], basis, 0, patterns.weights)
    return EdgeDerivatives(*triple[0].tolist())


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
    return [node for node in tree.edges() if node is not skip]


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


class _IdleSession:
    """The one idle sweep session, checked out while a call uses it.

    :meth:`take` empties the slot, so two threads never share a session
    (or its instance); :meth:`put` replaces whatever is there, so at most
    one idle session stays alive and a replaced one is freed by refcount.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._session: Optional[DerivativeSession] = None

    def take(self) -> Optional[DerivativeSession]:
        with self._lock:
            session, self._session = self._session, None
        return session

    def put(self, session: DerivativeSession) -> None:
        with self._lock:
            self._session = session


_idle = _IdleSession()


def release_gradient_session() -> None:
    """Free the session :func:`all_branch_derivatives` keeps between calls.

    Its instance (lower and upper partials banks) and the last tree,
    model and patterns it swept are released by refcount; the next call
    builds a fresh session. A caller that has finished sweeping can call
    this to return the memory at once.
    :func:`~repro.inference.mcmc.run_hmc` and
    :func:`~repro.inference.optimize.gradient_optimize_branch_lengths`
    hold their own :class:`DerivativeSession` and never fill the slot.
    """
    _idle.take()


def _branch_gradient(
    instance: BeagleInstance,
    topology: _SweepTopology,
    log_likelihood: float,
    model: SubstitutionModel,
    rates: RateCategories,
    weights: np.ndarray,
) -> "BranchGradient":
    """Recombine every canonical edge of a finished sweep from views of
    the store, :func:`~repro.beagle.setexec.batch_rows` branches at a
    time, in buffer order, each batch slicing one basis of all the
    sweep's lengths, then put the results in canonical order."""
    basis = _EigenBasis(topology.lengths()[topology.order], model, rates)
    triples = np.empty((len(topology.order), 3))
    k = 0
    for lower, upper in topology.half_trees(instance, batch_rows(instance)):
        triples[k : k + len(lower)] = _recombine_edges(
            lower, upper, basis, k, weights
        )
        k += len(lower)
    derivatives = [
        EdgeDerivatives(*triple)
        for triple in triples[np.argsort(topology.order)].tolist()
    ]
    obs = get_recorder()
    if obs.enabled:
        obs.count("repro_gradient_edges_total", len(derivatives))
    return BranchGradient(
        tree=topology.tree,
        log_likelihood=log_likelihood,
        edges=topology.edges,
        derivatives=tuple(derivatives),
    )


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
    canonical branches recombine in batches of
    :func:`~repro.beagle.setexec.batch_rows` branches, each over views of
    runs of store rows (no copy).
    Bit-consistent with
    :func:`edge_log_likelihood_derivatives` run per edge at the same
    dtype: both paths feed identical half-tree partials bits to the same
    recombination routine, whose basis and reductions give each branch
    the bits it has in a batch of one.

    Successive calls share one idle :class:`DerivativeSession`
    (:meth:`DerivativeSession.sweep`): a call on the topology, model and
    patterns objects, dtype and rate-category count of the previous one
    reuses its gradient plan, instance and compiled passes, so a
    trajectory of sweeps on a fixed topology pays for the plan and the
    instance once. The bits are those of a sweep on a fresh instance.
    The idle session lives until a call replaces it or
    :func:`release_gradient_session` frees it. A caller that owns its
    loop can hold a :class:`DerivativeSession` and call
    :meth:`DerivativeSession.sweep` instead, as ``run_hmc`` does.

    Parameters
    ----------
    instance:
        Run the sweep on this engine instance (it must have been created
        for this tree/model/data shape) with a fresh plan; the shared
        session is not used.
    verify:
        Statically verify a fresh gradient plan
        (:func:`repro.analysis.verify_gradient_plan`) before executing; the
        shared session is not used.
    """
    if tree.n_tips < 3:
        raise ValueError("all-branch gradients require at least three tips")
    rates = rates or single_rate()
    if instance is not None or verify:
        tree.assign_indices()
        topology = _SweepTopology(
            tree, mode, make_gradient_plan(tree, mode=mode, verify=verify)
        )
        if instance is None:
            instance = create_instance(
                tree, model, patterns, rates=rates, dtype=dtype
            )
        log_likelihood = execute_gradient_plan(instance, topology.plan)
        return _branch_gradient(
            instance, topology, log_likelihood, model, rates, patterns.weights
        )
    session = _idle.take()
    if session is None or not session.serves(model, patterns, rates, dtype):
        session = DerivativeSession(model, patterns, rates, dtype=dtype)
    session.rates = rates
    result = session.sweep(tree, mode)
    _idle.put(session)
    return result
