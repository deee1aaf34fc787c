"""Branch-length optimisation: Brent sweeps, per-branch Newton, and
full-gradient methods.

Maximum-likelihood branch lengths are fitted either one edge at a time
(coordinate-wise Brent or rerooted per-branch Newton — the
GARLI/PhyML-style inner loops whose cost profile motivates the paper,
§II-A: >94% of run time in the likelihood function), or *all at once*
with the one-sweep gradient engine
(:func:`repro.inference.derivatives.all_branch_derivatives`):

* :func:`gradient_optimize_branch_lengths` with ``method="newton"`` —
  simultaneous damped Newton steps on every branch from one (gradient,
  curvature) sweep, with backtracking on the full step vector;
* ``method="lbfgs"`` — L-BFGS-B over log branch lengths with the exact
  analytic gradient (chain rule ``d/dq = t · d/dt``), one sweep per
  objective evaluation.

One gradient sweep costs ``3n − 5`` partial updates versus
``(2n−3)(n−1)`` for a per-edge derivative pass, so the full-gradient
methods turn the optimiser's inner loop from quadratic to linear in the
taxon count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .likelihood import TreeLikelihood

__all__ = [
    "BranchOptimizationResult",
    "GradientOptimizationResult",
    "optimize_branch_lengths",
    "newton_optimize_branch_lengths",
    "gradient_optimize_branch_lengths",
]


@dataclass(frozen=True)
class BranchOptimizationResult:
    """Outcome of a branch-length optimisation run."""

    tree: "object"
    log_likelihood: float
    initial_log_likelihood: float
    sweeps: int
    evaluations: int

    @property
    def improvement(self) -> float:
        return self.log_likelihood - self.initial_log_likelihood


def optimize_branch_lengths(
    evaluator: TreeLikelihood,
    *,
    max_sweeps: int = 5,
    tolerance: float = 1e-4,
    max_length: float = 20.0,
    min_length: float = 1e-9,
) -> BranchOptimizationResult:
    """Fit branch lengths by repeated one-dimensional Brent searches.

    Parameters
    ----------
    evaluator:
        A :class:`TreeLikelihood`; its tree is copied, never mutated.
    max_sweeps:
        Maximum passes over all edges.
    tolerance:
        Stop when a full sweep improves the log-likelihood by less.

    Returns
    -------
    BranchOptimizationResult
        Optimised tree copy, final and initial log-likelihoods, and the
        number of likelihood evaluations spent (the paper's currency).
    """
    tree = evaluator.tree.copy()
    working = evaluator.with_tree(tree)
    evaluations = 0

    def loglik() -> float:
        nonlocal evaluations
        evaluations += 1
        return working.log_likelihood()

    initial = current = loglik()

    sweeps = 0
    for sweep in range(max_sweeps):
        sweeps = sweep + 1
        before = current
        for edge in tree.edges():
            original = edge.length

            def negative(t: float, edge=edge) -> float:
                edge.length = float(t)
                working.invalidate()
                return -loglik()

            result = minimize_scalar(
                negative,
                bounds=(min_length, max_length),
                method="bounded",
                options={"xatol": 1e-6},
            )
            best_t = float(result.x)
            if -result.fun > current:
                edge.length = best_t
                current = -float(result.fun)
            else:  # keep the original length when no improvement
                edge.length = original
            working.invalidate()
        if current - before < tolerance:
            break

    working.invalidate()
    final = working.log_likelihood()
    return BranchOptimizationResult(
        tree=tree,
        log_likelihood=final,
        initial_log_likelihood=initial,
        sweeps=sweeps,
        evaluations=evaluations,
    )


@dataclass(frozen=True)
class GradientOptimizationResult:
    """Outcome of a full-gradient branch-length optimisation run.

    ``gradient_sweeps`` counts one-sweep all-branch gradient evaluations
    (each ``3n − 5`` partial updates); ``evaluations`` counts plain
    log-likelihood evaluations spent on backtracking/verification.
    """

    tree: "object"
    log_likelihood: float
    initial_log_likelihood: float
    method: str
    iterations: int
    gradient_sweeps: int
    evaluations: int
    converged: bool

    @property
    def improvement(self) -> float:
        """Log-likelihood gained over the starting tree."""
        return self.log_likelihood - self.initial_log_likelihood


def _set_canonical_lengths(tree, edges, lengths, skip) -> None:
    """Write a canonical-length vector back onto the tree.

    The merged pulley edge's whole length is parked on the first root
    child (the second root child — ``skip`` — is pinned at 0), matching
    :func:`newton_optimize_branch_lengths`'s convention.
    """
    for edge, t in zip(edges, lengths):
        edge.length = float(t)
    if skip is not None:
        skip.length = 0.0
    tree.invalidate_indices()


def gradient_optimize_branch_lengths(
    evaluator: TreeLikelihood,
    *,
    method: str = "newton",
    max_iterations: int = 50,
    gradient_tolerance: float = 1e-3,
    min_length: float = 1e-8,
    max_length: float = 20.0,
) -> GradientOptimizationResult:
    """Fit **all** branch lengths from one-sweep analytic gradients.

    Parameters
    ----------
    evaluator:
        A :class:`TreeLikelihood`; its tree is copied, never mutated.
    method:
        ``"newton"`` — simultaneous damped Newton steps (per-branch
        ``−d1/d2`` where the curvature is negative, gradient-sign steps
        elsewhere) with backtracking halving of the whole step vector;
        ``"lbfgs"`` — L-BFGS-B over log branch lengths with the exact
        chain-rule gradient.
    gradient_tolerance:
        Converged when ``max |dlogL/dt|`` falls below this.

    Returns
    -------
    GradientOptimizationResult
        Optimised tree copy plus iteration/sweep accounting. The
        returned tree carries the merged pulley length on the first root
        child (second root child pinned to 0) — the same unrooted tree,
        in the canonical parking used by the per-branch Newton optimiser.
    """
    from .derivatives import DerivativeSession, canonical_edges

    if method not in ("newton", "lbfgs"):
        raise ValueError(f"unknown method {method!r}")
    tree = evaluator.tree.copy()
    working = evaluator.with_tree(tree)
    model, patterns, rates = working.model, working.patterns, working.rates

    initial = working.log_likelihood()
    evaluations = 1
    gradient_sweeps = 0

    root = tree.root
    skip = root.children[1] if len(root.children) == 2 else None
    edges = canonical_edges(tree)

    # One session for the whole optimisation, freed when it returns.
    session = DerivativeSession(model, patterns, rates)

    def sweep():
        nonlocal gradient_sweeps
        gradient_sweeps += 1
        return session.sweep(tree)

    if method == "newton":
        converged = False
        iterations = 0
        bg = sweep()
        current = bg.log_likelihood
        lengths = bg.branch_lengths()
        # Canonicalise immediately: merged length on the first root child.
        _set_canonical_lengths(tree, edges, lengths, skip)
        for iteration in range(max_iterations):
            iterations = iteration + 1
            d1 = bg.gradient()
            d2 = bg.second_derivatives()
            if np.max(np.abs(d1)) < gradient_tolerance:
                converged = True
                break
            concave = d2 < 0
            step = np.where(
                concave,
                -d1 / np.where(concave, d2, -1.0),
                0.5 * np.sign(d1) * np.maximum(lengths, 1e-3),
            )
            proposed = np.clip(lengths + step, min_length, max_length)
            # Backtrack on the whole step vector until logL improves.
            accepted = False
            for _ in range(8):
                _set_canonical_lengths(tree, edges, proposed, skip)
                working.invalidate()
                candidate = working.log_likelihood()
                evaluations += 1
                if candidate >= current:
                    accepted = True
                    break
                proposed = lengths + 0.5 * (proposed - lengths)
            if not accepted:
                _set_canonical_lengths(tree, edges, lengths, skip)
                working.invalidate()
                converged = True  # no improving step in the trust region
                break
            lengths = proposed
            current = candidate
            bg = sweep()
    else:  # lbfgs
        x0 = np.log(
            np.clip(
                np.array(
                    [
                        float(e.length)
                        + (float(skip.length) if e.parent is root and skip is not None else 0.0)
                        for e in edges
                    ]
                ),
                min_length,
                max_length,
            )
        )

        def objective(q):
            lengths = np.clip(np.exp(q), min_length, max_length)
            _set_canonical_lengths(tree, edges, lengths, skip)
            bg = sweep()
            # d logL / d q_i = t_i · d logL / d t_i  (chain rule).
            return -bg.log_likelihood, -(bg.gradient() * lengths)

        result = minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=[(np.log(min_length), np.log(max_length))] * len(edges),
            options={
                "maxiter": max_iterations,
                "gtol": gradient_tolerance,
            },
        )
        lengths = np.clip(np.exp(result.x), min_length, max_length)
        _set_canonical_lengths(tree, edges, lengths, skip)
        iterations = int(result.nit)
        converged = bool(result.success)

    working.invalidate()
    final = working.log_likelihood()
    evaluations += 1
    return GradientOptimizationResult(
        tree=tree,
        log_likelihood=final,
        initial_log_likelihood=initial,
        method=method,
        iterations=iterations,
        gradient_sweeps=gradient_sweeps,
        evaluations=evaluations,
        converged=converged,
    )


def newton_optimize_branch_lengths(
    evaluator: TreeLikelihood,
    *,
    max_sweeps: int = 5,
    tolerance: float = 1e-4,
    max_length: float = 20.0,
    min_length: float = 1e-8,
    newton_steps: int = 8,
) -> BranchOptimizationResult:
    """Fit branch lengths by per-branch Newton–Raphson iterations.

    Uses the analytic first and second log-likelihood derivatives of
    :func:`repro.inference.derivatives.edge_log_likelihood_derivatives`
    (enabled by rerooting the evaluation onto each focal branch), giving
    quadratic convergence: typically a handful of derivative evaluations
    per branch versus Brent's dozens of function evaluations.

    Steps that leave the concave region (non-negative second derivative)
    or overshoot the bounds fall back to safeguarded bisection toward the
    gradient direction.
    """
    from .derivatives import edge_log_likelihood_derivatives

    tree = evaluator.tree.copy()
    working = evaluator.with_tree(tree)
    evaluations = 0

    initial = working.log_likelihood()
    evaluations += 1
    current = initial

    sweeps = 0
    root = tree.root
    # The two root children share one unrooted branch: optimise it once
    # (via the first child) and park its whole length on that child.
    skip = root.children[1] if len(root.children) == 2 else None
    for sweep in range(max_sweeps):
        sweeps = sweep + 1
        before = current
        for edge in tree.edges():
            if edge is skip:
                continue
            if edge.parent is root and skip is not None:
                t = max(edge.length + skip.length, min_length)
            else:
                t = max(edge.length, min_length)
            best_t, best_ll = t, None
            for _ in range(newton_steps):
                d = edge_log_likelihood_derivatives(
                    tree, working.model, working.patterns, edge,
                    rates=working.rates, at_length=t,
                )
                evaluations += 1
                if best_ll is None or d.log_likelihood > best_ll:
                    best_ll, best_t = d.log_likelihood, t
                if abs(d.first) < 1e-9:
                    break
                if d.second < 0:
                    step = -d.first / d.second
                else:  # non-concave: move along the gradient, damped
                    step = 0.5 * (1.0 if d.first > 0 else -1.0) * max(t, 1e-3)
                new_t = min(max(t + step, min_length), max_length)
                if abs(new_t - t) < 1e-9:
                    t = new_t
                    break
                t = new_t
            # Keep the best point actually visited — an unconverged Newton
            # meander must never leave the branch worse than it started.
            edge.length = best_t
            if edge.parent is root and skip is not None:
                skip.length = 0.0
            working.invalidate()
        current = working.log_likelihood()
        evaluations += 1
        if current - before < tolerance:
            break

    working.invalidate()
    final = working.log_likelihood()
    return BranchOptimizationResult(
        tree=tree,
        log_likelihood=final,
        initial_log_likelihood=initial,
        sweeps=sweeps,
        evaluations=evaluations,
    )
