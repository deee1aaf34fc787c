"""A compact Metropolis sampler over trees (MrBayes-lite).

The paper's §VIII argues its kernel-level gains translate to application
run time because phylogenetic MCMC spends >0.9 of its time in the
partials function. This module provides the application: a working
Metropolis sampler over topology (NNI) and branch lengths (multiplier)
with an exponential branch-length prior. It instruments exactly what the
paper cares about — total kernel launches and modelled device time — so
the application-level benchmark can compare serial evaluation, concurrent
evaluation, and concurrent evaluation with a rerooted starting tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from ..core.reroot_opt import optimal_reroot_fast
from ..exec.checkpoint import NEWICK_PRECISION, MCMCCheckpoint
from ..gpu.device import DeviceSpec, GP100
from ..obs import get_recorder

from ..trees import Tree
from ..trees.newick import parse_newick, write_newick
from .likelihood import TreeLikelihood
from .proposals import (
    branch_length_move,
    multiply_branch,
    nni_move,
    random_nni,
    random_spr,
)

__all__ = ["MCMCResult", "run_mcmc", "HMCResult", "leapfrog", "run_hmc"]


@dataclass
class MCMCResult:
    """Trace and accounting of one MCMC run.

    Attributes
    ----------
    log_likelihoods:
        Post-burn-in log-likelihood trace (one entry per iteration).
    best_tree, best_log_likelihood:
        The maximum-likelihood state visited.
    accepted, proposed:
        Move acceptance accounting.
    kernel_launches:
        Total likelihood-kernel launches issued across the run — the
        quantity rerooting reduces.
    device_seconds:
        Modelled GPU time for all launches under the configured device.
    rerootings:
        How many periodic concurrency rerootings were applied
        (``reroot_every`` option — the paper's §VIII "further balanced
        rerootings later in the search" future work).
    resumed_at:
        Iteration the run was resumed from (0 for a fresh run).
    checkpoints_written:
        Checkpoints saved during this run.
    operations:
        Total partial-likelihood operations executed across the run —
        the quantity incremental (dirty-path) evaluation reduces. Not
        checkpointed: a resumed run counts only its own operations.
    """

    log_likelihoods: List[float]
    best_tree: Tree
    best_log_likelihood: float
    accepted: int
    proposed: int
    kernel_launches: int
    device_seconds: float
    rerootings: int = 0
    resumed_at: int = 0
    checkpoints_written: int = 0
    operations: int = 0

    @property
    def acceptance_rate(self) -> float:
        """Fraction of proposals accepted."""
        return self.accepted / self.proposed if self.proposed else 0.0


def _log_prior(tree: Tree, rate: float) -> float:
    """Independent exponential(rate) prior over branch lengths."""
    total = 0.0
    for edge in tree.edges():
        total += math.log(rate) - rate * edge.length
    return total


def run_mcmc(
    evaluator: TreeLikelihood,
    iterations: int,
    *,
    seed: int = 0,
    nni_probability: float = 0.3,
    spr_probability: float = 0.0,
    prior_rate: float = 10.0,
    device: Optional[DeviceSpec] = GP100,
    reroot_every: int = 0,
    checkpoint_every: int = 0,
    checkpoint_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    incremental: bool = False,
    shards: int = 0,
    shard_pool=None,
) -> MCMCResult:
    """Metropolis sampling from the posterior over trees.

    Parameters
    ----------
    evaluator:
        Likelihood evaluator defining model, data, scheduling mode and
        starting tree. The evaluator's ``mode`` (serial/concurrent) and
        any prior rerooting directly set the launch economics measured in
        the result.
    iterations:
        Number of proposals.
    nni_probability:
        Probability of a local topology (NNI) move.
    spr_probability:
        Probability of a subtree prune-and-regraft move (larger topology
        steps); the remainder of the probability mass goes to branch
        multiplier moves.
    prior_rate:
        Rate of the exponential branch-length prior.
    device:
        Device model used to convert launch counts into modelled seconds;
        ``None`` skips the conversion.
    reroot_every:
        When > 0, apply a concurrency-optimal rerooting to the current
        tree every this many iterations (paper §VIII factor 3: topology
        drift can unbalance the working rooting; periodic rerooting
        restores the launch economics at negligible host cost). The
        likelihood is invariant under rerooting, so the sampled
        distribution is untouched.
    checkpoint_every:
        When > 0, write an :class:`~repro.exec.checkpoint.MCMCCheckpoint`
        to ``checkpoint_path`` every this many iterations (and once at
        completion): tree, RNG state, trace and accounting — everything
        a bit-identical resume needs.
    checkpoint_path:
        Destination of the checkpoint file (JSON, written atomically).
    resume:
        Continue from the checkpoint at ``checkpoint_path`` if one
        exists (fresh start otherwise). The stored run parameters must
        match this call's, or :class:`~repro.exec.checkpoint.CheckpointError`
        is raised; the resumed chain reproduces the uninterrupted chain
        exactly, draw for draw.
    incremental:
        Evaluate proposals along their dirty path only
        (:meth:`TreeLikelihood.propose` / ``accept`` / ``reject``)
        instead of rebuilding an evaluator and re-traversing the whole
        tree each iteration. Moves mutate the working tree in place and
        consume the same RNG draws as the full-traversal path, so both
        modes walk bit-identical chains. Requires
        ``spr_probability == 0`` (SPR dirty paths are not implemented)
        and an evaluator without scaling/faults/resilience.
    shards:
        When > 0, wrap the evaluator via its ``sharded(...)`` adapter
        (see :meth:`TreeLikelihood.sharded`): every likelihood
        evaluation partitions its site patterns into this many shards,
        fans them out through a :class:`~repro.exec.pool.LikelihoodPool`
        and reduces the spliced site logs the engine's way. The chain is
        bit-identical to the unsharded run and across shard counts, pool
        sizes, completion orders, faults and resume. ``shards`` is not
        part of the checkpoint config, so a run may be checkpointed and
        resumed under a different shard count without a config
        mismatch. Incompatible with ``incremental``.
    shard_pool:
        Optional pool for the sharded evaluations (a private two-worker
        inline pool otherwise).
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if nni_probability + spr_probability > 1.0:
        raise ValueError("move probabilities exceed 1")
    if incremental and spr_probability > 0:
        raise ValueError(
            "incremental evaluation does not support SPR proposals"
        )
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be non-negative")
    if shards < 0:
        raise ValueError("shards must be non-negative")
    if shards > 0:
        if incremental:
            raise ValueError(
                "sharded evaluation re-evaluates whole shards; it does "
                "not compose with incremental dirty-path proposals"
            )
        if not hasattr(evaluator, "sharded"):
            raise ValueError(
                f"evaluator {type(evaluator).__name__} has no "
                "sharded(...) adapter"
            )
        evaluator = evaluator.sharded(n_shards=shards, pool=shard_pool)
    if (checkpoint_every > 0 or resume) and checkpoint_path is None:
        raise ValueError("checkpointing requires a checkpoint_path")
    config = {
        "nni_probability": nni_probability,
        "spr_probability": spr_probability,
        "prior_rate": prior_rate,
        "reroot_every": reroot_every,
        "incremental": incremental,
    }

    def modelled(ev) -> float:
        return ev.modelled_seconds(device) if device else 0.0

    def modelled_incremental(ev) -> float:
        return ev.modelled_incremental_seconds(device) if device else 0.0

    checkpoint = None
    if resume and Path(checkpoint_path).exists():
        checkpoint = MCMCCheckpoint.load(checkpoint_path)
        checkpoint.check_matches(iterations=iterations, seed=seed, config=config)

    if checkpoint is not None:
        rng = checkpoint.restore_rng()
        current = evaluator.with_tree(parse_newick(checkpoint.current_newick))
        current_ll = checkpoint.current_log_likelihood
        current_prior = checkpoint.current_log_prior
        launches = checkpoint.kernel_launches
        device_seconds = checkpoint.device_seconds
        best_tree = parse_newick(checkpoint.best_newick)
        best_ll = checkpoint.best_log_likelihood
        trace = list(checkpoint.trace)
        accepted = checkpoint.accepted
        proposed = checkpoint.proposed
        rerootings = checkpoint.rerootings
        start_iteration = checkpoint.iteration
    else:
        rng = np.random.default_rng(seed)
        current = evaluator
        current_ll = current.log_likelihood()
        current_prior = _log_prior(current.tree, prior_rate)
        launches = current.n_launches
        device_seconds = modelled(current)
        best_tree = current.tree.copy()
        best_ll = current_ll
        trace = []
        accepted = 0
        proposed = 0
        rerootings = 0
        start_iteration = 0
    resumed_at = start_iteration
    checkpoints_written = 0
    operations = 0 if checkpoint is not None else current.plan.n_operations

    def write_checkpoint(completed: int) -> None:
        MCMCCheckpoint(
            iteration=completed,
            iterations=iterations,
            seed=seed,
            rng_state=rng.bit_generator.state,
            current_newick=write_newick(
                current.tree, precision=NEWICK_PRECISION
            ),
            current_log_likelihood=current_ll,
            current_log_prior=current_prior,
            best_newick=write_newick(best_tree, precision=NEWICK_PRECISION),
            best_log_likelihood=best_ll,
            trace=list(trace),
            accepted=accepted,
            proposed=proposed,
            rerootings=rerootings,
            kernel_launches=launches,
            device_seconds=device_seconds,
            config=dict(config),
        ).save(checkpoint_path)

    obs = get_recorder()
    for iteration in range(start_iteration, iterations):
        if reroot_every > 0 and iteration > 0 and iteration % reroot_every == 0:
            rerooted = optimal_reroot_fast(current.tree)
            if rerooted.improvement > 0:
                current = current.with_tree(rerooted.tree)
                rerootings += 1
        with obs.span("mcmc.step", category="mcmc", iteration=iteration) as span:
            if incremental:
                draw = rng.random()
                move = None
                if draw < nni_probability:
                    move = nni_move(current.tree, rng)
                if move is None:  # tiny tree: fall back, same as full path
                    move = branch_length_move(current.tree, rng)
                proposed += 1

                candidate_ll = current.propose(move)
                inc_plan = current.last_incremental_plan
                if inc_plan is None:  # cold evaluator: one full traversal
                    launches += current.n_launches
                    operations += current.plan.n_operations
                    device_seconds += modelled(current)
                else:
                    launches += inc_plan.n_launches
                    operations += inc_plan.n_operations
                    device_seconds += modelled_incremental(current)
                candidate_prior = _log_prior(current.tree, prior_rate)

                log_ratio = (
                    candidate_ll
                    - current_ll
                    + candidate_prior
                    - current_prior
                    + move.log_hastings
                )
                took = math.log(rng.random() + 1e-300) < log_ratio
                if took:
                    current.accept()
                    current_ll = candidate_ll
                    current_prior = candidate_prior
                    accepted += 1
                    if current_ll > best_ll:
                        best_ll = current_ll
                        best_tree = current.tree.copy()
                else:
                    current.reject()
            else:
                draw = rng.random()
                proposal = None
                if draw < nni_probability:
                    proposal = random_nni(current.tree, rng)
                elif draw < nni_probability + spr_probability:
                    proposal = random_spr(current.tree, rng)
                if proposal is None:  # tiny tree or degenerate SPR: fall back
                    proposal = multiply_branch(current.tree, rng)
                proposed += 1

                candidate = current.with_tree(proposal.tree)
                candidate_ll = candidate.log_likelihood()
                launches += candidate.n_launches
                operations += candidate.plan.n_operations
                device_seconds += modelled(candidate)
                candidate_prior = _log_prior(proposal.tree, prior_rate)

                log_ratio = (
                    candidate_ll
                    - current_ll
                    + candidate_prior
                    - current_prior
                    + proposal.log_hastings
                )
                took = math.log(rng.random() + 1e-300) < log_ratio
                if took:
                    current = candidate
                    current_ll = candidate_ll
                    current_prior = candidate_prior
                    accepted += 1
                    if current_ll > best_ll:
                        best_ll = current_ll
                        best_tree = current.tree.copy()
            if obs.enabled:
                span.set_attribute("accepted", took)
                obs.count("repro_mcmc_steps_total")
                if took:
                    obs.count("repro_mcmc_accepts_total")
        trace.append(current_ll)
        if checkpoint_every > 0 and (iteration + 1) % checkpoint_every == 0:
            write_checkpoint(iteration + 1)
            checkpoints_written += 1

    if checkpoint_every > 0 and iterations % checkpoint_every != 0:
        # Final state, so a finished run can also be reloaded.
        write_checkpoint(iterations)
        checkpoints_written += 1

    return MCMCResult(
        log_likelihoods=trace,
        best_tree=best_tree,
        best_log_likelihood=best_ll,
        accepted=accepted,
        proposed=proposed,
        kernel_launches=launches,
        device_seconds=device_seconds,
        rerootings=rerootings,
        resumed_at=resumed_at,
        checkpoints_written=checkpoints_written,
        operations=operations,
    )


@dataclass
class HMCResult:
    """Trace and accounting of one Hamiltonian Monte Carlo run.

    Attributes
    ----------
    log_likelihoods:
        Log-likelihood of the current state after each trajectory.
    samples:
        Unrooted canonical branch-length vectors (one per trajectory,
        current state — order of
        :func:`repro.inference.derivatives.canonical_edges`).
    tree:
        The working tree at the final state (merged pulley length parked
        on the first root child).
    best_tree, best_log_likelihood:
        The maximum-likelihood state visited.
    accepted, proposed:
        Trajectory acceptance accounting.
    gradient_sweeps:
        One-sweep all-branch gradient evaluations spent — the quantity
        the pre-order engine makes linear instead of quadratic.
    energy_errors:
        ``|ΔH|`` of each trajectory (exactly zero for a perfect
        integrator; small and step-size² for leapfrog) — the
        energy-conservation diagnostic the smoke tests assert on.
    """

    log_likelihoods: List[float]
    samples: List[np.ndarray]
    tree: Tree
    best_tree: Tree
    best_log_likelihood: float
    accepted: int
    proposed: int
    gradient_sweeps: int
    energy_errors: List[float]

    @property
    def acceptance_rate(self) -> float:
        """Fraction of trajectories accepted."""
        return self.accepted / self.proposed if self.proposed else 0.0


def leapfrog(q, p, grad_U, step_size: float, n_steps: int):
    """Leapfrog integration of Hamiltonian dynamics.

    Standard kick–drift–kick: a half-step momentum update, ``n_steps``
    full position steps with interleaved momentum kicks, and a final
    half-step. Volume-preserving and time-reversible: running the
    returned state backwards with negated momentum recovers the start to
    floating-point round-off (asserted by the reversibility smoke test).

    Parameters
    ----------
    q, p:
        Position and momentum vectors (not modified).
    grad_U:
        Callable returning ``∇U(q)`` (the *potential* gradient, i.e.
        minus the log-posterior gradient).

    Returns
    -------
    (q, p):
        The trajectory endpoint.
    """
    if n_steps < 1:
        raise ValueError("need at least one leapfrog step")
    q = np.array(q, dtype=float, copy=True)
    p = np.array(p, dtype=float, copy=True)
    p -= 0.5 * step_size * grad_U(q)
    for step in range(n_steps):
        q += step_size * p
        if step < n_steps - 1:
            p -= step_size * grad_U(q)
    p -= 0.5 * step_size * grad_U(q)
    return q, p


def run_hmc(
    evaluator: TreeLikelihood,
    iterations: int,
    *,
    seed: int = 0,
    step_size: float = 0.01,
    n_leapfrog: int = 10,
    prior_rate: float = 10.0,
    min_length: float = 1e-8,
    max_length: float = 20.0,
) -> HMCResult:
    """Hamiltonian Monte Carlo over branch lengths (fixed topology).

    The state is ``q = log t`` over the ``2n − 3`` canonical unrooted
    branch lengths; the target is the posterior with the same independent
    exponential(``prior_rate``) prior as :func:`run_mcmc` (plus the
    log-transform Jacobian). Each trajectory needs the *full* gradient at
    every leapfrog step — exactly the workload the one-sweep
    :func:`~repro.inference.derivatives.all_branch_derivatives` engine
    makes linear: one post-order + pre-order sweep per step instead of
    ``2n − 3`` rerooted evaluations.

    The analytic gradient of the log posterior in ``q`` is
    ``t_i · (dlogL/dt_i − prior_rate) + 1``.

    Parameters
    ----------
    evaluator:
        Likelihood evaluator defining model, data and starting tree; its
        tree is copied, never mutated. Topology is fixed throughout.
    iterations:
        Number of Hamiltonian trajectories (each ``n_leapfrog`` gradient
        sweeps).
    step_size, n_leapfrog:
        Leapfrog discretisation. ``|ΔH|`` in the result's
        ``energy_errors`` is the tuning diagnostic.
    """
    from .derivatives import DerivativeSession, canonical_edges

    if iterations < 1:
        raise ValueError("need at least one iteration")
    tree = evaluator.tree.copy()
    if tree.n_tips < 3:
        raise ValueError("HMC over branch lengths requires at least three tips")
    working = evaluator.with_tree(tree)
    model, patterns, rates = working.model, working.patterns, working.rates
    # One session for the whole run: the plan and instance are built on
    # the first sweep and freed when the run returns.
    session = DerivativeSession(model, patterns, rates)
    rng = np.random.default_rng(seed)

    root = tree.root
    skip = root.children[1] if len(root.children) == 2 else None
    edges = canonical_edges(tree)
    lo, hi = math.log(min_length), math.log(max_length)
    gradient_sweeps = 0

    def set_lengths(q: np.ndarray) -> np.ndarray:
        lengths = np.exp(np.clip(q, lo, hi))
        for edge, t in zip(edges, lengths):
            edge.length = float(t)
        if skip is not None:
            skip.length = 0.0
        tree.invalidate_indices()
        return lengths

    def potential_and_grad(q: np.ndarray):
        """``U(q) = −log posterior`` and ``∇U`` from one gradient sweep."""
        nonlocal gradient_sweeps
        lengths = set_lengths(q)
        bg = session.sweep(tree)
        gradient_sweeps += 1
        log_prior = float(
            np.sum(np.log(prior_rate) - prior_rate * lengths + np.clip(q, lo, hi))
        )
        potential = -(bg.log_likelihood + log_prior)
        grad = -(lengths * (bg.gradient() - prior_rate) + 1.0)
        return potential, grad, bg.log_likelihood

    def grad_U(q: np.ndarray) -> np.ndarray:
        return potential_and_grad(q)[1]

    # Start at the tree's current canonical lengths.
    q = np.log(
        np.clip(
            [
                float(e.length)
                + (
                    float(skip.length)
                    if e.parent is root and skip is not None
                    else 0.0
                )
                for e in edges
            ],
            min_length,
            max_length,
        )
    )
    current_U, _, current_ll = potential_and_grad(q)
    best_ll = current_ll
    best_tree = tree.copy()

    trace: List[float] = []
    samples: List[np.ndarray] = []
    energy_errors: List[float] = []
    accepted = 0
    obs = get_recorder()
    for iteration in range(iterations):
        with obs.span(
            "hmc.trajectory", category="mcmc", iteration=iteration
        ) as span:
            p0 = rng.standard_normal(q.shape)
            h0 = current_U + 0.5 * float(p0 @ p0)
            q_new, p_new = leapfrog(q, p0, grad_U, step_size, n_leapfrog)
            new_U, _, new_ll = potential_and_grad(q_new)
            h1 = new_U + 0.5 * float(p_new @ p_new)
            energy_errors.append(abs(h1 - h0))
            took = math.log(rng.random() + 1e-300) < (h0 - h1)
            if took:
                q = q_new
                current_U, current_ll = new_U, new_ll
                accepted += 1
                if current_ll > best_ll:
                    best_ll = current_ll
                    best_tree = tree.copy()
            if obs.enabled:
                span.set_attribute("accepted", took)
                obs.count("repro_hmc_trajectories_total")
        trace.append(current_ll)
        samples.append(np.exp(np.clip(q, lo, hi)))

    set_lengths(q)  # leave the working tree at the final state
    return HMCResult(
        log_likelihoods=trace,
        samples=samples,
        tree=tree,
        best_tree=best_tree,
        best_log_likelihood=best_ll,
        accepted=accepted,
        proposed=iterations,
        gradient_sweeps=gradient_sweeps,
        energy_errors=energy_errors,
    )
