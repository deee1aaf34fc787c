"""Fault-tolerant site-pattern sharding with the engine's own reduction.

The log-likelihood is a weighted sum over site patterns, so the pattern
axis is embarrassingly parallel: :class:`ShardedLikelihood` partitions
the pattern matrix into contiguous, weight-balanced shards, evaluates
each shard on its own (small) engine instance through the existing
:class:`~repro.exec.pool.LikelihoodPool` — reusing admission control,
deadlines, circuit breakers and the no-silent-drop ledger — and reduces
the spliced per-pattern results exactly as the unsharded engine does.

Bit-identity contract
---------------------
Each shard returns its unweighted site log-likelihoods
(:meth:`~repro.beagle.instance.BeagleInstance.site_log_likelihoods`).
Per-pattern arithmetic in the engine is independent of the other
patterns in the instance, so for shards at least
:data:`MIN_SHARD_WIDTH` patterns wide they are bit-identical to the
corresponding slice of a full-matrix evaluation (narrower instances can
take different BLAS kernel paths — :func:`plan_shards` therefore
enforces the width floor). The combiner splices them in pattern order
and reduces with :func:`~repro.beagle.kernels.reduce_sites`, the
engine's reduction, so the total is bit-identical to the unsharded
engine's logL no matter the shard count, the completion order,
degraded-fleet routing, retries, speculation, or a checkpoint resume.

Robustness
----------
* **Bounded retry with failover** — a shard whose job surfaces a typed
  error (worker death, deadline) is re-submitted in the next round; the
  pool's own reroute machinery handles within-round failover.
* **Straggler handling** — per-shard deadlines cancel stragglers at a
  launch boundary; the shard retries with a grown budget. With
  ``speculate=True`` every pending shard is submitted twice and the
  first valid result wins; the loser is reconciled in the ledger (and
  disagreeing duplicates invalidate each other — neither is trusted).
* **Per-shard rescaling escalation** — a shard whose site logs underflow
  to ``-inf`` is re-evaluated alone with scaling enabled; the scaled
  values are merged *only into the non-finite slots*, so healthy patterns
  keep their original bits and one underflowing shard cannot poison the
  run.
* **Checkpointing** — completed shard site logs are persisted atomically
  (:class:`~repro.exec.checkpoint.ShardCheckpoint`) after every round; a
  resumed run recomputes nothing that already finished (the
  ``recomputed_completed`` ledger counter stays zero, and the gate in
  ``synthetictest`` enforces it).

Shard-scoped chaos (:class:`~repro.exec.faults.ShardFaultSchedule`) is
keyed on ``(shard, attempt)`` so injected faults are independent of
scheduling history and a replay reproduces the exact fault sequence.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..beagle.kernels import reduce_sites
from ..core.planner import ExecutionPlan, create_instance, make_plan
from ..data.patterns import PatternData, slice_patterns
from ..obs import get_recorder
from ..trees import Tree
from ..trees.newick import write_newick
from .checkpoint import NEWICK_PRECISION, ShardCheckpoint
from .errors import DeadlineExceeded, ExecutionError
from .faults import ShardFaultSchedule, ShardFaultSpec
from .ledger import Identity, Ledger, total
from .pool import JobContext, JobOutcome, LikelihoodPool

__all__ = [
    "MIN_SHARD_WIDTH",
    "Shard",
    "ShardLedger",
    "ShardAborted",
    "ShardFailure",
    "ShardResult",
    "ShardedLikelihood",
    "plan_shards",
]

#: Narrow pattern blocks can route through different BLAS kernels than a
#: full-width evaluation, producing last-ulp drift; widths of at least 4
#: are empirically bit-stable at every offset, and 8 keeps a 2× margin.
MIN_SHARD_WIDTH = 8


class ShardFailure(ExecutionError):
    """A shard exhausted its retry budget without a valid result."""

    retryable = False


class ShardAborted(RuntimeError):
    """Evaluation stopped deliberately after ``abort_after`` shards.

    Raised *after* the checkpoint for the completed shards is written —
    the crash-simulation hook used by the ``shard-soak`` CI gate.
    """


@dataclass(frozen=True)
class Shard:
    """One contiguous pattern range ``[start, stop)``."""

    index: int
    start: int
    stop: int

    @property
    def width(self) -> int:
        """Patterns covered by this shard."""
        return self.stop - self.start


def plan_shards(
    n_patterns: int,
    n_shards: int,
    *,
    weights: Optional[np.ndarray] = None,
    min_width: int = MIN_SHARD_WIDTH,
) -> List[Shard]:
    """Partition ``n_patterns`` into up to ``n_shards`` contiguous shards.

    With ``weights`` the cut points follow cumulative-weight quantiles,
    so shards carry (approximately) equal *site* counts even when pattern
    multiplicities are skewed; otherwise patterns are split evenly. The
    effective shard count is clamped so every shard spans at least
    ``min_width`` patterns (see :data:`MIN_SHARD_WIDTH` for why), and the
    plan is a deterministic function of its arguments.
    """
    if n_patterns < 1:
        raise ValueError("need at least one pattern")
    if n_shards < 1:
        raise ValueError("need at least one shard")
    if min_width < 1:
        raise ValueError("min_width must be positive")
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n_patterns,):
            raise ValueError("weights length must equal pattern count")
    k = min(n_shards, max(1, n_patterns // min_width))
    if k == 1:
        return [Shard(0, 0, n_patterns)]
    if weights is None:
        base, extra = divmod(n_patterns, k)
        bounds = [0]
        for i in range(k):
            bounds.append(bounds[-1] + base + (1 if i < extra else 0))
    else:
        cum = np.cumsum(w)
        total = float(cum[-1])
        if total <= 0.0:
            return plan_shards(
                n_patterns, n_shards, weights=None, min_width=min_width
            )
        targets = total * np.arange(1, k) / k
        cuts = np.searchsorted(cum, targets, side="left") + 1
        bounds = [0] + [int(c) for c in cuts] + [n_patterns]
        # Enforce the width floor in both directions; k·min_width ≤
        # n_patterns guarantees a feasible assignment exists.
        for i in range(1, k):
            bounds[i] = max(bounds[i], bounds[i - 1] + min_width)
        for i in range(k - 1, 0, -1):
            bounds[i] = min(bounds[i], bounds[i + 1] - min_width)
    return [Shard(i, bounds[i], bounds[i + 1]) for i in range(k)]


def problem_fingerprint(
    tree: Tree, model, patterns: PatternData, rates=None
) -> str:
    """SHA-256 digest identifying a (tree, model, data, rates) problem.

    Stored in shard checkpoints so a resume against different inputs is
    refused instead of silently splicing results from another problem.
    Branch lengths round-trip at 17 significant digits, so two trees
    hash equal iff their ``float64`` lengths are equal.
    """
    h = hashlib.sha256()
    h.update(
        write_newick(tree, precision=NEWICK_PRECISION).encode("utf-8")
    )
    h.update(patterns.codes.tobytes())
    h.update(patterns.weights.tobytes())
    h.update(model.name.encode("utf-8"))
    eigen = model.eigen
    h.update(eigen.values.tobytes())
    h.update(eigen.vectors.tobytes())
    if rates is not None:
        h.update(np.asarray(rates.rates, dtype=np.float64).tobytes())
        h.update(np.asarray(rates.probabilities, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass
class ShardResult:
    """What one shard job hands back through the pool.

    ``site_logs`` (unweighted, one per pattern of the shard) is ``None``
    when an injected fault consumed the attempt;
    ``fault`` records the injected class (if any); ``escalated`` is True
    when the worker's resilient facade enabled scaling mid-run.
    """

    shard_index: int
    attempt: int
    site_logs: Optional[np.ndarray] = None
    fault: Optional[str] = None
    scaled: bool = False
    escalated: bool = False


@dataclass
class ShardLedger(Ledger):
    """Shard-level accounting: every submission reaches one bucket.

    Its identities (``IDENTITIES``) close on a successful run.
    ``recomputed_completed`` counts shards re-executed despite a
    checkpoint already holding their result — it must stay zero, and the
    ``shard-soak`` CI gate fails the run if it does not.
    """

    total_shards: int = 0
    resumed: int = 0
    computed: int = 0
    submissions: int = 0
    ok: int = 0
    failed: int = 0
    shed: int = 0
    wins: int = 0
    wasted: int = 0
    faulted: int = 0
    invalidated: int = 0
    retries: int = 0
    disagreements: int = 0
    stragglers_cancelled: int = 0
    escalations: int = 0
    injected: Dict[str, int] = field(default_factory=dict)
    recomputed_completed: int = 0

    IDENTITIES = (
        Identity(
            "resumed + computed == total_shards",
            total("resumed", "computed"),
            total("total_shards"),
            "every shard is restored from the checkpoint or computed",
        ),
        Identity(
            "submissions == ok + failed + shed",
            total("submissions"),
            total("ok", "failed", "shed"),
            "every shard submission reaches exactly one pool outcome",
        ),
        Identity(
            "ok == wins + wasted + faulted + invalidated",
            total("ok"),
            total("wins", "wasted", "faulted", "invalidated"),
            "every completed attempt is used, superseded, faulted or invalidated",
        ),
    )

    def format(self) -> str:
        """One-line summary for logs and ``synthetictest`` output."""
        return (
            f"shards: total={self.total_shards} resumed={self.resumed} "
            f"computed={self.computed} submissions={self.submissions} "
            f"ok={self.ok} failed={self.failed} shed={self.shed} "
            f"wins={self.wins} wasted={self.wasted} faulted={self.faulted} "
            f"invalidated={self.invalidated} retries={self.retries} "
            f"disagreements={self.disagreements} "
            f"stragglers={self.stragglers_cancelled} "
            f"escalations={self.escalations} "
            f"recomputed_completed={self.recomputed_completed} "
            f"injected={dict(sorted(self.injected.items()))}"
        )


class ShardedLikelihood:
    """Data-parallel likelihood over site-pattern shards.

    Implements the evaluator protocol ``run_mcmc`` expects
    (``log_likelihood`` / ``with_tree`` / ``tree`` / ``n_launches`` /
    ``plan`` / ``modelled_seconds``), so it drops in wherever a
    :class:`~repro.inference.likelihood.TreeLikelihood` does.

    Parameters
    ----------
    tree, model, patterns, rates:
        The likelihood problem. ``patterns`` is the full (compressed)
        matrix; shards slice it lazily per job, so peak per-worker
        memory is one shard's instance, not the whole matrix.
    n_shards:
        Requested shard count; clamped by the :data:`MIN_SHARD_WIDTH`
        floor (see :attr:`shards` for the effective plan).
    pool:
        The :class:`~repro.exec.pool.LikelihoodPool` to fan out through;
        a private 2-worker inline pool is created when omitted.
    retries:
        Extra rounds a shard may consume after its first failed one.
    speculate:
        Submit every pending shard twice; first valid result wins, the
        duplicate is reconciled as ``wasted`` (disagreement invalidates
        both and the shard retries).
    straggler_budget_s:
        Per-shard wall-clock budget. The clock starts at submission, so
        size it for a full round, not one evaluation. Retried shards get
        ``straggler_growth``× more budget per round.
    checkpoint_path:
        Where to persist completed shard site logs (atomic JSON) after every
        round; ``resume=True`` loads it and skips finished shards.
    abort_after:
        Stop (with :class:`ShardAborted`) once this many shards have
        completed *in this run* — deterministic crash simulation for
        resume tests.
    fault_spec:
        Shard-scoped chaos stream (:class:`~repro.exec.faults.ShardFaultSpec`).
    order_seed:
        Permute each round's submission order (deterministically per
        seed); the result is bit-identical regardless — that is the
        point of the bit-identity contract.
    """

    def __init__(
        self,
        tree: Tree,
        model,
        patterns: PatternData,
        *,
        n_shards: int = 4,
        pool: Optional[LikelihoodPool] = None,
        rates=None,
        mode: str = "concurrent",
        min_width: int = MIN_SHARD_WIDTH,
        retries: int = 2,
        speculate: bool = False,
        straggler_budget_s: Optional[float] = None,
        straggler_growth: float = 2.0,
        checkpoint_path=None,
        resume: bool = False,
        abort_after: Optional[int] = None,
        fault_spec: Optional[ShardFaultSpec] = None,
        order_seed: Optional[int] = None,
        dtype=np.float64,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if straggler_growth < 1.0:
            raise ValueError("straggler_growth must be >= 1")
        self.tree = tree
        self.model = model
        self.patterns = patterns
        self.rates = rates
        self.mode = mode
        self.min_width = min_width
        self.retries = retries
        self.speculate = speculate
        self.straggler_budget_s = straggler_budget_s
        self.straggler_growth = straggler_growth
        self.checkpoint_path = checkpoint_path
        self.resume = resume
        self.abort_after = abort_after
        self.fault_spec = fault_spec
        self.order_seed = order_seed
        self.dtype = dtype
        self._owns_pool = pool is None
        self.pool = pool or LikelihoodPool(
            n_workers=2, executor="inline", deadline_s=None
        )
        self.shards = plan_shards(
            patterns.n_patterns,
            n_shards,
            weights=patterns.weights,
            min_width=min_width,
        )
        self.ledger = ShardLedger(total_shards=len(self.shards))
        tree.assign_indices()
        self._plan = make_plan(tree, mode, scaling=False)
        self._plan_scaled: Optional[ExecutionPlan] = None
        self.fingerprint = problem_fingerprint(tree, model, patterns, rates)
        self._site_logs: Optional[np.ndarray] = None

    # -- evaluator protocol -------------------------------------------
    @property
    def n_shards(self) -> int:
        """Effective shard count (after the width-floor clamp)."""
        return len(self.shards)

    @property
    def plan(self) -> ExecutionPlan:
        """The per-shard execution plan (identical for every shard)."""
        return self._plan

    @property
    def n_launches(self) -> int:
        """Kernel launches of one fault-free evaluation (all shards)."""
        return self.n_shards * self._plan.n_launches

    def modelled_seconds(self, spec) -> float:
        """Device-model time of one evaluation, summed over shards."""
        from ..gpu.perfmodel import WorkloadDims, time_set_sizes

        total = 0.0
        for shard in self.shards:
            dims = WorkloadDims(
                patterns=shard.width,
                states=self.model.n_states,
                categories=self.rates.n_categories if self.rates else 1,
            )
            total += time_set_sizes(spec, dims, self._plan.set_sizes).seconds
        return total

    def with_tree(self, tree: Tree) -> "ShardedLikelihood":
        """A new sharded evaluator for another tree; shares pool/config."""
        return ShardedLikelihood(
            tree,
            self.model,
            self.patterns,
            n_shards=len(self.shards),
            pool=self.pool,
            rates=self.rates,
            mode=self.mode,
            min_width=self.min_width,
            retries=self.retries,
            speculate=self.speculate,
            straggler_budget_s=self.straggler_budget_s,
            straggler_growth=self.straggler_growth,
            fault_spec=self.fault_spec,
            order_seed=self.order_seed,
            dtype=self.dtype,
        )

    # -- the reduction -------------------------------------------------
    def log_likelihood(self) -> float:
        """Evaluate all shards and reduce the spliced site logs the
        engine's way (:func:`~repro.beagle.kernels.reduce_sites`)."""
        site_logs = self.evaluate()
        obs = get_recorder()
        with obs.span(
            "shard.reduce", category="shard", patterns=site_logs.size
        ):
            return reduce_sites(self.patterns.weights, site_logs)

    @property
    def site_logs(self) -> Optional[np.ndarray]:
        """Spliced per-pattern site logs of the last :meth:`evaluate`."""
        return self._site_logs

    # -- evaluation ----------------------------------------------------
    def evaluate(self) -> np.ndarray:
        """Run every shard to completion; returns the spliced site logs.

        Raises
        ------
        ShardFailure
            When a shard exhausts its retry budget.
        ShardAborted
            When ``abort_after`` completions were reached (after the
            checkpoint was written).
        """
        obs = get_recorder()
        with obs.span(
            "shard.evaluate",
            category="shard",
            shards=self.n_shards,
            patterns=self.patterns.n_patterns,
        ):
            site_logs = self._evaluate_body()
        obs.count("repro_shard_evaluations_total")
        self._site_logs = site_logs
        return site_logs

    def _evaluate_body(self) -> np.ndarray:
        obs = get_recorder()
        ledger = self.ledger = ShardLedger(total_shards=len(self.shards))
        schedule = (
            ShardFaultSchedule(self.fault_spec) if self.fault_spec else None
        )
        if schedule is not None:
            # The ledger reads the stream's counts; they are kept there only.
            ledger.injected = schedule.by_class
        completed: Dict[int, np.ndarray] = {}
        if self.resume and self.checkpoint_path is not None:
            completed = self._load_resume()
            ledger.resumed = len(completed)
            if ledger.resumed:
                obs.count("repro_shard_resumed_total", ledger.resumed)
        computed_this_run = 0
        provisional: Dict[int, np.ndarray] = {}
        attempts: Dict[int, int] = {s.index: 0 for s in self.shards}
        rounds: Dict[int, int] = {s.index: 0 for s in self.shards}
        last_error: Dict[int, BaseException] = {}
        round_no = 0
        while True:
            remaining = [
                s.index for s in self.shards if s.index not in completed
            ]
            if not remaining:
                break
            order = self._round_order(remaining, round_no)
            if self.abort_after is not None:
                # Cap each round's submissions so a round boundary (and
                # therefore a checkpoint) exists exactly at the abort
                # point — deterministic crash simulation.
                order = order[: max(1, self.abort_after - computed_this_run)]
            outcomes = self._submit_round(
                order, attempts, provisional, schedule, ledger
            )
            retry = self._process_round(
                outcomes,
                completed,
                provisional,
                last_error,
                ledger,
            )
            newly_done = [si for si in order if si not in retry]
            computed_this_run += len(newly_done)
            ledger.computed = computed_this_run
            for si in retry:
                rounds[si] += 1
                ledger.retries += 1
                obs.count("repro_shard_retries_total")
                if rounds[si] > self.retries:
                    raise ShardFailure(
                        f"shard {si} failed after {rounds[si]} rounds "
                        f"(last error: {last_error.get(si)})"
                    )
            if self.checkpoint_path is not None and newly_done:
                self._save_checkpoint(completed)
            if (
                self.abort_after is not None
                and computed_this_run >= self.abort_after
                and len(completed) < len(self.shards)
            ):
                raise ShardAborted(
                    f"aborted after {computed_this_run} completed shards "
                    f"({len(self.shards) - len(completed)} still pending)"
                )
            round_no += 1
        ledger.computed = len(completed) - ledger.resumed
        site_logs = np.empty(self.patterns.n_patterns, dtype=np.float64)
        for shard in self.shards:
            site_logs[shard.start : shard.stop] = completed[shard.index]
        return site_logs

    # -- rounds --------------------------------------------------------
    def _round_order(self, pending: List[int], round_no: int) -> List[int]:
        if self.order_seed is None:
            return list(pending)
        rng = np.random.default_rng((self.order_seed, round_no))
        return [pending[i] for i in rng.permutation(len(pending))]

    def _submit_round(
        self,
        order: List[int],
        attempts: Dict[int, int],
        provisional: Dict[int, np.ndarray],
        schedule: Optional[ShardFaultSchedule],
        ledger: ShardLedger,
    ) -> List[Tuple[int, bool, JobOutcome]]:
        """Submit one round (respecting pool admission control) and
        drain it; returns ``(shard_index, scaled, outcome)`` triples in
        submission order."""
        by_shard = {s.index: s for s in self.shards}
        plan: List[Tuple[int, bool, int]] = []  # (shard, scaled, budget_exp)
        for si in order:
            scaled = si in provisional
            copies = 2 if (self.speculate and not scaled) else 1
            for _ in range(copies):
                plan.append((si, scaled, attempts[si]))
        capacity = self.pool.max_pending or len(plan)
        results: List[Tuple[int, bool, JobOutcome]] = []
        pos = 0
        while pos < len(plan):
            chunk = plan[pos : pos + capacity]
            submitted: List[Tuple[int, bool, int]] = []
            for si, scaled, _ in chunk:
                shard = by_shard[si]
                attempt = attempts[si]
                attempts[si] += 1
                ledger.submissions += 1
                get_recorder().count("repro_shard_jobs_total")
                kwargs = {}
                if self.straggler_budget_s is not None:
                    kwargs["deadline_s"] = self.straggler_budget_s * (
                        self.straggler_growth ** min(attempt, 8)
                    )
                job_index = self.pool.submit(
                    self._job_fn(shard, attempt, scaled, schedule),
                    label=f"shard-{si}/{len(self.shards)}#{attempt}",
                    **kwargs,
                )
                submitted.append((si, scaled, job_index))
            drained = {o.index: o for o in self.pool.drain()}
            for si, scaled, job_index in submitted:
                results.append((si, scaled, drained[job_index]))
            pos += capacity
        return results

    def _job_fn(
        self,
        shard: Shard,
        attempt: int,
        scaled: bool,
        schedule: Optional[ShardFaultSchedule],
    ) -> Callable[[JobContext], ShardResult]:
        tree, model, rates, dtype = (
            self.tree,
            self.model,
            self.rates,
            self.dtype,
        )

        def job(ctx: JobContext) -> ShardResult:
            fault = (
                schedule.draw(shard.index, attempt) if schedule else None
            )
            if fault == "shard_lost":
                # The worker "dies" before producing anything; the shard
                # layer retries. Returned (not raised) so the pool's own
                # ledger stays balanced — nothing touched a worker stack.
                return ShardResult(shard.index, attempt, fault=fault)
            if fault == "shard_stall":
                if ctx.deadline is not None:
                    # Sleep the budget out, then execute: the worker's
                    # DeadlineGuard cancels at the first launch boundary,
                    # exercising the real straggler path end to end.
                    time.sleep(
                        min(max(ctx.deadline.remaining, 0.0) + 0.02, 2.0)
                    )
                else:
                    return ShardResult(shard.index, attempt, fault=fault)
            if shard.start == 0 and shard.stop == self.patterns.n_patterns:
                sub = self.patterns  # full-width shard: nothing to slice
            else:
                sub = slice_patterns(self.patterns, shard.start, shard.stop)
            # Injected underflow is a *detection* simulation: the attempt
            # still runs unscaled, and the shard layer escalates it —
            # merging scaled values only into non-finite slots keeps
            # healthy patterns bit-identical to the unsharded engine.
            run_scaled = scaled
            instance = create_instance(
                tree,
                model,
                sub,
                rates=rates,
                scaling=run_scaled,
                dtype=dtype,
            )
            plan = self._shard_plan(run_scaled)
            ctx.execute(instance, plan)
            cum = instance.scale.count - 1 if instance.scale.count else -1
            return ShardResult(
                shard.index,
                attempt,
                site_logs=instance.site_log_likelihoods(plan.root_buffer, cum),
                fault=fault,
                scaled=run_scaled,
                escalated=bool(instance.scale.count) and not run_scaled,
            )

        return job

    def _shard_plan(self, scaling: bool) -> ExecutionPlan:
        if not scaling:
            return self._plan
        if self._plan_scaled is None:
            self._plan_scaled = make_plan(self.tree, self.mode, scaling=True)
        return self._plan_scaled

    def _process_round(
        self,
        results: List[Tuple[int, bool, JobOutcome]],
        completed: Dict[int, np.ndarray],
        provisional: Dict[int, np.ndarray],
        last_error: Dict[int, BaseException],
        ledger: ShardLedger,
    ) -> List[int]:
        """Classify every outcome; returns shard indices needing retry,
        in canonical (shard-index) order."""
        obs = get_recorder()
        valids: Dict[int, List[ShardResult]] = {}
        still_pending: Dict[int, bool] = {}
        for si, scaled, outcome in results:
            still_pending.setdefault(si, True)
            if outcome.status == "ok":
                ledger.ok += 1
                res: ShardResult = outcome.value
                if res.site_logs is None:
                    ledger.faulted += 1
                    if res.fault == "shard_stall":
                        ledger.stragglers_cancelled += 1
                        obs.count("repro_shard_stragglers_total")
                    continue
                valids.setdefault(si, []).append(res)
            else:
                if outcome.status == "shed":
                    ledger.shed += 1
                else:
                    ledger.failed += 1
                if isinstance(outcome.error, DeadlineExceeded):
                    ledger.stragglers_cancelled += 1
                    obs.count("repro_shard_stragglers_total")
                if outcome.error is not None:
                    last_error[si] = outcome.error
        for si, candidates in valids.items():
            first = candidates[0]
            agree = all(
                np.array_equal(c.site_logs, first.site_logs)
                for c in candidates[1:]
            )
            if not agree:
                # Divergent duplicates: trust neither, retry the shard.
                ledger.disagreements += 1
                ledger.invalidated += len(candidates)
                obs.count("repro_shard_disagreements_total")
                last_error[si] = ShardFailure(
                    f"speculative duplicates of shard {si} disagree"
                )
                continue
            ledger.wins += 1
            if len(candidates) > 1:
                ledger.wasted += len(candidates) - 1
                obs.count(
                    "repro_shard_speculative_wasted_total",
                    len(candidates) - 1,
                )
            site_logs = first.site_logs
            if si in provisional:
                # Escalated re-run: scaled values fill only the slots the
                # unscaled attempt could not represent, so healthy
                # patterns keep their original bits.
                prov = provisional.pop(si)
                site_logs = np.where(np.isfinite(prov), prov, site_logs)
                ledger.escalations += 1
                obs.count("repro_shard_escalations_total")
            elif first.fault == "shard_underflow" or not np.all(
                np.isfinite(site_logs)
            ):
                if not first.scaled:
                    # Needs escalation: keep the unscaled values and
                    # re-run with scaling next round.
                    provisional[si] = site_logs
                    continue
                # Already scaled and still non-finite: genuine zero-
                # likelihood patterns; accept (log L = -inf is exact).
            if first.escalated:
                ledger.escalations += 1
                obs.count("repro_shard_escalations_total")
            completed[si] = np.asarray(site_logs, dtype=np.float64)
            still_pending[si] = False
        return sorted(si for si, p in still_pending.items() if p)

    # -- checkpointing -------------------------------------------------
    def _save_checkpoint(self, completed: Dict[int, np.ndarray]) -> None:
        ShardCheckpoint(
            n_patterns=self.patterns.n_patterns,
            n_shards=len(self.shards),
            fingerprint=self.fingerprint,
            site_logs={
                str(si): [float(v) for v in logs]
                for si, logs in sorted(completed.items())
            },
        ).save(self.checkpoint_path)

    def _load_resume(self) -> Dict[int, np.ndarray]:
        from pathlib import Path

        path = Path(self.checkpoint_path)
        if not path.exists():
            return {}
        checkpoint = ShardCheckpoint.load(path)
        checkpoint.check_matches(
            n_patterns=self.patterns.n_patterns,
            n_shards=len(self.shards),
            fingerprint=self.fingerprint,
        )
        return {
            int(si): np.asarray(logs, dtype=np.float64)
            for si, logs in checkpoint.site_logs.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedLikelihood shards={self.n_shards} "
            f"patterns={self.patterns.n_patterns} "
            f"speculate={self.speculate} retries={self.retries}>"
        )
