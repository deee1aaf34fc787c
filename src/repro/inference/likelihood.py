"""High-level tree-likelihood facade.

:class:`TreeLikelihood` wires together the substrates — tree, model,
pattern data, rate categories, engine instance and execution plan — behind
one object with a ``log_likelihood()`` method, the way BEAST/MrBayes wrap
BEAGLE. It also exposes the paper's knobs: scheduling mode (serial vs
concurrent), manual scaling, and concurrency-optimal rerooting of the
working tree.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Optional, Union

import numpy as np

from ..beagle.instance import BeagleInstance
from ..beagle.operations import Operation
from ..beagle.workspace import TransitionMatrixCache
from ..core.incremental import incremental_plan
from ..core.opsets import count_operation_sets
from ..core.planner import ExecutionPlan, create_instance, execute_plan, make_plan
from ..core.reroot_opt import optimal_reroot_exhaustive, optimal_reroot_fast
from ..data.alignment import Alignment
from ..data.patterns import PatternData, compress
from ..exec.faults import FaultSchedule, FaultSpec
from ..exec.resilient import FaultStats, ResilientInstance, RetryPolicy
from ..exec.stack import build_stack, run_plan
from ..models.ratematrix import SubstitutionModel
from ..models.siterates import RateCategories
from ..trees import Tree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .proposals import Move

__all__ = ["TreeLikelihood"]


class _SnapshotArena:
    """Preallocated save/restore storage for dirty buffers.

    One proposal snapshots the partials slots its dirty path will
    overwrite, their lowered entries and the transition matrices it will
    recompute; a rejection copies them straight back, so an NNI's rewired
    operations do not stay lowered after it is rejected. Buffers grow on
    demand to the deepest dirty path seen and are then reused, so
    steady-state propose/reject cycles allocate nothing.
    """

    def __init__(self, instance: BeagleInstance) -> None:
        self._instance = instance
        shape = instance._partials.shape[1:]
        mshape = instance._padded.shape[1:]
        self._partials = np.empty((0,) + shape, dtype=instance.dtype)
        self._matrices = np.empty((0,) + mshape, dtype=instance.dtype)
        self._slots = np.empty(0, dtype=np.int64)
        self._matrix_indices = np.empty(0, dtype=np.int64)
        self._n_slots = 0
        self._n_matrices = 0
        self._entries: list = []

    def save(self, slots, matrix_indices) -> None:
        """Copy the named partials slots and matrix buffers aside."""
        inst = self._instance
        n, m = len(slots), len(matrix_indices)
        if n > self._partials.shape[0]:
            self._partials = np.empty(
                (n,) + inst._partials.shape[1:], dtype=inst.dtype
            )
            self._slots = np.empty(n, dtype=np.int64)
        if m > self._matrices.shape[0]:
            self._matrices = np.empty(
                (m,) + inst._padded.shape[1:], dtype=inst.dtype
            )
            self._matrix_indices = np.empty(m, dtype=np.int64)
        self._slots[:n] = slots
        self._matrix_indices[:m] = matrix_indices
        np.take(inst._partials, self._slots[:n], axis=0, out=self._partials[:n])
        np.take(
            inst._padded,  # the matrix store, transposed and padded
            self._matrix_indices[:m],
            axis=0,
            out=self._matrices[:m],
        )
        self._n_slots = n
        self._n_matrices = m
        table = inst._lowered
        self._entries = [(slot, table[slot]) for slot in slots if slot in table]

    def restore(self) -> None:
        """Write the saved buffers back into the instance."""
        inst = self._instance
        n, m = self._n_slots, self._n_matrices
        if n:
            inst._partials[self._slots[:n]] = self._partials[:n]
        if m:
            inst._padded[self._matrix_indices[:m]] = self._matrices[:m]
        inst._lowered.update(self._entries)
        self._n_slots = 0
        self._n_matrices = 0


def _by_destination(plan: ExecutionPlan) -> Dict[int, Operation]:
    """A plan's operations keyed by destination buffer."""
    return {op.destination: op for op_set in plan.operation_sets for op in op_set}


class TreeLikelihood:
    """Likelihood of an alignment on a tree under a reversible model.

    Parameters
    ----------
    tree:
        Rooted bifurcating tree whose tip names match the data.
    model:
        A reversible substitution model.
    data:
        An :class:`~repro.data.alignment.Alignment` (compressed
        automatically) or ready-made
        :class:`~repro.data.patterns.PatternData`.
    rates:
        Optional among-site rate categories.
    scaling:
        Enable per-node rescaling (needed for large/deep trees).
    mode:
        ``"concurrent"`` (default), ``"serial"`` or ``"level"`` — see
        :func:`repro.core.planner.make_plan`.
    reroot:
        ``"none"`` (default), ``"fast"`` or ``"exhaustive"`` — reroot the
        working tree for maximal concurrency before planning. Likelihood
        is unchanged (pulley principle); only the launch count drops.
    precision:
        ``"double"`` (default) or ``"single"``. Single precision mirrors
        the GPU configuration of the paper; enable ``scaling`` with it on
        deep trees or the partials underflow (§VI-F).
    resilience:
        ``None``/``False`` (default) — the engine fails fast. ``True``
        or a :class:`~repro.exec.resilient.RetryPolicy` — wrap the
        instance in a :class:`~repro.exec.resilient.ResilientInstance`:
        launches retry with backoff, persistently faulting batched sets
        degrade to per-operation launches, and detected underflow
        escalates to rescaling.
    faults:
        Optional :class:`~repro.exec.faults.FaultSpec` — wrap the
        instance in a deterministic
        :class:`~repro.exec.faults.FaultInjector` (testing/chaos runs).
    matrix_cache:
        ``None``/``False`` (default) — transition matrices are always
        recomputed. ``True`` — attach a fresh
        :class:`~repro.beagle.workspace.TransitionMatrixCache` to the
        engine instance. An existing cache object — share it (e.g.
        between the evaluators an MCMC chain creates via
        :meth:`with_tree`, so unchanged branch lengths hit across
        iterations).
    """

    def __init__(
        self,
        tree: Tree,
        model: SubstitutionModel,
        data: Union[Alignment, PatternData],
        *,
        rates: Optional[RateCategories] = None,
        scaling: bool = False,
        mode: str = "concurrent",
        reroot: str = "none",
        precision: str = "double",
        resilience: Union[RetryPolicy, bool, None] = None,
        faults: Optional[FaultSpec] = None,
        matrix_cache: Union[TransitionMatrixCache, bool, None] = None,
    ) -> None:
        if isinstance(data, Alignment):
            data = compress(data)
        if precision not in ("double", "single"):
            raise ValueError("precision must be 'double' or 'single'")
        self.model = model
        self.patterns = data
        self.rates = rates
        self.scaling = scaling
        self.mode = mode
        self.precision = precision
        if resilience is True:
            resilience = RetryPolicy()
        elif resilience is False:
            resilience = None
        self.resilience: Optional[RetryPolicy] = resilience
        self.faults = faults
        if matrix_cache is True:
            matrix_cache = TransitionMatrixCache()
        elif matrix_cache is False:
            matrix_cache = None
        self.matrix_cache: Optional[TransitionMatrixCache] = matrix_cache
        self._dtype = np.float64 if precision == "double" else np.float32
        if reroot == "fast":
            tree = optimal_reroot_fast(tree).tree
        elif reroot == "exhaustive":
            tree = optimal_reroot_exhaustive(tree).tree
        elif reroot != "none":
            raise ValueError(f"unknown reroot option {reroot!r}")
        self.tree = tree
        self._instance: Optional[BeagleInstance] = None
        self._plan: Optional[ExecutionPlan] = None
        self._plan_epoch = 0  # tree.topology_epoch the plan was built at
        self._plan_lengths_stale = False
        self._incremental_ready = False
        self._pending: Optional["Move"] = None
        self._snapshot: Optional[_SnapshotArena] = None
        self._last_incremental_plan: Optional[ExecutionPlan] = None
        # The current topology's operations by destination, on the warm
        # instance's index map: dirty-path plans reuse them.
        self._operations: Optional[Dict[int, Operation]] = None

    # ------------------------------------------------------------------
    @property
    def instance(self) -> BeagleInstance:
        """The lazily created engine instance.

        With ``faults``/``resilience`` configured, the returned object is
        the wrapped stack (injector and/or resilient facade) — it exposes
        the full ``BeagleInstance`` surface by delegation.
        """
        if self._instance is None:
            instance = self.bare_instance()
            if self.matrix_cache is not None:
                instance.matrix_cache = self.matrix_cache
            self._instance = build_stack(
                instance,
                schedule=(
                    FaultSchedule(self.faults) if self.faults is not None else None
                ),
                policy=self.resilience,
            )
        return self._instance

    def bare_instance(self) -> BeagleInstance:
        """A fresh, unwrapped engine instance for this evaluator's case.

        Unlike :attr:`instance` this is never cached and never carries
        the evaluator's own fault/resilience wrappers — it is the raw
        engine a :class:`~repro.exec.pool.LikelihoodPool` worker wraps in
        its *own* stack (per-worker fault stream, deadline guard,
        resilient facade).
        """
        return create_instance(
            self.tree,
            self.model,
            self.patterns,
            rates=self.rates,
            scaling=self.scaling,
            dtype=self._dtype,
        )

    def make_case(self):
        """``(instance, plan)`` factory for pool jobs.

        Matches the ``make_case`` shape of
        :meth:`repro.exec.pool.JobContext.evaluate` and
        :class:`~repro.exec.health.Sentinel`.
        """
        return self.bare_instance(), self.plan

    @property
    def fault_stats(self) -> Optional[FaultStats]:
        """Resilience counters, when resilience is enabled."""
        if isinstance(self._instance, ResilientInstance):
            return self._instance.fault_stats
        return None

    @property
    def plan(self) -> ExecutionPlan:
        """The lazily built full-traversal execution plan.

        An accepted proposal that left the topology alone keeps the plan
        object, and with it the program the instance compiled for it;
        the plan's branch lengths are refreshed here, on the next access.
        After an accepted in-place topology move the plan is rebuilt on
        the warm instance's frozen index map (see the comment below)
        instead of via :func:`make_plan`.
        """
        if self._plan is not None and self._plan_lengths_stale:
            # Same topology epoch as at build time, so tree.edges() lists
            # the plan's matrix nodes in its matrix_indices order.
            self._plan.branch_lengths[:] = [
                node.length for node in self.tree.edges()
            ]
        self._plan_lengths_stale = False
        if self._plan is None:
            self._plan_epoch = self.tree.topology_epoch
            if self._incremental_ready and self._instance is not None:
                # An accepted in-place topology move dropped the cached
                # full plan but kept the warm engine instance, whose
                # buffer indices are frozen. make_plan would reassign
                # indices from the new topology and desynchronize the
                # instance's tip rows, so rebuild full coverage on the
                # frozen index map instead.
                self._plan = self._frozen_full_plan()
            else:
                self._plan = make_plan(
                    self.tree, self.mode, scaling=self.scaling
                )
        return self._plan

    def _frozen_full_plan(self) -> ExecutionPlan:
        """A full-traversal plan on the instance's frozen index map.

        Marking every tip as changed dirties every internal node, and
        listing every edge refreshes every transition matrix — a complete
        evaluation scheduled exactly like a full plan, but without the
        index reassignment :func:`~repro.core.planner.make_plan` performs.
        It reads no earlier partials, so it is not an incremental plan:
        the instance compiles it on its second execution.
        """
        plan = incremental_plan(
            self.tree,
            self.tree.tips(),
            matrices_for=self.tree.edges(),
            operations=self._operations,
        )
        return dataclasses.replace(plan, incremental=False)

    @property
    def n_launches(self) -> int:
        """Kernel launches per evaluation under the current plan."""
        return self.plan.n_launches

    def operation_sets(self) -> int:
        """Concurrent operation sets of the current tree."""
        return count_operation_sets(self.tree)

    def modelled_seconds(self, spec) -> float:
        """Device-model time of one evaluation under the current plan."""
        from ..gpu.perfmodel import WorkloadDims, time_set_sizes

        dims = WorkloadDims(
            patterns=self.patterns.n_patterns,
            states=self.model.n_states,
            categories=self.rates.n_categories if self.rates else 1,
        )
        return time_set_sizes(spec, dims, self.plan.set_sizes).seconds

    # ------------------------------------------------------------------
    def log_likelihood(self) -> float:
        """Evaluate the tree's log-likelihood (full traversal).

        Under ``resilience``, evaluation runs through
        :meth:`~repro.exec.resilient.ResilientInstance.execute`, which
        adds root-level underflow detection and rescaling escalation on
        top of the per-launch retry pipeline.
        """
        if self._pending is not None:
            raise RuntimeError(
                "a proposal is pending; accept() or reject() it first"
            )
        value = run_plan(self.instance, self.plan)
        if self.resilience is None:
            self._incremental_ready = True
        return value

    # ------------------------------------------------------------------
    @property
    def proposal_pending(self) -> bool:
        """True between :meth:`propose` and :meth:`accept`/:meth:`reject`."""
        return self._pending is not None

    @property
    def incremental_ready(self) -> bool:
        """True once a full evaluation has populated every partial."""
        return self._incremental_ready

    @property
    def last_incremental_plan(self) -> Optional[ExecutionPlan]:
        """The dirty-path plan of the most recent :meth:`propose`."""
        return self._last_incremental_plan

    def _check_incremental_supported(self) -> None:
        """Raise unless this configuration supports dirty-path proposals."""
        if self.scaling:
            raise ValueError(
                "incremental proposals do not support manual scaling; "
                "rejected proposals would need scale-factor snapshots"
            )
        if self.faults is not None or self.resilience is not None:
            raise ValueError(
                "incremental proposals need a bare engine instance; "
                "disable faults/resilience"
            )

    def propose(self, move: "Move") -> float:
        """Evaluate an already-applied in-place move along its dirty path.

        ``move`` comes from :func:`~repro.inference.proposals.branch_length_move`,
        :func:`~repro.inference.proposals.nni_move` or
        :func:`~repro.inference.proposals.nni_move_at`, which mutate
        :attr:`tree` in place and return the touched nodes. This method
        snapshots the partials slots and transition matrices the dirty
        path will overwrite, executes an
        :func:`~repro.core.incremental.incremental_plan` covering only
        that path, and returns the new log-likelihood. Exactly one of
        :meth:`accept` or :meth:`reject` must follow.

        When no full evaluation has populated the partials yet (first
        call, after :meth:`invalidate`, or after rejecting a cold
        proposal), the move is evaluated by one full traversal instead —
        :attr:`last_incremental_plan` is then ``None``, and rejecting it
        drops :attr:`incremental_ready` because every buffer was
        computed with the move applied.
        """
        self._check_incremental_supported()
        if self._pending is not None:
            raise RuntimeError(
                "a proposal is pending; accept() or reject() it first"
            )
        if not self._incremental_ready:
            # A full traversal with the move already applied IS the
            # proposal's evaluation. Rebuild instance and plan together:
            # make_plan/create_instance reassign buffer indices from the
            # current topology, so reusing one with a fresh copy of the
            # other would desynchronize tip rows. No snapshot could save
            # us on rejection — the move is baked into every buffer — so
            # reject() falls back to the cold state.
            self._instance = None
            self._plan = None
            self._snapshot = None
            self._operations = None
            value = execute_plan(self.instance, self.plan)
            self._pending = move
            self._last_incremental_plan = None
            return value
        instance = self.instance
        if self._operations is None:
            self._operations = _by_destination(self.plan)
        plan = incremental_plan(
            self.tree,
            move.touched,
            matrices_for=move.changed_edges,
            operations=self._operations,
        )
        if self._snapshot is None:
            self._snapshot = _SnapshotArena(instance)
        slots = sorted(
            {
                instance._internal_slot(op.destination)
                for op_set in plan.operation_sets
                for op in op_set
            }
        )
        self._snapshot.save(slots, plan.matrix_indices)
        self._pending = move
        self._last_incremental_plan = plan
        return execute_plan(instance, plan)

    def accept(self) -> None:
        """Keep the pending proposal's tree and buffers."""
        if self._pending is None:
            raise RuntimeError("no proposal is pending")
        self._pending = None
        if self._last_incremental_plan is None:
            # Cold proposal: the full traversal just populated every
            # buffer for the accepted tree, and the cached full plan
            # already matches it.
            self._incremental_ready = True
            return
        if self._snapshot is not None:
            self._snapshot._n_slots = 0
            self._snapshot._n_matrices = 0
        if self._plan is not None and self._plan_epoch == self.tree.topology_epoch:
            # Branch lengths changed, the topology did not: keep the plan
            # and refresh its lengths on the next access.
            self._plan_lengths_stale = True
        else:
            # The cached full plan is rebuilt from the current tree on the
            # next full evaluation (buffer indices are frozen, so the
            # engine instance itself stays valid); the dirty path's
            # operations, rewired ones included, now describe the tree.
            self._plan = None
            if self._operations is not None:
                self._operations.update(_by_destination(self._last_incremental_plan))

    def reject(self) -> None:
        """Undo the pending proposal: restore buffers, then the tree."""
        if self._pending is None:
            raise RuntimeError("no proposal is pending")
        move = self._pending
        self._pending = None
        if self._last_incremental_plan is None:
            # Cold proposal: every buffer holds the rejected state, and
            # both instance and plan were built for the rejected
            # topology — drop them so the next evaluation rebuilds a
            # consistent pair for the restored tree.
            self._incremental_ready = False
            self._instance = None
            self._plan = None
            self._snapshot = None
            self._operations = None
        elif self._snapshot is not None:
            self._snapshot.restore()
        move.undo()

    def modelled_incremental_seconds(self, spec) -> float:
        """Device-model time of the most recent dirty-path evaluation."""
        from ..gpu.perfmodel import WorkloadDims, time_set_sizes

        if self._last_incremental_plan is None:
            raise RuntimeError("no incremental plan has been executed yet")
        dims = WorkloadDims(
            patterns=self.patterns.n_patterns,
            states=self.model.n_states,
            categories=self.rates.n_categories if self.rates else 1,
        )
        return time_set_sizes(
            spec, dims, self._last_incremental_plan.set_sizes
        ).seconds

    def with_tree(self, tree: Tree) -> "TreeLikelihood":
        """A new evaluator for a different tree, sharing model and data.

        The engine instance is rebuilt lazily because buffer/tip index
        assignments depend on the tree shape.
        """
        return TreeLikelihood(
            tree,
            self.model,
            self.patterns,
            rates=self.rates,
            scaling=self.scaling,
            mode=self.mode,
            precision=self.precision,
            resilience=self.resilience,
            faults=self.faults,
            matrix_cache=self.matrix_cache,
        )

    def sharded(self, n_shards: int = 4, **kwargs):
        """This evaluator's case as a data-parallel sharded evaluation.

        Returns a :class:`~repro.exec.sharding.ShardedLikelihood` over
        the same tree, model, patterns, rates and scheduling mode; extra
        keyword arguments (``pool``, ``retries``, ``speculate``,
        ``checkpoint_path``, ``fault_spec``, ...) pass through. The
        sharded total is bit-identical to this evaluator's
        ``log_likelihood()`` (DESIGN.md §6.5) unless a shard underflowed
        and was escalated to rescaling.

        Not available for evaluators with manual ``scaling`` (a sharded
        run starts unscaled and escalates underflowing shards on its
        own) or with ``faults``/``resilience`` wrappers (the shard layer
        brings its own fault machinery through the pool workers).
        """
        if self.scaling:
            raise ValueError(
                "sharded evaluation manages scaling per shard; "
                "construct the evaluator with scaling=False"
            )
        if self.faults is not None or self.resilience is not None:
            raise ValueError(
                "sharded evaluation needs a bare engine case; "
                "disable faults/resilience (the pool workers carry "
                "their own fault and resilience stacks)"
            )
        from ..exec.sharding import ShardedLikelihood

        return ShardedLikelihood(
            self.tree,
            self.model,
            self.patterns,
            n_shards=n_shards,
            rates=self.rates,
            mode=self.mode,
            dtype=self._dtype,
            **kwargs,
        )

    def rerooted_for_concurrency(self, algorithm: str = "fast") -> "TreeLikelihood":
        """A new evaluator on the concurrency-optimal rerooting."""
        if algorithm not in ("fast", "exhaustive"):
            raise ValueError("algorithm must be 'fast' or 'exhaustive'")
        return TreeLikelihood(
            self.tree,
            self.model,
            self.patterns,
            rates=self.rates,
            scaling=self.scaling,
            mode=self.mode,
            reroot=algorithm,
            precision=self.precision,
            resilience=self.resilience,
            faults=self.faults,
            matrix_cache=self.matrix_cache,
        )

    def invalidate(self) -> None:
        """Drop cached instance/plan after mutating the tree in place."""
        self._instance = None
        self._plan = None
        self._incremental_ready = False
        self._pending = None
        self._snapshot = None
        self._last_incremental_plan = None
        self._operations = None
        self.tree.invalidate_indices()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TreeLikelihood tips={self.tree.n_tips} model={self.model.name} "
            f"patterns={self.patterns.n_patterns} mode={self.mode}>"
        )
