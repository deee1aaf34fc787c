"""Partitioned likelihood evaluation with cross-partition concurrency.

:class:`PartitionedLikelihood` evaluates one tree against every partition
of a :class:`~repro.partition.dataset.PartitionedDataset` and reports both
the combined log-likelihood and the launch economics of the two execution
styles the paper's §IV-A describes:

* **sequential partitions** — each partition's operation sets launch on
  their own (launches = partitions × sets);
* **concurrent partitions** — set *j* of every partition shares one
  multi-operation launch (launches = sets), possible because operations
  of different partitions touch disjoint buffers.

The real NumPy engine computes each partition with its own instance
(different pattern counts cannot share one stacked ``matmul``), so
cross-partition merging affects the *device model* accounting only —
exactly the substitution documented in DESIGN.md. The likelihood values
themselves are always real.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from ..beagle.instance import BeagleInstance
from ..core.planner import ExecutionPlan, create_instance, execute_plan, make_plan
from ..core.reroot_opt import optimal_reroot_fast
from ..gpu.device import DeviceSpec, GP100
from ..obs import get_recorder
from ..gpu.perfmodel import (
    EvaluationTiming,
    LaunchTiming,
    WorkloadDims,
    launch_time_mixed,
)
from ..trees import Tree
from .dataset import PartitionedDataset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.pool import JobContext, LikelihoodPool
    from ..exec.sharding import ShardedLikelihood

__all__ = ["PartitionedLikelihood"]


class PartitionedLikelihood:
    """Joint likelihood of a tree over a partitioned dataset.

    Parameters
    ----------
    tree:
        Shared tree (tip names must match the dataset's taxa).
    dataset:
        The partitions, each with its own model and rate mixture.
    scaling:
        Per-node rescaling for every partition.
    mode:
        Scheduling mode passed to :func:`repro.core.planner.make_plan`.
    reroot:
        ``"none"`` or ``"fast"`` — reroot once for all partitions (the
        tree is shared, so one rerooting benefits every subset).
    verify:
        Statically verify the shared plan (:mod:`repro.analysis`) before
        any partition executes it; one verification covers all
        partitions because the schedule depends only on the tree.
    pool:
        Optional :class:`~repro.exec.pool.LikelihoodPool`. With a pool,
        partitions are *real concurrent jobs*: each partition evaluates
        on its own supervised worker (partitions touch disjoint
        instances, so they are embarrassingly parallel) with the pool's
        deadlines, failover and health checks. Values are bit-identical
        to the serial path — per-partition log-likelihoods are summed in
        dataset order either way.
    shards:
        When > 0, shard *within* each partition: every partition's
        site patterns are split into this many shards, evaluated
        through a :class:`~repro.exec.sharding.ShardedLikelihood`
        (sharing ``pool`` when one is configured), so per-partition
        values — and the dataset-order sum — are bit-identical to the
        unsharded path across shard counts, pool sizes, completion
        orders and faults. The two concurrency axes
        compose: partitions in dataset order, shards inside each.
        Incompatible with ``scaling`` (a sharded partition escalates
        its own underflowing shards).
    """

    def __init__(
        self,
        tree: Tree,
        dataset: PartitionedDataset,
        *,
        scaling: bool = False,
        mode: str = "concurrent",
        reroot: str = "none",
        verify: bool = False,
        pool: Optional["LikelihoodPool"] = None,
        shards: int = 0,
    ) -> None:
        if reroot == "fast":
            tree = optimal_reroot_fast(tree).tree
        elif reroot != "none":
            raise ValueError(f"unknown reroot option {reroot!r}")
        if shards < 0:
            raise ValueError("shards must be non-negative")
        if shards > 0 and scaling:
            raise ValueError(
                "sharded partitions manage scaling per shard; "
                "use scaling=False"
            )
        self.tree = tree
        self.dataset = dataset
        self.mode = mode
        self.shards = shards
        self._sharded: Optional[List["ShardedLikelihood"]] = None
        self.scaling = scaling
        self.verify = verify
        # One plan: the schedule depends only on the tree, not the data.
        self.pool = pool
        self.plan: ExecutionPlan = make_plan(
            tree, mode, scaling=scaling, verify=verify
        )
        self._instances: Optional[List[BeagleInstance]] = None

    # ------------------------------------------------------------------
    @property
    def instances(self) -> List[BeagleInstance]:
        """Per-partition engine instances (built lazily)."""
        if self._instances is None:
            self._instances = [
                create_instance(
                    self.tree,
                    p.model,
                    p.patterns,
                    rates=p.rates,
                    scaling=self.scaling,
                )
                for p in self.dataset
            ]
        return self._instances

    def log_likelihood(self) -> float:
        """Sum of per-partition log-likelihoods (real computation).

        The sum runs over partitions in dataset order whether the
        evaluations were serial or pooled, so the float result is
        bit-identical between the two paths.
        """
        return sum(self.partition_log_likelihoods())

    def partition_log_likelihoods(self) -> List[float]:
        """Per-partition log-likelihoods, in dataset order."""
        obs = get_recorder()
        with obs.span(
            "partition.evaluate",
            category="partition",
            partitions=len(self.dataset),
            pooled=self.pool is not None,
        ):
            if self.shards > 0:
                return [
                    sharded.log_likelihood()
                    for sharded in self._sharded_evaluators()
                ]
            if self.pool is not None:
                instances = self.instances
                return self.pool.map(
                    [self._partition_job(instance) for instance in instances],
                    labels=[f"partition-{i}" for i in range(len(instances))],
                )
            return [
                execute_plan(instance, self.plan)
                for instance in self.instances
            ]

    def _sharded_evaluators(self) -> List["ShardedLikelihood"]:
        """Per-partition sharded engines (built lazily, pool shared)."""
        if self._sharded is None:
            from ..exec.sharding import ShardedLikelihood

            self._sharded = [
                ShardedLikelihood(
                    self.tree,
                    p.model,
                    p.patterns,
                    n_shards=self.shards,
                    rates=p.rates,
                    mode=self.mode,
                    pool=self.pool,
                )
                for p in self.dataset
            ]
        return self._sharded

    def _partition_job(
        self, instance: BeagleInstance
    ) -> Callable[["JobContext"], float]:
        return lambda ctx: ctx.execute(instance, self.plan)

    # ------------------------------------------------------------------
    # Launch accounting (paper §IV-A)
    # ------------------------------------------------------------------
    def launches_sequential_partitions(self) -> int:
        """Kernel launches when partitions are evaluated one at a time."""
        return len(self.dataset) * self.plan.n_launches

    def launches_concurrent_partitions(self) -> int:
        """Kernel launches when partitions share multi-operation launches."""
        return self.plan.n_launches

    def _partition_dims(self) -> List[WorkloadDims]:
        return [
            WorkloadDims(
                patterns=p.n_patterns,
                states=p.model.n_states,
                categories=p.rates.n_categories,
            )
            for p in self.dataset
        ]

    def device_timing(
        self,
        spec: DeviceSpec = GP100,
        *,
        concurrent_partitions: bool = True,
    ) -> EvaluationTiming:
        """Modelled device timing of one joint evaluation.

        With ``concurrent_partitions`` every operation set is one merged
        launch containing that set's operations from *all* partitions
        (heterogeneous thread/FLOP totals handled by
        :func:`repro.gpu.perfmodel.launch_time_mixed`); otherwise the
        per-partition launches simply concatenate.
        """
        dims = self._partition_dims()
        sizes = self.plan.set_sizes
        launches: List[LaunchTiming] = []
        if concurrent_partitions:
            for k in sizes:
                n_ops = k * len(dims)
                threads = sum(k * d.threads_per_operation for d in dims)
                flops = sum(k * d.flops_per_operation for d in dims)
                launches.append(launch_time_mixed(spec, n_ops, threads, flops))
        else:
            for d in dims:
                for k in sizes:
                    launches.append(
                        launch_time_mixed(
                            spec,
                            k,
                            k * d.threads_per_operation,
                            k * d.flops_per_operation,
                        )
                    )
        return EvaluationTiming(launches=launches)

    @property
    def n_launches(self) -> int:
        """Kernel launches per joint evaluation (merged partitions)."""
        return self.plan.n_launches

    def with_tree(self, tree: Tree) -> "PartitionedLikelihood":
        """A new evaluator on a different tree, sharing the dataset.

        This is the interface :func:`repro.inference.mcmc.run_mcmc`
        drives, so partitioned analyses can be sampled directly.
        """
        return PartitionedLikelihood(
            tree,
            self.dataset,
            scaling=self.scaling,
            mode=self.mode,
            verify=self.verify,
            pool=self.pool,
            shards=self.shards,
        )

    def modelled_seconds(self, spec: DeviceSpec = GP100) -> float:
        """Device-model time of one joint evaluation (merged launches)."""
        return self.device_timing(spec, concurrent_partitions=True).seconds

    def partition_concurrency_speedup(self, spec: DeviceSpec = GP100) -> float:
        """Modelled gain of concurrent over sequential partition launches."""
        sequential = self.device_timing(spec, concurrent_partitions=False)
        concurrent = self.device_timing(spec, concurrent_partitions=True)
        return sequential.seconds / concurrent.seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PartitionedLikelihood partitions={len(self.dataset)} "
            f"tips={self.tree.n_tips} mode={self.mode}>"
        )
