"""Simulated device execution of tree-evaluation plans.

:class:`SimulatedDevice` plays the role of the GP100 in the paper's
benchmarks: given an :class:`~repro.core.planner.ExecutionPlan` (or just a
tree) and the workload dimensions, it produces launch-by-launch timings,
total time, and effective GFLOPS — the modelled numbers behind Fig. 5,
Fig. 6 and Table III — plus the modelled one-sweep gradient economics.
Any other schedule is priced by handing its launch sizes to
:func:`~repro.gpu.perfmodel.time_set_sizes` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.planner import ExecutionPlan, GradientPlan, make_plan
from ..obs import get_recorder
from ..obs.profile import PHASE_MODELLED
from ..trees import Tree
from .device import GP100, DeviceSpec
from .perfmodel import EvaluationTiming, LaunchTiming, WorkloadDims, time_set_sizes

__all__ = [
    "SimulatedDevice",
    "GradientTiming",
    "simulate_tree",
    "simulated_speedup",
]


@dataclass(frozen=True)
class GradientTiming:
    """Modelled one-sweep all-branch gradient vs per-edge rerooting.

    Attributes
    ----------
    one_sweep:
        Timing of the gradient plan — the post-order traversal followed
        by the pre-order upper-partial sets (``3n − 5`` operations
        total).
    per_edge:
        Timing of the baseline that reroots above every canonical edge
        and runs a full post-order traversal per reroot (``(2n − 3) ×
        (n − 1)`` operations) — what per-edge
        :func:`~repro.inference.derivatives.edge_log_likelihood_derivatives`
        calls cost.
    n_edges:
        Canonical edges the gradient covers (``2n − 3``).
    """

    one_sweep: EvaluationTiming
    per_edge: EvaluationTiming
    n_edges: int

    @property
    def speedup(self) -> float:
        """Per-edge-reroot seconds over one-sweep seconds.

        The headline quantity of the gradient bench: linear work against
        quadratic work, so the ratio grows roughly linearly in the taxon
        count.
        """
        if self.one_sweep.seconds <= 0.0:
            return float("inf") if self.per_edge.seconds > 0.0 else 1.0
        return self.per_edge.seconds / self.one_sweep.seconds

    @property
    def launches_saved(self) -> int:
        """Kernel launches the one-sweep schedule avoids."""
        return self.per_edge.n_launches - self.one_sweep.n_launches

    @property
    def operations_saved(self) -> int:
        """Partial-update operations the one-sweep schedule avoids."""
        return self.per_edge.n_operations - self.one_sweep.n_operations


class SimulatedDevice:
    """A device executing plans under the analytical timing model."""

    def __init__(self, spec: DeviceSpec = GP100) -> None:
        self.spec = spec

    def time_plan(self, plan: ExecutionPlan, dims: WorkloadDims) -> EvaluationTiming:
        """Simulated timing of one plan execution.

        Modelled device seconds are credited to the profiler's
        :data:`~repro.obs.profile.PHASE_MODELLED` phase, so simulated
        runs fill the same profile table as measured ones.
        """
        timing = time_set_sizes(self.spec, dims, plan.set_sizes)
        obs = get_recorder()
        if obs.enabled:
            obs.add_phase_seconds(
                PHASE_MODELLED, timing.seconds, calls=timing.n_launches
            )
        return timing

    def time_tree(
        self, tree: Tree, dims: WorkloadDims, mode: str = "concurrent"
    ) -> EvaluationTiming:
        """Simulated timing of a tree under a scheduling mode."""
        return self.time_plan(make_plan(tree, mode), dims)

    def speedup(self, tree: Tree, dims: WorkloadDims, mode: str = "concurrent") -> float:
        """Simulated concurrent-over-serial speedup for one tree.

        This is the quantity the paper's Table III reports in the
        "NVIDIA GP100" column (there measured, here modelled).
        """
        serial = self.time_tree(tree, dims, "serial").seconds
        concurrent = self.time_tree(tree, dims, mode).seconds
        return serial / concurrent

    def time_gradient(
        self,
        tree: Tree,
        dims: WorkloadDims,
        mode: str = "concurrent",
        *,
        plan: Optional[GradientPlan] = None,
    ) -> GradientTiming:
        """Modelled all-branch derivative economics for one tree.

        Times the one-sweep gradient plan (post-order traversal plus
        pre-order upper-partial sets, ``3n − 5`` operations) against the
        per-edge baseline that reroots above every canonical edge and
        pays a full post-order traversal each time — the exact schedule
        per-edge :func:`~repro.inference.derivatives.
        edge_log_likelihood_derivatives` calls execute, built with
        :func:`~repro.trees.reroot.reroot_above` per edge so the
        baseline's set structure is real, not assumed. Both schedules
        are timed under the same ``dims`` and ``mode``; modelled seconds
        of the one-sweep schedule are credited to
        :data:`~repro.obs.profile.PHASE_MODELLED`.
        """
        from ..core.planner import make_gradient_plan
        from ..inference.derivatives import canonical_edges
        from ..trees.reroot import reroot_above

        gplan = plan if plan is not None else make_gradient_plan(tree, mode)
        sweep_sizes = list(gplan.post.set_sizes) + list(gplan.upper_set_sizes)
        one_sweep = time_set_sizes(self.spec, dims, sweep_sizes)
        launches: List[LaunchTiming] = []
        edges = canonical_edges(gplan.tree)
        for edge in edges:
            rerooted = reroot_above(gplan.tree, edge, fraction=0.0)
            edge_plan = make_plan(rerooted, mode, scaling=False)
            launches.extend(
                time_set_sizes(self.spec, dims, edge_plan.set_sizes).launches
            )
        per_edge = EvaluationTiming(launches=launches, dims=dims)
        obs = get_recorder()
        if obs.enabled:
            obs.add_phase_seconds(
                PHASE_MODELLED, one_sweep.seconds, calls=one_sweep.n_launches
            )
        return GradientTiming(
            one_sweep=one_sweep, per_edge=per_edge, n_edges=len(edges)
        )


def simulate_tree(
    tree: Tree,
    patterns: int = 512,
    states: int = 4,
    categories: int = 1,
    spec: DeviceSpec = GP100,
    mode: str = "concurrent",
) -> EvaluationTiming:
    """One-call convenience: simulated timing of a tree evaluation."""
    dims = WorkloadDims(patterns=patterns, states=states, categories=categories)
    return SimulatedDevice(spec).time_tree(tree, dims, mode)


def simulated_speedup(
    tree: Tree,
    patterns: int = 512,
    states: int = 4,
    categories: int = 1,
    spec: DeviceSpec = GP100,
) -> float:
    """Concurrent-over-serial simulated speedup (Table III style)."""
    dims = WorkloadDims(patterns=patterns, states=states, categories=categories)
    return SimulatedDevice(spec).speedup(tree, dims)
