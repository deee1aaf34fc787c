"""Execution planning: from a tree to engine calls.

An :class:`ExecutionPlan` fixes everything the engine needs to evaluate a
tree's likelihood: the operation sets (serial or concurrent), the matrix
updates, the root buffer, and the scaling configuration mirroring
``synthetictest``'s ``--manualscale`` / ``--rescale-frequency`` options.
:func:`execute_plan` drives a :class:`~repro.beagle.instance.BeagleInstance`
through the plan and returns the log-likelihood.

A :class:`GradientPlan` extends a post-order plan with the *pre-order*
upper-partial pass: seed copies for the root children, level-batched
upper operation sets, and the merged pulley-edge matrix update. One
:func:`execute_gradient_plan` call leaves the engine holding, for every
node, both the lower (subtree) and upper (rest-of-tree) partials — the
two halves every branch's (logL, d/dt, d²/dt²) recombination needs, in
linear total work instead of one rerooted evaluation per edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..beagle.instance import BeagleInstance
from ..beagle.operations import Operation
from ..beagle.setexec import PlanPrograms
from ..data.patterns import PatternData
from ..obs import get_recorder
from ..models.ratematrix import SubstitutionModel
from ..models.siterates import RateCategories, single_rate
from ..trees import Tree
from .opsets import build_operation_sets, level_schedule
from .schedule import (
    matrix_updates,
    postorder_operations,
    preorder_upper_operations,
    pulley_matrix_update,
    reverse_levelorder_operations,
    upper_seeds,
)

__all__ = [
    "ExecutionPlan",
    "make_plan",
    "create_instance",
    "load_tips",
    "load_parameters",
    "execute_plan",
    "GradientPlan",
    "make_gradient_plan",
    "execute_gradient_plan",
]

#: Scale buffer reserved for the accumulated (cumulative) log factors.
CUMULATIVE_SCALE = 0


@dataclass(frozen=True)
class ExecutionPlan:
    """A fully resolved schedule for one tree evaluation.

    Attributes
    ----------
    tree:
        The tree the plan was built from (indices assigned).
    operation_sets:
        Groups of independent operations; each inner list is one kernel
        launch. Serial plans have one operation per set.
    matrix_indices, branch_lengths:
        Arguments for ``update_transition_matrices``.
    root_buffer:
        Buffer index holding the root partials after execution.
    scaling:
        Whether operations write per-node scale factors.
    mode:
        ``"serial"``, ``"concurrent"`` (greedy reverse level-order sets),
        ``"level"`` (optimal height grouping) or ``"incremental"``
        (dirty-path sets from :func:`repro.core.incremental.incremental_plan`).
    incremental:
        True for dirty-path plans: execution reuses the partials left by
        a previous full evaluation instead of invalidating them, and the
        operation sets cover only the dirty root-ward path.
    programs:
        The programs lowered from the operation sets, one per instance
        layout and tip kinds, from the plan's second execution on (never for an
        incremental plan); ``dataclasses.replace`` starts a new, empty
        one.
    """

    tree: Tree
    operation_sets: List[List[Operation]]
    matrix_indices: List[int]
    branch_lengths: List[float]
    root_buffer: int
    scaling: bool
    mode: str
    incremental: bool = False
    programs: PlanPrograms = field(
        default_factory=PlanPrograms, init=False, compare=False, repr=False
    )

    @property
    def n_launches(self) -> int:
        """Kernel launches this plan will issue."""
        return len(self.operation_sets)

    @property
    def n_operations(self) -> int:
        """Operations summed over all sets."""
        return sum(len(s) for s in self.operation_sets)

    @property
    def set_sizes(self) -> List[int]:
        """Operations per set, in launch order."""
        return [len(s) for s in self.operation_sets]


def make_plan(
    tree: Tree,
    mode: str = "concurrent",
    *,
    scaling: bool = False,
    verify: bool = False,
) -> ExecutionPlan:
    """Build an :class:`ExecutionPlan` for a bifurcating tree.

    Parameters
    ----------
    mode:
        ``"serial"`` — post-order, one operation per launch (the paper's
        sequential baseline, §VII-C); ``"concurrent"`` — reverse
        level-order with greedy BEAGLE batching; ``"level"`` — optimal
        height-grouped batching (scheduling ablation).
    scaling:
        Enable per-operation rescaling (manual-scaling style).
    verify:
        Run the static analyzer (:func:`repro.analysis.verify_plan`) on
        the finished plan and raise
        :class:`repro.analysis.PlanVerificationError` if it finds any
        buffer hazard — a guard rail for schedule-generation changes.
    """
    if not tree.is_bifurcating():
        raise ValueError("execution plans require a bifurcating tree")
    if tree.n_tips < 2:
        raise ValueError("need at least two tips")
    obs = get_recorder()
    with obs.span("plan.make", category="plan", mode=mode, tips=tree.n_tips):
        tree.assign_indices()
        if mode == "serial":
            sets = [[op] for op in postorder_operations(tree, scaling=scaling)]
        elif mode == "concurrent":
            ops = reverse_levelorder_operations(tree, scaling=scaling)
            sets = build_operation_sets(ops)
        elif mode == "level":
            sets = level_schedule(tree, scaling=scaling)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        indices, lengths = matrix_updates(tree)
        plan = ExecutionPlan(
            tree=tree,
            operation_sets=sets,
            matrix_indices=indices,
            branch_lengths=lengths,
            root_buffer=tree.index_of(tree.root),
            scaling=scaling,
            mode=mode,
        )
    if obs.enabled:
        obs.count("repro_plans_built_total")
        obs.observe("repro_sets_per_plan", plan.n_launches)
    if verify:
        # Imported lazily: repro.analysis depends on this module.
        from ..analysis.verifier import verify_plan

        verify_plan(plan).raise_if_errors()
    return plan


def create_instance(
    tree: Tree,
    model: SubstitutionModel,
    patterns: PatternData,
    *,
    rates: Optional[RateCategories] = None,
    scaling: bool = False,
    dtype=np.float64,
) -> BeagleInstance:
    """Create and populate an engine instance for a (tree, model, data) triple.

    Tips are matched to pattern taxa by name (:func:`load_tips`), and the
    model and rate parameters are loaded by :func:`load_parameters`.
    """
    rates = rates or single_rate()
    tips = tree.tips()
    if {t.name for t in tips} != patterns.taxon_set:
        raise ValueError("tree tips and pattern taxa must match by name")
    n = len(tips)
    instance = BeagleInstance(
        tip_count=n,
        partials_buffer_count=n - 1,
        matrix_count=2 * n - 1,
        pattern_count=patterns.n_patterns,
        state_count=model.n_states,
        category_count=rates.n_categories,
        scale_buffer_count=n if scaling else 0,
        dtype=dtype,
    )
    load_tips(instance, tree, patterns)
    load_parameters(instance, model, patterns, rates)
    return instance


def load_tips(instance: BeagleInstance, tree: Tree, patterns: PatternData) -> None:
    """Load every tip's data row into the tip buffer the tree assigns it.

    The tree's canonical (left-to-right) indexing is (re)assigned, so
    instance and plan agree no matter which is created first; data rows
    are matched to tip buffers by taxon name. Taxa with partial-ambiguity
    characters are loaded as tip partials, the rest as compact states
    (exactly the ``setTipStates``/``setTipPartials`` split in BEAGLE); the
    compact tips load in one validated batch.

    Raises
    ------
    ValueError
        If a tip's name is not a pattern taxon.
    """
    tree.assign_indices()
    row_of = patterns.rows
    names = [tip.name for tip in tree.tips()]
    try:
        rows = [row_of[name] for name in names]
    except KeyError as missing:
        raise ValueError(f"tip {missing.args[0]!r} is not a pattern taxon") from None
    compact = range(len(names))
    if patterns.partials:
        compact = []
        for index, name in enumerate(names):
            if name in patterns.partials:
                instance.set_tip_partials(index, patterns.tip_partials(name))
            else:
                compact.append(index)
        rows = [rows[index] for index in compact]
    if compact:
        instance.set_tip_states_rows(compact, patterns.codes[rows])


def load_parameters(
    instance: BeagleInstance,
    model: SubstitutionModel,
    patterns: PatternData,
    rates: RateCategories,
) -> None:
    """Load pattern weights, frequencies, category rates and weights and
    the model's eigendecomposition (the per-evaluation parameters)."""
    instance.set_pattern_weights(patterns.weights)
    instance.set_state_frequencies(model.frequencies)
    instance.set_category_rates(rates.rates)
    instance.set_category_weights(rates.probabilities)
    instance.set_eigen_decomposition(0, model.eigen)


def execute_plan(
    instance: BeagleInstance,
    plan: ExecutionPlan,
    *,
    update_matrices: bool = True,
) -> float:
    """Run a plan on an instance and return the root log-likelihood.

    From a plan's second execution on, on any instance, its sets run as
    the program the plan lowered for the instance's layout
    (:meth:`~repro.beagle.instance.BeagleInstance.bind_plan`).

    When the plan has scaling enabled, per-node scale factors written by
    the operations are accumulated into the cumulative buffer (the last
    slot of the scale bank — internal nodes use slots ``0 .. n−2``, so
    slot ``n−1`` is reserved) before the root reduction: BEAGLE's
    ``accumulateScaleFactors`` + ``calculateRootLogLikelihoods`` sequence.
    """
    obs = get_recorder()
    if obs.enabled:
        with obs.span(
            "plan.execute",
            category="plan",
            mode=plan.mode,
            launches=plan.n_launches,
            operations=plan.n_operations,
        ):
            return _execute_plan_body(instance, plan, update_matrices)
    return _execute_plan_body(instance, plan, update_matrices)


def _execute_plan_body(
    instance: BeagleInstance, plan: ExecutionPlan, update_matrices: bool
) -> float:
    """Body of :func:`execute_plan`, shared by the traced and plain paths."""
    if not plan.incremental:
        instance.invalidate_partials()
    if update_matrices and len(plan.matrix_indices):
        # A dirty path that only rewires operations (an NNI) updates no
        # matrix, so it skips the call and its per-call checks.
        instance.update_transition_matrices(
            0, plan.matrix_indices, plan.branch_lengths
        )
    # One update_partials_set call per set, so every wrapper in the stack
    # sees each launch; the bound program resolves each call to its
    # precompiled step.
    instance.bind_plan(plan)
    try:
        for op_set in plan.operation_sets:
            instance.update_partials_set(op_set)
    finally:
        instance.unbind_plan()

    if not plan.scaling:
        return instance.calculate_root_log_likelihood(plan.root_buffer)
    scale_indices = [
        op.destination_scale
        for op_set in plan.operation_sets
        for op in op_set
        if op.destination_scale >= 0
    ]
    cumulative = instance.scale.count - 1
    instance.scale.reset(cumulative)
    instance.scale.accumulate(scale_indices, cumulative)
    return instance.calculate_root_log_likelihood(plan.root_buffer, cumulative)


@dataclass
class GradientPlan:
    """A post-order plan plus its pre-order upper-partial pass.

    The structure is fixed once built. Only the branch lengths change: a
    :class:`~repro.inference.derivatives.DerivativeSession` rewrites
    ``post.branch_lengths`` and :attr:`pulley_length` in place between
    sweeps on the same topology, so the programs both plans hold stay
    valid.

    Attributes
    ----------
    post:
        The unscaled :class:`ExecutionPlan` computing every lower
        (subtree) partials buffer. Unscaled by construction — the
        all-branch recombination must match the per-edge rerooted
        derivative oracle bit for bit, and the oracle runs unscaled.
    upper_operation_sets:
        Independent upper-operation groups in pre-order (parents before
        children); each inner list is one ``update_upper_partials``
        launch. ``2n − 4`` operations total for ``n ≥ 3`` tips.
    seeds:
        ``(upper destination, lower source)`` copy pairs seeding the two
        root children's upper buffers.
    pulley_matrix, pulley_length:
        Matrix slot and branch length of the merged pulley edge (the
        root's own — otherwise unused — matrix index, and the sum of the
        two root-child branch lengths).
    mode:
        ``"concurrent"`` (greedy level batching) or ``"serial"`` (one
        operation per launch).
    programs:
        The upper pass's programs, as :attr:`ExecutionPlan.programs`
        (``post`` holds the post-order pass's).
    """

    post: ExecutionPlan
    upper_operation_sets: List[List[Operation]]
    seeds: List[tuple]
    pulley_matrix: int
    pulley_length: float
    mode: str
    programs: PlanPrograms = field(
        default_factory=PlanPrograms, init=False, compare=False, repr=False
    )

    @property
    def tree(self) -> Tree:
        """The tree both passes were built from."""
        return self.post.tree

    @property
    def n_launches(self) -> int:
        """Kernel launches across both passes."""
        return self.post.n_launches + len(self.upper_operation_sets)

    @property
    def n_operations(self) -> int:
        """Partial-update operations across both passes (``3n − 5``)."""
        return self.post.n_operations + sum(
            len(s) for s in self.upper_operation_sets
        )

    @property
    def upper_set_sizes(self) -> List[int]:
        """Upper operations per set, in launch order."""
        return [len(s) for s in self.upper_operation_sets]


def make_gradient_plan(
    tree: Tree, mode: str = "concurrent", *, verify: bool = False
) -> GradientPlan:
    """Build the one-sweep all-branch gradient plan for a bifurcating tree.

    Parameters
    ----------
    mode:
        ``"concurrent"`` — both passes batched into independent sets
        (post-order via greedy reverse level-order, pre-order via greedy
        level order, so a shallower tree yields fewer launches in *both*
        directions); ``"serial"`` — one operation per launch in both
        passes (the launch-overhead baseline).
    verify:
        Run the static analyzer
        (:func:`repro.analysis.verify_gradient_plan`) over the combined
        def/use contract and raise on any hazard.
    """
    if mode not in ("serial", "concurrent"):
        raise ValueError(f"unknown mode {mode!r}")
    if tree.n_tips < 3:
        raise ValueError("gradient plans require at least three tips")
    post = make_plan(tree, mode=mode, scaling=False)
    obs = get_recorder()
    with obs.span(
        "plan.gradient", category="plan", mode=mode, tips=tree.n_tips
    ):
        upper_ops = preorder_upper_operations(tree)
        if mode == "serial":
            upper_sets = [[op] for op in upper_ops]
        else:
            upper_sets = build_operation_sets(upper_ops)
        pulley_index, pulley_length = pulley_matrix_update(tree)
        plan = GradientPlan(
            post=post,
            upper_operation_sets=upper_sets,
            seeds=upper_seeds(tree),
            pulley_matrix=pulley_index,
            pulley_length=pulley_length,
            mode=mode,
        )
    if obs.enabled:
        obs.count("repro_gradient_plans_built_total")
    if verify:
        # Imported lazily: repro.analysis depends on this module.
        from ..analysis.verifier import verify_gradient_plan

        verify_gradient_plan(plan).raise_if_errors()
    return plan


def execute_gradient_plan(
    instance: BeagleInstance,
    gplan: GradientPlan,
    *,
    update_matrices: bool = True,
) -> float:
    """Run both sweeps and return the root log-likelihood.

    Order matters: the post-order pass first (filling every lower
    buffer and all branch matrices), then the merged pulley matrix, then
    the upper bank — seeds before level sets, parents before children.
    Afterwards :meth:`BeagleInstance.upper_partials` holds, for every
    non-root node, the far-side half-tree partials of its branch —
    bit-identical to what a rerooted per-edge evaluation computes.
    """
    obs = get_recorder()
    with obs.span(
        "gradient.sweep",
        category="plan",
        mode=gplan.mode,
        launches=gplan.n_launches,
        operations=gplan.n_operations,
    ):
        log_likelihood = execute_plan(
            instance, gplan.post, update_matrices=update_matrices
        )
        if update_matrices:
            instance.update_transition_matrices(
                0, [gplan.pulley_matrix], [gplan.pulley_length]
            )
        instance.enable_upper_partials()
        instance.invalidate_upper_partials()
        for destination, source in gplan.seeds:
            instance.seed_upper_partials(destination, source)
        # Bound after the seeds are copied, so the program's start check
        # covers every slot the upper sets read; the gradient plan holds
        # the upper sets' programs, gplan.post the post-order sets'.
        instance.bind_plan(gplan, gplan.upper_operation_sets)
        try:
            for op_set in gplan.upper_operation_sets:
                instance.update_upper_partials_set(op_set)
        finally:
            instance.unbind_plan()
    if obs.enabled:
        obs.count("repro_gradient_sweeps_total")
    return log_likelihood
