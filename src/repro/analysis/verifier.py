"""Whole-plan static verification.

:func:`verify_plan` proves an :class:`~repro.core.planner.ExecutionPlan`
hazard-free without executing it: the buffer dataflow of every operation
set (via :mod:`repro.analysis.dataflow`), the intra-set race proofs
(via :mod:`repro.analysis.races`), the matrix-update table, the
branch-length vector, and plan-level structure (root reachability,
operation count). :func:`verify_operation_sets` exposes the same engine
for bare schedules — incremental dirty-path updates, hand-built streams
— where no full plan object exists.
"""

from __future__ import annotations

from math import isfinite
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from ..beagle.operations import Operation
from .config import BufferConfig
from .dataflow import analyze_operation_sets
from .diagnostics import AnalysisReport, Diagnostic, Severity
from .races import check_matrix_update_races, check_set_races

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..beagle.instance import BeagleInstance
    from ..core.planner import ExecutionPlan, GradientPlan

__all__ = [
    "verify_plan",
    "verify_gradient_plan",
    "verify_operation_sets",
    "verify_instance_compat",
]


def verify_operation_sets(
    operation_sets: Sequence[Sequence[Operation]],
    config: BufferConfig,
    *,
    assume_valid: Iterable[int] = (),
    root_buffer: Optional[int] = None,
    matrix_updates: Optional[Sequence[int]] = None,
    check_dead_writes: bool = True,
    races: bool = True,
) -> AnalysisReport:
    """Dataflow-verify a bare operation-set schedule.

    ``races`` (default on) additionally runs the footprint-based
    intra-set WAW/WAR/RAW race prover
    (:func:`repro.analysis.races.check_set_races`) over the same sets —
    this is how ``incremental_plan(verify=True)`` dirty paths get their
    concurrency proof.
    """
    report = AnalysisReport(
        analyze_operation_sets(
            operation_sets,
            config,
            assume_valid=assume_valid,
            root_buffer=root_buffer,
            matrix_updates=matrix_updates,
            check_dead_writes=check_dead_writes,
        )
    )
    if races:
        report.extend(check_set_races(operation_sets))
    return report


def verify_plan(
    plan: "ExecutionPlan",
    *,
    config: Optional[BufferConfig] = None,
    instance: Optional["BeagleInstance"] = None,
) -> AnalysisReport:
    """Statically verify a full execution plan.

    Parameters
    ----------
    plan:
        The plan to check.
    config:
        Buffer layout to verify against; defaults to the layout
        :func:`repro.core.planner.create_instance` would build for the
        plan's tree (``BufferConfig.for_tree``).
    instance:
        Alternatively, an existing engine instance whose actual layout
        should be used — catches plan/instance mismatches.

    Returns
    -------
    AnalysisReport
        Empty (``report.clean``) for every plan the library's planners
        produce; ``report.ok`` is False when execution would fail or
        silently compute a wrong likelihood.

    Notes
    -----
    Incremental plans (``plan.incremental``) are verified under the
    dirty-path contract: buffers outside the plan's destinations are
    assumed live from the preceding full evaluation, the full-traversal
    operation-count invariant does not apply, and the root must be among
    the dirty destinations (a dirty path always ends at the root).

    Plans and :class:`BufferConfig` name buffer indices and operation
    sets only, never how a set is executed — so one verified plan is
    verified for either set-executor strategy (neither reorders nor
    regroups a set's reads and writes across launches; see
    :mod:`repro.beagle.setexec`).
    """
    if config is not None and instance is not None:
        raise ValueError("pass either config or instance, not both")
    if instance is not None:
        config = BufferConfig.from_instance(instance)
    if config is None:
        config = BufferConfig.for_tree(plan.tree, scaling=plan.scaling)

    report = AnalysisReport()
    if plan.incremental:
        report.extend(_check_incremental_structure(plan, config))
        destinations = {
            op.destination for op_set in plan.operation_sets for op in op_set
        }
        clean = {
            b
            for b in range(config.n_buffers)
            if config.is_internal(b) and b not in destinations
        }
        report.extend(
            analyze_operation_sets(
                plan.operation_sets,
                config,
                assume_valid=clean,
                root_buffer=plan.root_buffer,
                matrix_updates=None,
            )
        )
        report.extend(check_set_races(plan.operation_sets))
        report.extend(
            check_matrix_update_races(plan.matrix_indices, plan.branch_lengths)
        )
        return report
    report.extend(_check_plan_structure(plan, config))
    report.extend(
        analyze_operation_sets(
            plan.operation_sets,
            config,
            root_buffer=plan.root_buffer,
            matrix_updates=plan.matrix_indices,
        )
    )
    report.extend(check_set_races(plan.operation_sets))
    report.extend(
        check_matrix_update_races(plan.matrix_indices, plan.branch_lengths)
    )
    return report


def verify_gradient_plan(gplan: "GradientPlan") -> AnalysisReport:
    """Statically verify a one-sweep all-branch gradient plan.

    The post-order half is checked under the ordinary full-plan contract
    (:func:`verify_plan`). The pre-order half is checked under the
    *upper-bank* contract over the combined index space: upper buffers
    ``upper_base .. upper_base + 2n − 2`` are modelled as additional
    internal partials buffers, the lower internals and the two seeded
    root-child uppers are assumed valid (the post pass and the seed
    copies produce them), and the merged pulley matrix joins the
    matrix-update table. Dead-write checking is off for the upper sets —
    every upper buffer is read *externally* by the per-branch
    recombination, so leaf-node uppers that no upper operation consumes
    are the product, not a bug.

    Structural invariants checked on top of the dataflow: operation
    count (``2n − 4``), seed shape (exactly the two root children,
    seeded from each other's subtrees), bank discipline (``child1``
    lower; ``child2`` upper, or a root child's lowers — the seed source
    a root child's children read directly; destination upper; each
    non-root non-root-child node written exactly once), and pulley-matrix
    sanity (the root's own matrix slot, finite non-negative merged
    length).
    """
    report = AnalysisReport()
    report.extend(verify_plan(gplan.post))
    tree = gplan.tree
    n = tree.n_tips
    base = 2 * n - 1
    config = BufferConfig(
        tip_count=n,
        partials_buffer_count=(n - 1) + (2 * n - 1),
        matrix_count=2 * n - 1,
        scale_buffer_count=0,
    )
    lower_internals = set(range(n, 2 * n - 1))
    seeded = {destination for destination, _ in gplan.seeds}
    report.extend(
        verify_operation_sets(
            gplan.upper_operation_sets,
            config,
            assume_valid=lower_internals | seeded,
            matrix_updates=list(gplan.post.matrix_indices)
            + [gplan.pulley_matrix],
            check_dead_writes=False,
        )
    )
    report.extend(_check_gradient_structure(gplan, base))
    return report


def _check_gradient_structure(
    gplan: "GradientPlan", base: int
) -> Iterable[Diagnostic]:
    """Gradient-plan invariants beyond per-operation dataflow."""
    # Imported here: repro.core.planner depends on this module.
    from ..core.schedule import pulley_matrix_update, upper_seeds

    out = []
    tree = gplan.tree
    n = tree.n_tips
    expected_ops = max(2 * n - 4, 0)
    if gplan.n_operations - gplan.post.n_operations != expected_ops:
        actual = gplan.n_operations - gplan.post.n_operations
        out.append(
            Diagnostic(
                code="upper-operation-count",
                severity=Severity.ERROR,
                message=(
                    f"gradient plan has {actual} upper operations but a "
                    f"{n}-tip tree needs exactly {expected_ops} (one per "
                    f"non-root node below the root children)"
                ),
                hint="an upper operation was dropped or duplicated",
            )
        )
    if sorted(gplan.seeds) != sorted(upper_seeds(tree)):
        out.append(
            Diagnostic(
                code="bad-upper-seeds",
                severity=Severity.ERROR,
                message=(
                    f"seeds {gplan.seeds!r} do not seed the two root "
                    f"children from each other's subtrees"
                ),
                hint="each root child's upper buffer is its sibling's lowers",
            )
        )
    seed_sources = {source for _, source in upper_seeds(tree)}
    seen: set = set()
    for op_set in gplan.upper_operation_sets:
        for op in op_set:
            if op.destination < base:
                out.append(
                    Diagnostic(
                        code="upper-destination-in-lower-bank",
                        severity=Severity.ERROR,
                        message=(
                            f"upper operation writes lower buffer "
                            f"{op.destination}; the pre-order pass must "
                            f"never clobber post-order partials"
                        ),
                        buffers=(op.destination,),
                    )
                )
            if op.child1 >= base:
                out.append(
                    Diagnostic(
                        code="upper-child1-not-lower",
                        severity=Severity.ERROR,
                        message=(
                            f"upper operation for buffer {op.destination} "
                            f"reads child1 {op.child1} from the upper "
                            f"bank; the sibling contribution must come "
                            f"from lower partials"
                        ),
                        buffers=(op.child1,),
                    )
                )
            if op.child2 < base and op.child2 not in seed_sources:
                out.append(
                    Diagnostic(
                        code="upper-child2-not-upper",
                        severity=Severity.ERROR,
                        message=(
                            f"upper operation for buffer {op.destination} "
                            f"reads child2 {op.child2} from the lower "
                            f"bank; the parent contribution must come "
                            f"from upper partials (or a root child's "
                            f"lowers)"
                        ),
                        buffers=(op.child2,),
                    )
                )
            if op.destination in seen:
                out.append(
                    Diagnostic(
                        code="upper-buffer-rewritten",
                        severity=Severity.ERROR,
                        message=(
                            f"upper buffer {op.destination} is written "
                            f"more than once in one sweep"
                        ),
                        buffers=(op.destination,),
                    )
                )
            seen.add(op.destination)
    expected_matrix, expected_length = pulley_matrix_update(tree)
    if gplan.pulley_matrix != expected_matrix:
        out.append(
            Diagnostic(
                code="bad-pulley-matrix",
                severity=Severity.ERROR,
                message=(
                    f"pulley matrix slot {gplan.pulley_matrix} is not the "
                    f"root's matrix index {expected_matrix}"
                ),
                buffers=(gplan.pulley_matrix,),
            )
        )
    if not isfinite(gplan.pulley_length) or gplan.pulley_length < 0:
        out.append(
            Diagnostic(
                code="invalid-branch-length",
                severity=Severity.ERROR,
                message=(
                    f"merged pulley length {gplan.pulley_length!r} must be "
                    f"finite and non-negative"
                ),
                buffers=(gplan.pulley_matrix,),
            )
        )
    elif abs(gplan.pulley_length - expected_length) > 0.0:
        out.append(
            Diagnostic(
                code="stale-pulley-length",
                severity=Severity.WARNING,
                message=(
                    f"merged pulley length {gplan.pulley_length!r} does "
                    f"not match the tree's root-child lengths "
                    f"({expected_length!r}); the gradient of the pulley "
                    f"edge would be evaluated at the wrong point"
                ),
                buffers=(gplan.pulley_matrix,),
            )
        )
    return out


def verify_instance_compat(
    plan: "ExecutionPlan", instance: "BeagleInstance"
) -> AnalysisReport:
    """Verify a plan against the layout of a concrete instance."""
    return verify_plan(plan, instance=instance)


def _check_incremental_structure(
    plan: "ExecutionPlan", config: BufferConfig
) -> Iterable[Diagnostic]:
    """Plan-level invariants of a dirty-path (incremental) plan.

    The full-traversal operation-count check does not apply — an
    incremental plan covers only the dirty ancestors — but the root must
    still be written (every dirty path ends at the root), and the matrix
    table must be well-formed.
    """
    out = list(_check_root_written(plan, config))
    out.extend(_check_matrix_table(plan))
    out.extend(_check_scale_writes(plan))
    return out


def _check_plan_structure(
    plan: "ExecutionPlan", config: BufferConfig
) -> Iterable[Diagnostic]:
    """Plan-level invariants that are not per-operation dataflow."""
    out = list(_check_root_written(plan, config))

    expected_ops = plan.tree.n_tips - 1
    if plan.n_operations != expected_ops:
        out.append(
            Diagnostic(
                code="operation-count",
                severity=Severity.ERROR,
                message=(
                    f"plan has {plan.n_operations} operations but a "
                    f"{plan.tree.n_tips}-tip tree needs exactly "
                    f"{expected_ops} (one per internal node)"
                ),
                hint="an operation was dropped or duplicated",
            )
        )

    out.extend(_check_matrix_table(plan))
    out.extend(_check_scale_writes(plan))
    return out


def _check_root_written(
    plan: "ExecutionPlan", config: BufferConfig
) -> Iterable[Diagnostic]:
    """The root buffer must be an internal buffer some operation writes."""
    out = []
    destinations = {
        op.destination for op_set in plan.operation_sets for op in op_set
    }
    if plan.root_buffer not in destinations:
        if config.is_internal(plan.root_buffer):
            out.append(
                Diagnostic(
                    code="root-not-written",
                    severity=Severity.ERROR,
                    message=(
                        f"root buffer {plan.root_buffer} is never written; "
                        f"the root reduction would read stale or "
                        f"uninitialized partials"
                    ),
                    buffers=(plan.root_buffer,),
                    hint="the final operation set must compute the root",
                )
            )
        else:
            out.append(
                Diagnostic(
                    code="root-not-written",
                    severity=Severity.ERROR,
                    message=(
                        f"root buffer {plan.root_buffer} is not an internal "
                        f"partials buffer"
                    ),
                    buffers=(plan.root_buffer,),
                )
            )
    return out


def _check_matrix_table(plan: "ExecutionPlan") -> Iterable[Diagnostic]:
    """The matrix-update table must pair up and hold finite lengths."""
    out = []
    if len(plan.matrix_indices) != len(plan.branch_lengths):
        out.append(
            Diagnostic(
                code="matrix-update-shape",
                severity=Severity.ERROR,
                message=(
                    f"{len(plan.matrix_indices)} matrix indices but "
                    f"{len(plan.branch_lengths)} branch lengths"
                ),
            )
        )
    for m, t in zip(plan.matrix_indices, plan.branch_lengths):
        if not isfinite(t) or t < 0:
            out.append(
                Diagnostic(
                    code="invalid-branch-length",
                    severity=Severity.ERROR,
                    message=(
                        f"matrix {m} is updated with branch length {t!r}; "
                        f"lengths must be finite and non-negative"
                    ),
                    buffers=(m,),
                )
            )
    return out


def _check_scale_writes(plan: "ExecutionPlan") -> Iterable[Diagnostic]:
    """Warn when a scaling plan has operations that skip scale writes."""
    out = []
    if plan.scaling:
        missing = [
            op.destination
            for op_set in plan.operation_sets
            for op in op_set
            if op.destination_scale < 0
        ]
        if missing:
            out.append(
                Diagnostic(
                    code="missing-scale-write",
                    severity=Severity.WARNING,
                    message=(
                        f"plan has scaling enabled but {len(missing)} "
                        f"operation(s) write no scale factors (first: "
                        f"buffer {missing[0]}); their levels can underflow"
                    ),
                    buffers=tuple(missing[:4]),
                )
            )
    return out
