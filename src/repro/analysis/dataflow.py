"""Buffer def/use dataflow analysis over operation streams.

The engine walks a plan's operation sets in submission order and tracks,
for every partials buffer, where it is written and where it is read —
the classic def/use chain, specialised to Felsenstein pruning's
single-assignment dataflow (paper §IV-B: each internal node is computed
exactly once per traversal, from its two children). From the chains it
derives typed hazards:

========================  ======================================================
code                      meaning
========================  ======================================================
``index-out-of-range``    destination / read / matrix index outside the layout
``tip-overwrite``         an operation's destination is a tip buffer
``write-write-hazard``    two operations in one set write the same buffer
``intra-set-dependency``  an operation reads another member's destination
                          (sets are concurrent — order inside is undefined)
``cross-set-dependency``  a read happens in an *earlier* set than the write it
                          needs (stale partials)
``read-before-write``     a read of an internal buffer no operation ever
                          writes and that is not assumed pre-computed
``buffer-rewritten``      a buffer written again in a later set (legal but
                          wasteful in a single-traversal plan)
``dead-write``            partials computed but never read nor rooted
``matrix-not-updated``    an operation uses a transition matrix the plan's
                          update list never refreshes
``duplicate-matrix-update``  the update list refreshes one matrix twice
``scale-without-buffers``  a scale write in a configuration with no bank
``cumulative-scale-write`` an operation writes the reserved cumulative slot
``scale-aliasing``        two operations write the same scale slot
========================  ======================================================
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..beagle.operations import Operation
from .config import BufferConfig
from .diagnostics import Diagnostic, Severity

__all__ = ["analyze_operation_sets"]


def _flatten(
    operation_sets: Sequence[Sequence[Operation]],
) -> List[Tuple[int, int, Operation]]:
    """``(set_index, global_op_index, op)`` triples in submission order."""
    out: List[Tuple[int, int, Operation]] = []
    i = 0
    for k, op_set in enumerate(operation_sets):
        for op in op_set:
            out.append((k, i, op))
            i += 1
    return out


def analyze_operation_sets(
    operation_sets: Sequence[Sequence[Operation]],
    config: BufferConfig,
    *,
    assume_valid: Iterable[int] = (),
    root_buffer: Optional[int] = None,
    matrix_updates: Optional[Sequence[int]] = None,
    check_dead_writes: bool = True,
) -> List[Diagnostic]:
    """Dataflow-check an operation-set sequence against a buffer layout.

    Parameters
    ----------
    operation_sets:
        The schedule: each inner sequence is one concurrent launch.
    config:
        Buffer layout to range-check against.
    assume_valid:
        Internal buffers presumed computed before the first set runs —
        how incremental (dirty-path) plans express that the untouched
        partials from the previous full evaluation are still live.
    root_buffer:
        Buffer the root reduction will read; a write that nothing reads
        is only a dead write if it is not the root either.
    matrix_updates:
        When given, the plan's transition-matrix refresh list; every
        matrix an operation uses must appear in it.
    check_dead_writes:
        Disable for streams where downstream reads happen outside the
        analyzed window (e.g. a prefix of a larger schedule).

    Returns
    -------
    list of Diagnostic
        In deterministic submission order; empty when the schedule is
        hazard-free.
    """
    diagnostics: List[Diagnostic] = []
    flat = _flatten(operation_sets)
    assumed: FrozenSet[int] = frozenset(assume_valid)

    # Def chains over the whole plan: buffer -> ordered (set, op) writes.
    writes: Dict[int, List[Tuple[int, int]]] = {}
    for k, i, op in flat:
        writes.setdefault(op.destination, []).append((k, i))
    read_anywhere: Set[int] = set()
    for _, _, op in flat:
        read_anywhere.update(op.reads())

    updated_matrices: Optional[FrozenSet[int]] = None
    if matrix_updates is not None:
        diagnostics.extend(_check_matrix_table(matrix_updates, config))
        updated_matrices = frozenset(matrix_updates)

    scale_writers: Dict[int, int] = {}  # scale slot -> first writer op index
    written_so_far: Set[int] = set()

    by_set: Dict[int, List[Tuple[int, Operation]]] = {}
    for k, i, op in flat:
        by_set.setdefault(k, []).append((i, op))

    for k in range(len(operation_sets)):
        set_destinations: Dict[int, int] = {}  # dest -> op index within plan
        ops_here = by_set.get(k, [])

        # Pass 1 over the set: destination legality and WW hazards.
        for i, op in ops_here:
            diagnostics.extend(_check_ranges(op, i, k, config))
            if op.destination in set_destinations:
                diagnostics.append(
                    Diagnostic(
                        code="write-write-hazard",
                        severity=Severity.ERROR,
                        message=(
                            f"operations {set_destinations[op.destination]} and "
                            f"{i} both write buffer {op.destination} in the "
                            f"same concurrent set"
                        ),
                        set_index=k,
                        op_index=i,
                        buffers=(op.destination,),
                        hint="split the aliasing operations into different sets",
                    )
                )
            else:
                set_destinations[op.destination] = i
            if op.destination in written_so_far:
                diagnostics.append(
                    Diagnostic(
                        code="buffer-rewritten",
                        severity=Severity.WARNING,
                        message=(
                            f"buffer {op.destination} is written again by "
                            f"operation {i}; a single-traversal plan computes "
                            f"each node once"
                        ),
                        set_index=k,
                        op_index=i,
                        buffers=(op.destination,),
                    )
                )

        # Pass 2: reads — intra-set, cross-set, uninitialized, matrices.
        for i, op in ops_here:
            for r in op.reads():
                if not config.valid_read(r):
                    continue  # already reported by _check_ranges
                if r in set_destinations and set_destinations[r] != i:
                    diagnostics.append(
                        Diagnostic(
                            code="intra-set-dependency",
                            severity=Severity.ERROR,
                            message=(
                                f"operation {i} reads buffer {r} which "
                                f"operation {set_destinations[r]} writes in "
                                f"the same concurrent set"
                            ),
                            set_index=k,
                            op_index=i,
                            buffers=(r,),
                            hint="move the reader into a later set",
                        )
                    )
                elif r in set_destinations:  # reads own destination
                    diagnostics.append(
                        Diagnostic(
                            code="intra-set-dependency",
                            severity=Severity.ERROR,
                            message=(
                                f"operation {i} reads its own destination "
                                f"buffer {r}"
                            ),
                            set_index=k,
                            op_index=i,
                            buffers=(r,),
                        )
                    )
                elif config.is_internal(r) and r not in written_so_far:
                    if r in writes:  # written, but only by a later set
                        wk, wi = writes[r][0]
                        diagnostics.append(
                            Diagnostic(
                                code="cross-set-dependency",
                                severity=Severity.ERROR,
                                message=(
                                    f"operation {i} (set {k}) reads buffer "
                                    f"{r} before operation {wi} (set {wk}) "
                                    f"writes it"
                                ),
                                set_index=k,
                                op_index=i,
                                buffers=(r,),
                                hint=(
                                    f"schedule the writer of buffer {r} in "
                                    f"an earlier set than its reader"
                                ),
                            )
                        )
                    elif r not in assumed:
                        diagnostics.append(
                            Diagnostic(
                                code="read-before-write",
                                severity=Severity.ERROR,
                                message=(
                                    f"operation {i} reads internal buffer "
                                    f"{r}, which no operation writes "
                                    f"(uninitialized partials)"
                                ),
                                set_index=k,
                                op_index=i,
                                buffers=(r,),
                                hint=(
                                    f"add the operation computing buffer {r} "
                                    f"or mark it as pre-computed"
                                ),
                            )
                        )
            if updated_matrices is not None:
                for m in (op.child1_matrix, op.child2_matrix):
                    if config.valid_matrix(m) and m not in updated_matrices:
                        diagnostics.append(
                            Diagnostic(
                                code="matrix-not-updated",
                                severity=Severity.ERROR,
                                message=(
                                    f"operation {i} uses transition matrix "
                                    f"{m} which the plan's matrix-update "
                                    f"list never refreshes"
                                ),
                                set_index=k,
                                op_index=i,
                                buffers=(m,),
                                hint=f"add matrix {m} to matrix_indices",
                            )
                        )
            diagnostics.extend(
                _check_scale(op, i, k, config, scale_writers)
            )

        written_so_far.update(set_destinations)

    if check_dead_writes:
        for k, i, op in flat:
            dest = op.destination
            if dest == root_buffer or dest in read_anywhere:
                continue
            if not config.is_internal(dest):
                continue  # already an error elsewhere
            # Only the *last* write can be live; earlier rewrites were
            # already flagged as buffer-rewritten.
            if writes[dest][-1] != (k, i):
                continue
            diagnostics.append(
                Diagnostic(
                    code="dead-write",
                    severity=Severity.WARNING,
                    message=(
                        f"operation {i} computes buffer {dest} but nothing "
                        f"reads it and it is not the root buffer"
                    ),
                    set_index=k,
                    op_index=i,
                    buffers=(dest,),
                    hint="drop the operation or root the plan on its result",
                )
            )

    return diagnostics


def _check_ranges(
    op: Operation, i: int, k: int, config: BufferConfig
) -> List[Diagnostic]:
    """Index-range legality of one operation's buffers and matrices."""
    out: List[Diagnostic] = []
    if config.is_tip(op.destination):
        out.append(
            Diagnostic(
                code="tip-overwrite",
                severity=Severity.ERROR,
                message=(
                    f"operation {i} writes tip buffer {op.destination}; tips "
                    f"hold observed data and are read-only"
                ),
                set_index=k,
                op_index=i,
                buffers=(op.destination,),
                hint=f"destinations must be ≥ tip_count ({config.tip_count})",
            )
        )
    elif not config.is_internal(op.destination):
        out.append(
            Diagnostic(
                code="index-out-of-range",
                severity=Severity.ERROR,
                message=(
                    f"operation {i} destination {op.destination} is outside "
                    f"the {config.n_buffers}-buffer layout"
                ),
                set_index=k,
                op_index=i,
                buffers=(op.destination,),
            )
        )
    for r in op.reads():
        if not config.valid_read(r):
            out.append(
                Diagnostic(
                    code="index-out-of-range",
                    severity=Severity.ERROR,
                    message=(
                        f"operation {i} reads buffer {r}, outside the "
                        f"{config.n_buffers}-buffer layout"
                    ),
                    set_index=k,
                    op_index=i,
                    buffers=(r,),
                )
            )
    for m in (op.child1_matrix, op.child2_matrix):
        if not config.valid_matrix(m):
            out.append(
                Diagnostic(
                    code="index-out-of-range",
                    severity=Severity.ERROR,
                    message=(
                        f"operation {i} uses transition matrix {m}, outside "
                        f"the {config.matrix_count}-matrix layout"
                    ),
                    set_index=k,
                    op_index=i,
                    buffers=(m,),
                )
            )
    return out


def _check_scale(
    op: Operation,
    i: int,
    k: int,
    config: BufferConfig,
    scale_writers: Dict[int, int],
) -> List[Diagnostic]:
    """Scale-buffer discipline for one operation."""
    out: List[Diagnostic] = []
    s = op.destination_scale
    if s < 0:
        return out
    if config.scale_buffer_count <= 0:
        out.append(
            Diagnostic(
                code="scale-without-buffers",
                severity=Severity.ERROR,
                message=(
                    f"operation {i} writes scale buffer {s} but the "
                    f"configuration has no scale-buffer bank"
                ),
                set_index=k,
                op_index=i,
                buffers=(s,),
                hint="build the instance with scaling enabled",
            )
        )
        return out
    if s == config.cumulative_scale:
        out.append(
            Diagnostic(
                code="cumulative-scale-write",
                severity=Severity.ERROR,
                message=(
                    f"operation {i} writes scale buffer {s}, the reserved "
                    f"cumulative accumulator"
                ),
                set_index=k,
                op_index=i,
                buffers=(s,),
                hint=(
                    f"per-node factors go to slots 0 .. "
                    f"{config.scale_buffer_count - 2}"
                ),
            )
        )
        return out
    if not 0 <= s < config.scale_buffer_count:
        out.append(
            Diagnostic(
                code="index-out-of-range",
                severity=Severity.ERROR,
                message=(
                    f"operation {i} scale buffer {s} is outside the "
                    f"{config.scale_buffer_count}-slot bank"
                ),
                set_index=k,
                op_index=i,
                buffers=(s,),
            )
        )
        return out
    if s in scale_writers:
        out.append(
            Diagnostic(
                code="scale-aliasing",
                severity=Severity.ERROR,
                message=(
                    f"operations {scale_writers[s]} and {i} both write scale "
                    f"buffer {s}; the second overwrites the first's factors "
                    f"before accumulation"
                ),
                set_index=k,
                op_index=i,
                buffers=(s,),
                hint="give every scaled operation its own slot",
            )
        )
    else:
        scale_writers[s] = i
    return out


def _check_matrix_table(
    matrix_updates: Sequence[int], config: BufferConfig
) -> List[Diagnostic]:
    """Legality of the plan's matrix-refresh list itself."""
    out: List[Diagnostic] = []
    seen: Set[int] = set()
    for m in matrix_updates:
        if not config.valid_matrix(m):
            out.append(
                Diagnostic(
                    code="index-out-of-range",
                    severity=Severity.ERROR,
                    message=(
                        f"matrix-update entry {m} is outside the "
                        f"{config.matrix_count}-matrix layout"
                    ),
                    buffers=(m,),
                )
            )
        if m in seen:
            out.append(
                Diagnostic(
                    code="duplicate-matrix-update",
                    severity=Severity.WARNING,
                    message=f"matrix {m} appears twice in the update list",
                    buffers=(m,),
                )
            )
        seen.add(m)
    return out
