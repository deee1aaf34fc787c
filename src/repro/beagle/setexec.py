"""The operation-set executor: one kernel path for both passes.

:func:`execute_set` runs one validated, independent operation set — the
body of one BEAGLE multi-operation kernel launch — and picks its strategy
from the set's width alone:

* **per operation** (:func:`execute_per_operation`) for sets narrower
  than :data:`ARENA_MIN_OPS`: each operation runs through the single-
  operation kernel (:func:`~repro.beagle.kernels.update_partials`)
  straight into its destination and is rescaled in place. A pectinate
  tree's sets hold one or two operations, so there is no batch axis to
  amortise the arena's gathers and scatters over.
* **arena blocks** (:func:`execute_arena`) otherwise: the set is cut
  along the batch axis into blocks of :func:`block_ops` operations, and
  each block runs through the instance's
  :class:`~repro.beagle.workspace.Workspace` — classification, gathers,
  batched matmuls, the contribution product, rescaling and the scatter.

Both passes share it. Upper (pre-order) buffers are rows of the same
partials store as lower buffers (see
:meth:`~repro.beagle.instance.BeagleInstance.enable_upper_partials`), so a
pre-order operation is an ordinary :class:`~repro.beagle.operations.Operation`
and every child resolves through one lookup.

Bit-identity across strategies is structural: the batched ``matmul`` over
``(n, C, P, S)`` stacks is a loop of independent 2-D products, the tip-
code path is an exact gather, and the rescale is the same max/divide/log
sequence, so any partition of a set computes the same bits.
``tests/property/test_set_executor.py`` asserts it for every strategy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from ..obs import get_recorder
from ..obs.profile import PHASE_PARTIALS, PHASE_SCALING
from .kernels import rescale_partials, update_partials

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .instance import BeagleInstance
    from .operations import Operation
    from .workspace import Workspace

__all__ = [
    "ARENA_MIN_OPS",
    "CACHE_BUDGET_BYTES",
    "block_ops",
    "execute_set",
    "execute_per_operation",
    "execute_arena",
    "execute_operation",
    "rescale_operation",
]

#: Sets with fewer operations than this run per operation; wider sets run
#: through the arena. Measured with ``benchmarks/bench_set_executor.py``
#: (2-vCPU Xeon, NumPy 2.4, f64, 4 states, 1 category, one internal and
#: one tip child per operation), µs per set, per-op / arena:
#:
#: =====  ==========================  ===================
#: width  eval-narrow (128 patterns)  serve (64 patterns)
#: =====  ==========================  ===================
#: 1      19 / 48                     17 / 48
#: 2      38 / 53                     33 / 51
#: 3      55 / 56                     49 / 53
#: 4      74 / 62                     65 / 55
#: 8      149 / 78                    129 / 67
#: 16     319 / 113                   267 / 92
#: =====  ==========================  ===================
#:
#: Least-squares lines: per-op 0 + 19 µs/op (128) and 0 + 17 µs/op (64);
#: arena 45 µs + 4 µs/op and 44 µs + 3 µs/op. The arena's fixed cost is
#: the classification loop, gathers and scatter; the per-operation path
#: has none. The lines cross just below width 4 at both shapes (width 3
#: is a tie), so 4 is the narrowest set the arena takes.
ARENA_MIN_OPS = 4

#: Working-set target of one arena block. A block's hot rows span three
#: ``(2B, C, P, S)`` arrays (contributions, scratch, gathered). At the
#: eval-wide shape (1024 patterns × 4 categories, a 128 KiB row) 768 KiB
#: gives B = 4; the same sweep measured, µs per set for widths 16 / 64:
#: B = 2: 1729 / 8050, B = 4: 1784 / 8159, B = 8: 2093 / 9347, one block
#: per set: 2080 / 9699. B ≤ 4 keeps the block in the 2 MiB per-core L2
#: and is ~1.2x faster than B ≥ 8; B = 4 halves the per-block fixed cost
#: of B = 2 at equal speed. At the eval-narrow and serve shapes the
#: budget gives B = 32 and 64, so every set of width ≤ 16 there runs as
#: one block.
CACHE_BUDGET_BYTES = 768 * 1024

_MIN_BLOCK = 4
_MAX_BLOCK = 64


def block_ops(instance: "BeagleInstance") -> int:
    """Operations per arena block for this instance's dimensions.

    Three hot ``(2B, C, P, S)`` arrays per block — ``6·B·C·P·S``
    elements — inside :data:`CACHE_BUDGET_BYTES`, clamped to ``[4, 64]``.
    """
    row_bytes = (
        instance.category_count
        * instance.pattern_count
        * instance.state_count
        * instance.dtype.itemsize
    )
    block = CACHE_BUDGET_BYTES // (6 * row_bytes)
    return int(min(max(block, _MIN_BLOCK), _MAX_BLOCK))


def execute_set(instance: "BeagleInstance", ops: List["Operation"]) -> None:
    """Run one independent operation set, strategy chosen by its width."""
    if len(ops) < ARENA_MIN_OPS:
        execute_per_operation(instance, ops)
    else:
        execute_arena(instance, ops, block_ops(instance))


def execute_operation(instance: "BeagleInstance", op: "Operation") -> int:
    """One operation through the single-operation kernel.

    Writes the destination buffer in place and marks it valid; returns
    its store slot. Rescaling is left to the caller
    (:func:`rescale_operation`).
    """
    partials1, codes1 = instance._child_arrays(op.child1)
    partials2, codes2 = instance._child_arrays(op.child2)
    slot = instance._internal_slot(op.destination)
    update_partials(
        instance._matrices[op.child1_matrix],
        instance._matrices[op.child2_matrix],
        partials1,
        codes1,
        partials2,
        codes2,
        out=instance._partials[slot],
    )
    instance._partials_valid[slot] = True
    return slot


def rescale_operation(
    instance: "BeagleInstance", op: "Operation", slot: int
) -> None:
    """Rescale a computed destination and write its log factors (a no-op
    for an operation without a ``destination_scale``)."""
    if op.destination_scale >= 0:
        logs = rescale_partials(instance._partials[slot])
        instance.scale.write(op.destination_scale, logs)


def execute_per_operation(
    instance: "BeagleInstance", ops: List["Operation"]
) -> None:
    """Narrow-set strategy: each operation straight into its destination."""
    recorder = get_recorder()
    for op in ops:
        with recorder.phase(PHASE_PARTIALS):
            slot = execute_operation(instance, op)
        if op.destination_scale >= 0:
            with recorder.phase(PHASE_SCALING):
                rescale_operation(instance, op, slot)


def execute_arena(
    instance: "BeagleInstance", ops: List["Operation"], block: int
) -> None:
    """Wide-set strategy: the set in arena blocks of ``block`` operations."""
    k = len(ops)
    ws = instance.workspace
    ws.ensure(min(k, block))
    for lo in range(0, k, block):
        _execute_block(instance, ws, ops[lo : lo + block])


def _execute_block(
    instance: "BeagleInstance", ws: "Workspace", block: List["Operation"]
) -> None:
    """Evaluate one block of operations through the arena ``ws``.

    Child buffers are validated here (firsts before seconds, matching the
    serial order), destinations are written and marked valid, and
    operations carrying a ``destination_scale`` are rescaled exactly as
    the single-operation path rescales them. Block-local row layout
    (``nb`` operations): first children occupy contribution rows
    ``0..nb-1``, second children ``nb..2nb-1``.
    """
    nb = len(block)
    tip_count = instance.tip_count
    tip_codes = instance._tip_codes
    tip_partials = instance._tip_partials
    valid = instance._partials_valid
    with get_recorder().phase(PHASE_PARTIALS):
        # Classification pass: bucket each row as internal partials
        # (lower or upper bank alike), compact tip codes or explicit tip
        # partials. Pure int bookkeeping into preallocated arrays.
        n_int = n_code = n_exp = 0
        for row in range(2 * nb):
            op = block[row % nb]
            if row < nb:
                b, mat = op.child1, op.child1_matrix
            else:
                b, mat = op.child2, op.child2_matrix
            ws.child_buffers[row] = b
            if b < tip_count:
                if b in tip_codes:
                    ws.code_sel[n_code] = row
                    ws.code_tips[n_code] = b
                    ws.code_mats[n_code] = mat
                    n_code += 1
                elif b in tip_partials:
                    ws.explicit_sel[n_exp] = row
                    ws.explicit_mats[n_exp] = mat
                    n_exp += 1
                else:
                    raise ValueError(f"tip buffer {b} has no data")
            else:
                slot = instance._internal_slot(b)
                if not valid[slot]:
                    raise ValueError(
                        f"partials buffer {b} read before being computed"
                    )
                ws.internal_sel[n_int] = row
                ws.internal_slots[n_int] = slot
                ws.internal_mats[n_int] = mat
                n_int += 1
        for i, op in enumerate(block):
            ws.dest_slots[i] = instance._internal_slot(op.destination)

        C, S = instance.category_count, instance.state_count
        if n_int:
            # Internal children: gather partials and matrices into
            # contiguous stacks, one batched L @ Pᵀ, scatter back.
            np.take(
                instance._partials,
                ws.internal_slots[:n_int],
                axis=0,
                out=ws.gathered[:n_int],
            )
            np.take(
                instance._matrices,
                ws.internal_mats[:n_int],
                axis=0,
                out=ws.mats[:n_int],
            )
            np.copyto(ws.mats_T[:n_int], ws.mats[:n_int].transpose(0, 1, 3, 2))
            np.matmul(
                ws.gathered[:n_int], ws.mats_T[:n_int], out=ws.scratch[:n_int]
            )
            ws.contributions[ws.internal_sel[:n_int]] = ws.scratch[:n_int]
        if n_code:
            # Compact tips: transpose matrices and pad a ones row at
            # state index S (the "unknown" code), then resolve every
            # (row, category, pattern) to one flat row gather.
            np.take(
                instance._matrices,
                ws.code_mats[:n_code],
                axis=0,
                out=ws.mats[:n_code],
            )
            np.copyto(
                ws.padded_T[:n_code, :, :S, :],
                ws.mats[:n_code].transpose(0, 1, 3, 2),
            )
            ws.padded_T[:n_code, :, S, :] = 1.0
            np.take(
                instance._tip_codes_dense,
                ws.code_tips[:n_code],
                axis=0,
                out=ws.codes[:n_code],
            )
            np.add(
                ws.row_base[:n_code, :, None],
                ws.codes[:n_code][:, None, :],
                out=ws.rowidx[:n_code],
            )
            rows2d = ws.padded_T[:n_code].reshape(n_code * C * (S + 1), S)
            np.take(
                rows2d,
                ws.rowidx[:n_code],
                axis=0,
                out=ws.scratch[:n_code],
                mode="clip",
            )
            ws.contributions[ws.code_sel[:n_code]] = ws.scratch[:n_code]
        for j in range(n_exp):  # rare: partial-ambiguity tips
            row = int(ws.explicit_sel[j])
            partials = tip_partials[int(ws.child_buffers[row])]
            np.matmul(
                partials,
                instance._matrices[int(ws.explicit_mats[j])].transpose(0, 2, 1),
                out=ws.contributions[row],
            )

        product = ws.contributions[:nb]
        np.multiply(product, ws.contributions[nb : 2 * nb], out=product)
    if any(op.destination_scale >= 0 for op in block):
        with get_recorder().phase(PHASE_SCALING):
            factors = ws.scale_factors
            safe = ws.scale_safe
            mask = ws.scale_mask
            logs = ws.scale_logs
            for i, op in enumerate(block):
                if op.destination_scale < 0:
                    continue
                rows = product[i]  # (C, P, S) view
                np.amax(rows, axis=(0, 2), out=factors)
                np.less_equal(factors, 0.0, out=mask)
                np.copyto(safe, factors)
                safe[mask] = 1.0
                rows /= safe[None, :, None]
                np.log(safe, out=logs)
                instance.scale.write(op.destination_scale, logs)
    instance._partials[ws.dest_slots[:nb]] = product
    valid[ws.dest_slots[:nb]] = True
