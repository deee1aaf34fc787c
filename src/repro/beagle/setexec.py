"""The operation-set executor: operation sets lowered to programs.

:func:`compile_program` lowers a plan's operation sets once for one
instance layout (:class:`~repro.beagle.instance.BeagleInstance`
dimensions, store rows and dtype). Lowering proves each set independent,
resolves every child to a store slot, an explicit-tip index or a
compact-tip row and every destination to a store slot, checks tip data
and index ranges, and records the store slots the program reads before
it writes them. A :class:`Program` then runs one step per set — the body
of one BEAGLE multi-operation kernel launch — with no lookups left but
the arrays themselves. The plan holds its programs
(:class:`PlanPrograms`), and a program holds no state of any instance or
run, so every instance with the same layout and tip kinds runs the
program lowered once, a fresh instance per served request included.
Each set's step kind is chosen from its width and from the bytes of one
partials row of the instance (:func:`arena_fits`):

* **narrow steps** for sets narrower than :data:`ARENA_MIN_OPS`: each
  operation is ``matmul(P[slot], M[m]ᵀ, out=)`` per internal child, one
  ``multiply`` into its destination, then the rescale. A compact-tip
  child's contribution depends only on the matrices, not on any earlier
  set, so in a program of several sets the tip children of a run of
  narrow sets are gathered in one padded-matrix ``np.take`` (a
  :class:`_TipChunk`, at most :data:`CACHE_BUDGET_BYTES` of rows) before
  their steps, off the rerooted tree's dependency chain; a one-set
  program takes each tip's rows in its step. A pectinate tree's sets
  hold one or two operations, so there is no batch axis for the arena
  to amortise its gathers and scatters over.
* **arena steps** for wider sets: the set is cut along the batch axis
  into blocks of :func:`block_ops` operations whose child classification
  is fixed at lowering, and each block runs through the instance's
  :class:`~repro.beagle.workspace.Workspace` — gathers, batched matmuls,
  the contribution product, rescaling and the scatter.
* **per-operation steps for large rows**: when :func:`arena_fits` is
  false (rows over :data:`ARENA_MAX_ROW_BYTES`, 12 KiB), every set,
  whatever its width, is a narrow step with no hoisted tip chunk: each
  matmul and tip gather writes straight into the destination or the
  workspace's one-row scratch. A copy then costs as much as the
  arithmetic it feeds, and there is no per-call cost left for a batch
  to spread, so the arena's gathers and scatters are pure overhead; the
  workspace arena and its gathered tip rows are never allocated.

A set submitted outside a bound program (see
:meth:`~repro.beagle.instance.BeagleInstance.bind_plan`) runs as a one-set
program through :func:`execute_set`, and a set of a dirty-path plan that
lowers to a narrow step from per-destination entries (:class:`DirtyPath`).
Both passes share the executor: upper (pre-order) buffers are rows of
the same partials store as lower buffers, so a pre-order operation is
an ordinary :class:`~repro.beagle.operations.Operation`.

Bit-identity across step kinds is structural: the batched ``matmul`` over
``(n, C, P, S)`` stacks is a loop of independent 2-D products, the tip-
code path is an exact gather, and the rescale is the same max/divide/log
sequence, so any partition of a set computes the same bits.
``tests/property/test_set_executor.py`` asserts it for every step kind,
for arena blocks of any size and for whole bound programs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_recorder
from ..obs.profile import PHASE_PARTIALS, PHASE_SCALING
from .kernels import pattern_maxima
from .operations import operations_independent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .instance import BeagleInstance
    from .operations import Operation
    from .scaling import ScaleBufferBank
    from .workspace import Workspace

__all__ = [
    "ARENA_MAX_ROW_BYTES",
    "ARENA_MIN_OPS",
    "CACHE_BUDGET_BYTES",
    "DirtyPath",
    "PlanPrograms",
    "Program",
    "ProgramRun",
    "arena_fits",
    "block_ops",
    "compile_program",
    "execute_set",
]

#: Sets with fewer operations than this run as narrow steps; wider sets
#: run through the arena (rows up to :data:`ARENA_MAX_ROW_BYTES`).
#: Measured with ``benchmarks/bench_set_executor.py`` (2-vCPU Xeon, NumPy
#: 2.4, f64, 4 states, 1 category, one internal and one tip child per
#: operation, two sets compiled into one program, the two kinds
#: alternating), µs per set, narrow / arena:
#:
#: =====  ==========================  ===================
#: width  eval-narrow (128 patterns)  serve (64 patterns)
#: =====  ==========================  ===================
#: 1      16 / 33                     9 / 24
#: 2      21 / 36                     14 / 28
#: 4      33 / 39                     23 / 27
#: 5      38 / 41                     26 / 31
#: 6      44 / 43                     40 / 38
#: 8      57 / 47                     42 / 35
#: 16     119 / 52                    76 / 40
#: =====  ==========================  ===================
#:
#: Least-squares lines: narrow 2 µs + 6.6 µs/op (128) and 6 µs + 4.3 µs/op
#: (64); arena 31 µs + 1.9 µs/op and 25 µs + 1.3 µs/op. The arena's fixed
#: cost is its gathers and scatter; a narrow step has none, and its tip
#: children cost one shared gather. The lines cross at 6.0 and 6.1, and
#: width 6 is the first the arena wins at both shapes.
ARENA_MIN_OPS = 6

#: Working-set target of one arena block and of one narrow-step tip
#: chunk. A block's hot rows span three ``(2B, C, P, S)`` arrays
#: (contributions, scratch, gathered), so under :data:`ARENA_MAX_ROW_BYTES`
#: the budget gives blocks of 10 to 64 operations (B = 16 at 8 KiB rows,
#: 32 at eval-narrow's 4 KiB, 64 at serve's 2 KiB), which keeps a block
#: inside the 2 MiB per-core L2; the row sweep of
#: ``benchmarks/bench_set_executor.py`` times the arena with them.
CACHE_BUDGET_BYTES = 768 * 1024

#: The largest ``(C, P, S)`` partials row, in bytes, whose sets still run
#: as arena steps and hoisted tip chunks (:func:`arena_fits`). Above it a
#: copy costs as much as the arithmetic it feeds and no per-call cost is
#: left for a batch to spread. Row sweep of
#: ``benchmarks/bench_set_executor.py`` (same host; 4 categories, 4
#: states, two compiled sets), arena / per-operation time per set:
#:
#: =========  =====  =====  =====  =====  =====  =====  =====  =====
#: dtype, k   4 KiB  8      12     16     24     32     64     128
#: =========  =====  =====  =====  =====  =====  =====  =====  =====
#: f64, 8     0.74   0.78   0.88   1.05   1.48   1.65   2.22   2.86
#: f64, 32    0.36   0.63   0.94   1.11   1.57   1.66   1.56   2.17
#: f64, 128   0.44   0.69   0.89   1.13   1.29   1.59   1.46   1.81
#: f32, 8     0.97   0.86   0.92   1.01   1.44   1.54   1.87   2.34
#: f32, 32    0.42   0.69   0.98   0.99   1.46   1.38   1.48   1.66
#: f32, 128   0.52   0.89   1.13   1.20   1.34   1.45   1.57   1.97
#: =========  =====  =====  =====  =====  =====  =====  =====  =====
#:
#: The arena wins at 8 KiB, where mcmc's and gradient's rows are, and in
#: 5 of 6 cells at 12 KiB; per-operation steps win or tie in every cell
#: from 16 KiB (by up to 20%) and by 29–57% at 24 KiB. The rule the
#: budget would give — arena while it holds more than the minimum block,
#: rows under 26 KiB — keeps 16–24 KiB rows in the arena, so the cut is
#: its own constant. Only eval-wide (128 KiB rows) is above it.
ARENA_MAX_ROW_BYTES = 12 * 1024

_MIN_BLOCK = 4
_MAX_BLOCK = 64

# Child kinds after lowering: a store slot, an explicit tip's partials,
# a compact tip (resolved to a row of a gather), a gathered tip row.
_SLOT, _EXPLICIT, _CODES, _GATHERED = range(4)

#: ``(kind, index, matrix)``: index is a store slot, a tip index or a row.
Child = Tuple[int, int, int]


def _row_bytes(instance: "BeagleInstance") -> int:
    """Bytes of one ``(C, P, S)`` partials row."""
    return (
        instance.category_count
        * instance.pattern_count
        * instance.state_count
        * instance.dtype.itemsize
    )


def block_ops(instance: "BeagleInstance") -> int:
    """Operations per arena block for this instance's dimensions.

    Three hot ``(2B, C, P, S)`` arrays per block — ``6·B·C·P·S``
    elements — inside :data:`CACHE_BUDGET_BYTES`, clamped to ``[4, 64]``.
    """
    block = CACHE_BUDGET_BYTES // (6 * _row_bytes(instance))
    return int(min(max(block, _MIN_BLOCK), _MAX_BLOCK))


def arena_fits(instance: "BeagleInstance") -> bool:
    """Whether this instance's sets may run as arena steps and hoisted
    tip chunks: whether one partials row is at most
    :data:`ARENA_MAX_ROW_BYTES`. When it is false, every set lowers to
    per-operation steps."""
    return _row_bytes(instance) <= ARENA_MAX_ROW_BYTES


def _chunk_rows(instance: "BeagleInstance") -> int:
    """Compact-tip rows per narrow-step gather: the rows that fit
    :data:`CACHE_BUDGET_BYTES`, and never more than one per tip (a tree
    pass reads each tip once)."""
    return max(1, min(CACHE_BUDGET_BYTES // _row_bytes(instance), instance.tip_count))


def _columns(entries: List[Tuple[int, ...]], width: int) -> np.ndarray:
    """Equal-length int tuples as the rows of a ``(width, n)`` array."""
    return np.array(list(zip(*entries)) or [()] * width, dtype=np.int64)


def _bases(instance: "BeagleInstance", mats: np.ndarray) -> np.ndarray:
    """``(n, C)`` first rows of each (matrix, category) in the flat view of
    the padded transposed matrices: the rows :func:`_gather_codes` adds
    tip codes to."""
    C, S = instance.category_count, instance.state_count
    return (mats[:, None] * C + np.arange(C)) * (S + 1)


def _gather_codes(
    instance: "BeagleInstance",
    ws: "Workspace",
    tips: np.ndarray,
    base: np.ndarray,
    out: np.ndarray,
) -> None:
    """Compact-tip contributions ``P(t)ᵀ[code]`` into ``out`` ``(n, C, P, S)``.

    Every (row, category, pattern) resolves to one row of the instance's
    padded transposed matrices — the ones row S for the "unknown" code —
    so the rows arrive in one flat gather. Every ``np.take`` in this
    module takes from a C-contiguous array (a strided one would be
    copied whole first) with ``mode="clip"``, which writes ``out``
    unbuffered: lowering already range-checked each index.
    """
    n = len(tips)
    ws.ensure_tips(n)
    np.take(instance._tip_codes_dense, tips, axis=0, out=ws.codes[:n], mode="clip")
    np.add(base[:, :, None], ws.codes[:n, None, :], out=ws.rowidx[:n])
    rows = instance._padded.reshape(-1, instance.state_count)
    np.take(rows, ws.rowidx[:n], axis=0, out=out, mode="clip")


def _rescale(
    rows: np.ndarray, ws: "Workspace", scale: "ScaleBufferBank", index: int
) -> None:
    """Rescale one ``(C, P, S)`` destination in place and write its log
    factors: each pattern divides by its maximum over categories and
    states (BEAGLE's "dynamic max" scaler) using the workspace's
    per-pattern scratch; a pattern whose maximum is not positive keeps
    factor 1, so a hard underflow stays visible as −inf."""
    factors, safe, mask = ws.scale_factors, ws.scale_safe, ws.scale_mask
    pattern_maxima(rows, out=factors)
    np.greater(factors, 0.0, out=mask)
    safe.fill(1.0)
    np.copyto(safe, factors, where=mask)
    rows /= safe[None, :, None]
    np.log(safe, out=ws.scale_logs)
    scale.write(index, ws.scale_logs)


class _TipChunk:
    """The compact-tip children of a run of narrow steps, gathered at once.

    Row ``j`` of the workspace's gathered tip rows holds the ``j``-th
    ``(tip, matrix)`` pair added; the first step of the run that needs
    them gathers the whole chunk (:meth:`gather`).
    """

    __slots__ = ("rows", "tips", "base")

    def __init__(self) -> None:
        self.rows: List[Tuple[int, int]] = []

    def take(self, child: Child) -> Child:
        """A compact-tip child becomes the next gathered row; any other
        child is returned as it is."""
        kind, tip, mat = child
        if kind != _CODES:
            return child
        self.rows.append((tip, mat))
        return (_GATHERED, len(self.rows) - 1, mat)

    def freeze(self, instance: "BeagleInstance") -> None:
        """Turn the rows into the tips and bases the gather takes."""
        self.tips, mats = _columns(self.rows, 2)
        self.base = _bases(instance, mats)

    def gather(self, instance: "BeagleInstance", ws: "Workspace") -> None:
        n = len(self.tips)
        ws.ensure_gathered(n, _chunk_rows(instance))
        _gather_codes(instance, ws, self.tips, self.base, ws.gathered_tips[:n])
        ws.gathered_by = self


def _contribution(
    instance: "BeagleInstance", child: Child, gathered: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """One child's factor of Eq. 1; a computed factor lands in ``out``."""
    kind, index, mat = child
    if kind == _SLOT:
        source = instance._partials[index]
    elif kind == _GATHERED:
        return gathered[index]
    elif kind == _CODES:
        codes = instance._tip_codes[index]
        return np.take(instance._padded[mat], codes, axis=1, out=out, mode="clip")
    else:
        source = instance._tip_partials[index]
    return np.matmul(source, instance._transposed[mat], out=out)


class _NarrowStep:
    """A narrow set: each operation straight into its destination.

    ``products`` holds ``(destination slot, first child, second child)``
    per operation, ``scaled`` ``(destination slot, scale buffer)`` per
    rescaled operation.
    """

    __slots__ = ("ops", "chunk", "products", "scaled")

    def __init__(
        self,
        ops: Sequence["Operation"],
        chunk: Optional[_TipChunk],
        products: List[Tuple[int, Child, Child]],
        scaled: List[Tuple[int, int]],
    ) -> None:
        self.ops = ops
        self.chunk = chunk
        self.products = products
        self.scaled = scaled

    def run(self, instance: "BeagleInstance", ws: "Workspace") -> None:
        chunk = self.chunk
        if chunk is not None and ws.gathered_by is not chunk:
            chunk.gather(instance, ws)
        partials = instance._partials
        valid = instance._partials_valid
        gathered, row = ws.gathered_tips, ws.row
        recorder = get_recorder()
        with recorder.phase(PHASE_PARTIALS):
            for dest, first, second in self.products:
                out = partials[dest]
                x = _contribution(instance, first, gathered, out)
                y = _contribution(instance, second, gathered, row if x is out else out)
                np.multiply(x, y, out=out)
                valid[dest] = True
        if self.scaled:
            with recorder.phase(PHASE_SCALING):
                for dest, index in self.scaled:
                    _rescale(partials[dest], ws, instance.scale, index)


class _Block:
    """One arena block's classification, fixed at lowering.

    Block-local row layout (``nb`` operations): first children occupy
    contribution rows ``0..nb-1``, second children ``nb..2nb-1``.
    """

    __slots__ = (
        "nb",
        "slot_rows",
        "slots",
        "slot_mats",
        "code_rows",
        "code_tips",
        "code_base",
        "explicit",
        "dests",
        "scaled",
    )

    def __init__(
        self,
        instance: "BeagleInstance",
        children: List[Child],
        dests: List[int],
        scaled: List[Tuple[int, int]],
    ) -> None:
        self.nb = len(dests)
        slots, codes, explicit = [], [], []
        for row, (kind, index, mat) in enumerate(children):
            if kind == _SLOT:
                slots.append((row, index, mat))
            elif kind == _CODES:
                codes.append((row, index, mat))
            else:
                explicit.append((row, index, mat))
        self.slot_rows, self.slots, self.slot_mats = _columns(slots, 3)
        self.code_rows, self.code_tips, code_mats = _columns(codes, 3)
        if codes:
            self.code_base = _bases(instance, code_mats)
        self.explicit = explicit
        self.dests = np.array(dests, dtype=np.int64)
        self.scaled = scaled

    def run(self, instance: "BeagleInstance", ws: "Workspace") -> None:
        nb = self.nb
        recorder = get_recorder()
        S = instance.state_count
        with recorder.phase(PHASE_PARTIALS):
            n = len(self.slots)
            if n:
                # Internal children: gather partials and (padded)
                # transposed matrices into stacks, one batched L @ Pᵀ,
                # scatter back.
                np.take(
                    instance._partials,
                    self.slots,
                    axis=0,
                    out=ws.gathered[:n],
                    mode="clip",
                )
                np.take(
                    instance._padded,
                    self.slot_mats,
                    axis=0,
                    out=ws.mats[:n],
                    mode="clip",
                )
                np.matmul(ws.gathered[:n], ws.mats[:n, :, :S], out=ws.scratch[:n])
                ws.contributions[self.slot_rows] = ws.scratch[:n]
            n = len(self.code_rows)
            if n:
                _gather_codes(
                    instance, ws, self.code_tips, self.code_base, ws.scratch[:n]
                )
                ws.contributions[self.code_rows] = ws.scratch[:n]
            for row, tip, mat in self.explicit:  # rare: partial-ambiguity tips
                np.matmul(
                    instance._tip_partials[tip],
                    instance._transposed[mat],
                    out=ws.contributions[row],
                )
            product = ws.contributions[:nb]
            np.multiply(product, ws.contributions[nb : 2 * nb], out=product)
        if self.scaled:
            with recorder.phase(PHASE_SCALING):
                for i, index in self.scaled:
                    _rescale(product[i], ws, instance.scale, index)
        instance._partials[self.dests] = product
        instance._partials_valid[self.dests] = True


class _ArenaStep:
    """A wide set: arena blocks of :func:`block_ops` operations."""

    __slots__ = ("ops", "blocks", "width")

    def __init__(self, ops: Sequence["Operation"], blocks: List[_Block]) -> None:
        self.ops = ops
        self.blocks = blocks
        self.width = max(b.nb for b in blocks)

    def run(self, instance: "BeagleInstance", ws: "Workspace") -> None:
        ws.ensure(self.width)
        for block in self.blocks:
            block.run(instance, ws)


def _check_reads(instance: "BeagleInstance", reads: Sequence[int]) -> None:
    """Raise ``ValueError`` unless every slot in ``reads`` is computed."""
    valid = instance._partials_valid
    for slot in reads:
        if not valid[slot]:
            raise ValueError(
                f"partials buffer {slot + instance.tip_count} "
                "read before being computed"
            )


class ProgramRun:
    """One execution of a :class:`Program` on one instance: its step cursor.

    :meth:`Program.start` returns one per run, so threads may run one
    program on different instances at once.
    """

    __slots__ = ("steps", "_cursor")

    def __init__(self, steps: List) -> None:
        self.steps = steps
        self._cursor = 0

    def step_for(self, ops: Sequence["Operation"]):
        """The next step if ``ops`` is its set (same operations, same
        order), advancing past it; otherwise ``None``."""
        i = self._cursor
        if i < len(self.steps):
            step = self.steps[i]
            mine = step.ops
            if mine is ops or (
                len(mine) == len(ops) and all(a is b for a, b in zip(mine, ops))
            ):
                self._cursor = i + 1
                return step
        return None


def _program_key(instance: "BeagleInstance") -> tuple:
    """Everything lowering reads from an instance: tip count, matrix
    count, store shape (rows, C, P, S; the upper bank adds rows), dtype
    and each tip's kind of data (none, compact codes, explicit partials).
    The tip data itself is read when a step runs."""
    return (
        instance.tip_count,
        instance._padded.shape[0],
        instance._partials.shape,
        instance.dtype,
        instance._tip_kinds,
    )


class Program:
    """A plan's operation sets lowered for one instance layout and tip
    kinds: one step per set.

    Steps run in order, each from one ``update_partials_set`` call:
    :meth:`start` checks every slot the program reads before writing it
    and returns a :class:`ProgramRun` whose ``step_for`` hands out the
    next step when the submitted set is that step's set. Every slot a step
    reads is then either one those checks covered or one an earlier step
    wrote. A program is never changed after lowering, and its steps take
    the instance as an argument, so it serves any instance with the
    layout and tip kinds it was lowered for.
    """

    __slots__ = ("steps", "reads")

    def __init__(self, steps: List, reads: List[int]) -> None:
        self.steps = steps
        #: Store slots read before the program writes them (none for a
        #: full traversal).
        self.reads = reads

    def start(self, instance: "BeagleInstance") -> ProgramRun:
        """Check the externally read slots and begin a run at the first
        step.

        Raises
        ------
        ValueError
            If a slot the program reads before writing it holds no
            computed partials.
        """
        _check_reads(instance, self.reads)
        if instance._workspace is not None:
            # Gathered tip rows reflect the matrices of an earlier run.
            instance._workspace.gathered_by = None
        return ProgramRun(self.steps)


class PlanPrograms:
    """A plan's programs, held by the plan: one per instance layout and
    tip kinds (:func:`_program_key`).

    ``ExecutionPlan.programs`` and ``GradientPlan.programs`` are one each,
    so a program lowered once serves every instance it fits, fresh ones
    included. The plan's first execution lowers nothing — a one-shot plan
    never pays for lowering — and from the second :meth:`bind` runs the
    program for the instance's key, lowering it the first time the plan
    meets that key; so instances whose tips differ in kind (one partition
    with ambiguity partials, one without) each keep a program. Programs
    are immutable and an entry is only ever added, so threads may bind
    one plan at once; at worst two of them lower the same program.
    """

    __slots__ = ("executed", "by_key")

    def __init__(self) -> None:
        self.executed = False
        self.by_key: Dict[tuple, Program] = {}

    def get(self, instance: "BeagleInstance") -> Optional[Program]:
        """The stored program that would serve ``instance``, if any."""
        return self.by_key.get(_program_key(instance))

    def bind(
        self,
        instance: "BeagleInstance",
        operation_sets: Sequence[Sequence["Operation"]],
    ) -> Optional[ProgramRun]:
        """Start this execution's run on ``instance`` (``None`` on the
        plan's first execution: its sets then run as one-set programs).

        Raises
        ------
        ValueError
            If lowering fails (see :func:`compile_program`) or the
            program reads a partials buffer that is not computed.
        IndexError
            If a buffer or matrix index is out of range.
        """
        if not self.executed:
            self.executed = True
            return None
        key = _program_key(instance)
        program = self.by_key.get(key)
        if program is None:
            program = compile_program(instance, operation_sets)
            self.by_key[key] = program
        return program.start(instance)


def compile_program(
    instance: "BeagleInstance", operation_sets: Sequence[Sequence["Operation"]]
) -> Program:
    """Lower ``operation_sets`` for ``instance`` (empty sets are skipped).

    Raises
    ------
    ValueError
        If a set has internal dependencies or a tip child has no data.
    IndexError
        If a buffer or matrix index is out of range.
    """
    tip_count, n_slots = instance.tip_count, instance._partials.shape[0]
    n_mats = instance._padded.shape[0]
    codes, explicit = instance._tip_codes, instance._tip_partials
    written: set = set()
    reads: List[int] = []

    def slot_of(buffer: int) -> int:
        slot = buffer - tip_count
        if not 0 <= slot < n_slots:
            raise IndexError(f"partials buffer {buffer} out of range")
        return slot

    def child(buffer: int, mat: int) -> Child:
        """Resolve one child; a slot no earlier set wrote joins ``reads``."""
        if not 0 <= mat < n_mats:
            raise IndexError(f"matrix buffer {mat} out of range")
        if buffer < tip_count:
            if buffer in codes:
                return (_CODES, buffer, mat)
            if buffer in explicit:
                return (_EXPLICIT, buffer, mat)
            raise ValueError(f"tip buffer {buffer} has no data")
        slot = slot_of(buffer)
        if slot not in written:
            reads.append(slot)
        return (_SLOT, slot, mat)

    steps: List = []
    chunks: List[_TipChunk] = []
    # Narrow steps' tip children are gathered ahead in chunks when there
    # is a set loop to gather ahead of; a one-set program, and any
    # program whose rows are too large for the arena, gathers them in
    # its step.
    arena = arena_fits(instance)
    hoist = arena and len(operation_sets) > 1
    chunk_rows = _chunk_rows(instance) if hoist else 0
    for ops in operation_sets:
        if not ops:
            continue
        if not operations_independent(ops):
            raise ValueError("operation set contains internal dependencies")
        firsts, seconds, dests, scaled = [], [], [], []
        for i, op in enumerate(ops):
            firsts.append(child(op.child1, op.child1_matrix))
            seconds.append(child(op.child2, op.child2_matrix))
            dests.append(slot_of(op.destination))
            if op.destination_scale >= 0:
                scaled.append((i, op.destination_scale))
        if arena and len(ops) >= ARENA_MIN_OPS:
            block = block_ops(instance)
            blocks = [
                _Block(
                    instance,
                    firsts[lo : lo + block] + seconds[lo : lo + block],
                    dests[lo : lo + block],
                    [(i - lo, s) for i, s in scaled if lo <= i < lo + block],
                )
                for lo in range(0, len(ops), block)
            ]
            steps.append(_ArenaStep(ops, blocks))
        else:
            products = list(zip(dests, firsts, seconds))
            n_codes = [c[0] for c in firsts + seconds].count(_CODES) if hoist else 0
            chunk = None
            if n_codes:
                if not chunks or len(chunks[-1].rows) + n_codes > chunk_rows:
                    chunks.append(_TipChunk())
                chunk = chunks[-1]
                products = [(d, chunk.take(a), chunk.take(b)) for d, a, b in products]
            steps.append(
                _NarrowStep(ops, chunk, products, [(dests[i], s) for i, s in scaled])
            )
        written.update(dests)
    for chunk in chunks:
        chunk.freeze(instance)
    return Program(steps, reads)


def execute_set(instance: "BeagleInstance", ops: Sequence["Operation"]) -> None:
    """Run one independent operation set as a one-set program."""
    program = compile_program(instance, [ops])
    program.start(instance)
    for step in program.steps:
        step.run(instance, instance.workspace)


class DirtyPath:
    """What :meth:`~repro.beagle.instance.BeagleInstance.bind_plan` binds
    for an incremental plan: each set that lowers to a narrow step takes
    it from entries the instance keeps per destination slot.

    ``instance._lowered`` maps a destination slot to ``(operation, tip
    kinds, one-operation step, read slots)``; an entry serves the same
    operation (identity, then equality) while every tip holds data of the
    kind it held at lowering, the rule :class:`PlanPrograms` keys on. A set
    whose operations all have one runs from them after its independence
    and read checks; any other such set is lowered once, as a one-set
    program, and refills the entries. Whether a set lowers to a narrow
    step is :func:`compile_program`'s rule: narrower than
    :data:`ARENA_MIN_OPS`, or any width when :func:`arena_fits` is false.
    """

    __slots__ = ("instance",)

    def __init__(self, instance: "BeagleInstance") -> None:
        self.instance = instance

    def step_for(self, ops: Sequence["Operation"]):
        """The set's step (``None`` for an arena set: a one-set program)."""
        instance = self.instance
        if len(ops) >= ARENA_MIN_OPS and arena_fits(instance):
            return None
        table, kinds = instance._lowered, instance._tip_kinds
        entries = [table.get(op.destination - instance.tip_count) for op in ops]
        if not all(
            e is not None and e[1] == kinds and (e[0] is op or e[0] == op)
            for e, op in zip(entries, ops)
        ):
            program = compile_program(instance, [ops])
            step = program.steps[0]
            for op, product in zip(ops, step.products):
                dest, scale = product[0], op.destination_scale
                scaled = [(dest, scale)] if scale >= 0 else []
                reads = [index for kind, index, _ in product[1:] if kind == _SLOT]
                one = _NarrowStep((op,), None, [product], scaled)
                table[dest] = (op, kinds, one, reads)
            program.start(instance)
            return step
        if len(ops) == 1:  # independent by itself; a prebuilt step
            _check_reads(instance, entries[0][3])
            return entries[0][2]
        if not operations_independent(ops):
            raise ValueError("operation set contains internal dependencies")
        _check_reads(instance, [slot for e in entries for slot in e[3]])
        steps = [e[2] for e in entries]
        products = [p for step in steps for p in step.products]
        return _NarrowStep(ops, None, products, [s for t in steps for s in t.scaled])
