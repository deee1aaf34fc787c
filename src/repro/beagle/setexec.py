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
Every set lowers to a :class:`_NarrowStep` of one of two kinds, chosen
from the layout of its operands and the bytes of one partials row of the
instance (:func:`hoists_tips`):

* **per-operation steps**: each operation is ``matmul(P[slot], M[m]ᵀ,
  out=)`` per internal child, one ``multiply`` into its destination, then
  the rescale. A compact-tip child's contribution depends only on the
  matrices, not on any earlier set, so in a program of several sets the
  tip children of consecutive steps are gathered in one padded-matrix
  ``np.take`` (a :class:`_TipChunk`, at most :data:`CACHE_BUDGET_BYTES`
  of rows) before the first of them, off the rerooted tree's dependency
  chain; a one-set program takes each tip's rows in its step.
* **run steps**: in a program that gathers its tips ahead, a set whose
  operations split into fewer *runs* (:func:`_runs`) than it has
  operations, at any width. A run is a sequence of the set's operations
  whose destinations, each side's children — store slots or gathered
  tip rows, each operation's store slot first — and each store side's
  matrices step by one nonzero stride (negative too; any two indices are
  a run); an operation with an explicit-tip child is a run of its own. Under the set-ordered numbering of
  :meth:`~repro.trees.tree.Tree.assign_indices` a set's destinations are
  consecutive, so a balanced tree's lower set is one run and its upper
  set two (the first- and second-child halves); a set whose tip rows
  cross a chunk's end splits there. A run step runs bound to the
  instance: per run one ``matmul(P[run], M[run]ᵀ, out=P[dest run])`` per
  store or explicit-tip side over strided views, one ``multiply`` and one
  validity write by slice, then the rescale of each destination, so a
  set costs about one per-operation product per run. The views are
  bound once per instance, which keeps them, not in the shared program
  (:meth:`Program.start`).

When :func:`hoists_tips` is false (rows over
:data:`HOIST_MAX_ROW_BYTES`, 12 KiB) every set of every program is a
per-operation step with no hoisted tip chunk: each matmul and tip gather
writes straight into the destination or the workspace's one-row scratch,
and no gathered tip rows are allocated.

A set submitted outside a bound program (see
:meth:`~repro.beagle.instance.BeagleInstance.bind_plan`) runs as a one-set
program through :func:`execute_set`, and a set of a dirty-path plan from
per-destination entries (:class:`DirtyPath`); both are per-operation
steps at every width. Both passes share the executor: upper (pre-order)
buffers are rows of the same partials store as lower buffers, so a
pre-order operation is an ordinary
:class:`~repro.beagle.operations.Operation`.

Bit-identity across step kinds is structural: the batched ``matmul`` over
``(n, C, P, S)`` stacks, contiguous or strided, is a loop of independent
2-D products, the tip-code path is an exact gather, IEEE multiplication
commutes, and the rescale is the same max/divide/log sequence, so any
partition of a set computes the same bits.
``tests/property/test_set_executor.py`` asserts it for both step kinds,
for runs cut to any length and for whole bound programs.
"""

from __future__ import annotations

import weakref
from operator import is_not
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import Recorder, get_recorder
from ..obs.profile import PHASE_PARTIALS, PHASE_SCALING
from .kernels import pattern_maxima
from .operations import operations_independent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .instance import BeagleInstance
    from .operations import Operation
    from .scaling import ScaleBufferBank
    from .workspace import Workspace

__all__ = [
    "CACHE_BUDGET_BYTES",
    "DirtyPath",
    "HOIST_MAX_ROW_BYTES",
    "PlanPrograms",
    "Program",
    "ProgramRun",
    "batch_rows",
    "compile_program",
    "execute_set",
    "hoists_tips",
]

#: Working-set target of one tip chunk, and of the row batches of
#: :func:`batch_rows`.
CACHE_BUDGET_BYTES = 768 * 1024

#: The largest ``(C, P, S)`` partials row, in bytes, whose compiled
#: programs gather tip chunks ahead and lower run steps
#: (:func:`hoists_tips`); above it every set runs per-operation steps.
#:
#: The lowering rule — a run step whenever a set splits into fewer runs
#: than it has operations — rests on the split sweep of
#: ``benchmarks/bench_set_executor.py`` (2-vCPU Xeon, NumPy 2.4, f64, 4
#: states, 1 category, two sets compiled into one program, the kinds
#: alternating; medians of 7 rounds), µs per set, run step / per-op, for
#: a set of 16 or 64 operations whose operands split into r runs:
#:
#: ===========  =====  =======  =======  =======  =======  =======  =======
#: shape        width  r = 1    4        8        12       w - 1    w
#: ===========  =====  =======  =======  =======  =======  =======  =======
#: eval-narrow  16     28 / 95  37 / 91  54 / 97  71 / 95  73 / 89  80 / 93
#: eval-narrow  64     96/373   70/267   112/372  142/398  229/315  275/313
#: serve        16     15 / 55  20 / 53  32 / 56  49 / 71  47 / 58  45 / 57
#: serve        64     54/243   68/214   63/273   103/343  287/338  289/334
#: gradient     16     47/153   64/146   88/145   123/146  131/148  139/147
#: gradient     64     194/621  146/441  192/419  161/382  544/628  558/599
#: ===========  =====  =======  =======  =======  =======  =======  =======
#:
#: (eval-narrow and serve: one internal and one tip child per operation,
#: 128 and 64 patterns; gradient: two internal children, 256 patterns.)
#: A run step wins at every run count up to one run per operation, so
#: no run-count cut is needed; a set of one operation, or of as many
#: runs as operations, stays a per-operation step, which a fresh
#: instance runs without binding views. The width sweep (one run per
#: set, widths 1–16) fits per-operation steps at 3 µs + 6.9 µs/op, 14 µs
#: + 3.6 µs/op and 0 µs + 8.3 µs/op at the three shapes, run steps at
#: 10 µs + 1.6 µs/op, 12 µs + 0.5 µs/op and 6 µs + 2.0 µs/op.
#:
#: Row sweep (4 categories, 4 states, sets of 8, 32 and 128 operations
#: in one run), hoisted run step / unhoisted per-operation time:
#:
#: =========  =====  =====  =====  =====  =====  =====  =====  =====
#: dtype, k   4 KiB  8      12     16     24     32     64     128
#: =========  =====  =====  =====  =====  =====  =====  =====  =====
#: f64, 8     0.34   0.42   0.49   0.56   0.66   0.77   0.95   1.20
#: f64, 32    0.22   0.38   0.41   0.52   0.67   0.80   0.97   1.15
#: f64, 128   0.21   0.34   0.43   0.52   0.67   0.76   1.01   1.35
#: f32, 8     0.40   0.52   0.62   0.67   0.96   0.86   1.09   1.22
#: f32, 32    0.29   0.46   0.59   0.75   0.87   0.95   1.13   1.30
#: f32, 128   0.28   0.46   0.57   0.73   0.80   0.92   1.08   1.27
#: =========  =====  =====  =====  =====  =====  =====  =====  =====
#:
#: Run steps win every cell up to 32 KiB (a second run at 16–64 KiB,
#: k = 8, 32, read 0.46–0.62 at 16, 0.83–0.96 at 32 and 0.97–1.23 at
#: 48 KiB), per-operation steps every cell at 128 KiB, eval-wide's rows.
#: The sweep times sets of one run only, the case hoisting suits best; a
#: hoisted program's per-operation steps and sets of many runs gather
#: their tips ahead too, and are untimed above 12 KiB, so the cut stays
#: there. No workload has rows between 12 and 32 KiB.
HOIST_MAX_ROW_BYTES = 12 * 1024

_MIN_BATCH = 4
_MAX_BATCH = 64

# ``BeagleInstance._tip_kinds`` values of a tip with data.
_CODES_TIP, _PARTIALS_TIP = 1, 2

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


def batch_rows(instance: "BeagleInstance") -> int:
    """Store rows per cache-sized batch for this instance's dimensions:
    the branches a gradient sweep recombines at once, and the
    destinations a verifying wrapper reduces at once.

    Six ``(B, C, P, S)`` arrays — a batch's rows and the working arrays
    derived from them — inside :data:`CACHE_BUDGET_BYTES`, clamped to
    ``[4, 64]``: 16 rows of 8 KiB, 32 of 4 KiB, 64 of 2 KiB.
    """
    batch = CACHE_BUDGET_BYTES // (6 * _row_bytes(instance))
    return int(min(max(batch, _MIN_BATCH), _MAX_BATCH))


def hoists_tips(instance: "BeagleInstance") -> bool:
    """Whether this instance's programs of several sets gather their tip
    children ahead in chunks, and so may lower run steps: whether one
    partials row is at most :data:`HOIST_MAX_ROW_BYTES`. When it is
    false, every set lowers to a per-operation step."""
    return _row_bytes(instance) <= HOIST_MAX_ROW_BYTES


def _chunk_rows(instance: "BeagleInstance") -> int:
    """Compact-tip rows per tip chunk: the rows that fit
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
    """The compact-tip children of consecutive steps, gathered at once.

    Row ``j`` of the workspace's gathered tip rows holds the ``j``-th
    ``(tip, matrix)`` pair added; the first step that needs them gathers
    the whole chunk (:meth:`gather`).
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
        codes = instance._tip_codes_dense[index]
        return np.take(instance._padded[mat], codes, axis=1, out=out, mode="clip")
    else:
        source = instance._tip_partials[index]
    return np.matmul(source, instance._transposed[mat], out=out)


class _NarrowStep:
    """A set as per-operation products or as runs: each product straight
    into its destinations.

    ``products`` holds ``(destinations, first child, second child)`` per
    product. A product of one operation is its destination slot and two
    children; a run (:func:`_runs`) is a slice of slots and two sides whose
    indices — and, for a store side, matrices — are slices of the same
    length; an explicit-tip side's index is its tip, in a run of one
    operation. ``chunks`` is ``None`` when no product reads gathered tip
    rows, else per product the :class:`_TipChunk` it reads them from
    (``None`` for a product with no compact-tip child); a step gathers
    each chunk as its products reach it, unless the workspace holds it.
    ``scaled`` holds ``(destination slot, scale buffer)`` per rescaled
    operation. ``views`` is ``None`` as lowered; a program runs each run
    step as :meth:`bind` returns it for the instance (see
    :meth:`Program.start`).
    """

    __slots__ = ("ops", "chunks", "products", "scaled", "views")

    def __init__(
        self,
        ops: Sequence["Operation"],
        chunks: Optional[Sequence[Optional[_TipChunk]]],
        products: List[tuple],
        scaled: List[Tuple[int, int]],
        views: Optional[list] = None,
    ) -> None:
        self.ops = ops
        self.chunks = chunks
        self.products = products
        self.scaled = scaled
        self.views = views

    @property
    def is_run(self) -> bool:
        """Whether this step runs its operations as runs (a run step)."""
        return isinstance(self.products[0][0], slice)

    def bind(self, instance: "BeagleInstance", ws: "Workspace") -> "_NarrowStep":
        """This run step over views of ``instance``'s store, explicit tip
        partials, and ``ws``'s gathered tip rows and scratch rows: per
        run, one ``matmul`` per store or explicit-tip side, one
        ``multiply`` and one validity write, after the gather of its tip
        chunk when it reads another chunk than the run before it that
        reads one (and the workspace does not hold it already)."""
        partials, transposed = instance._partials, instance._transposed
        chunks = self.chunks or [None] * len(self.products)
        views, last = [], None
        for chunk, (dests, *sides) in zip(chunks, self.products):
            out = partials[dests]
            matmuls, factors = [], []
            for kind, index, mat in sides:
                if kind == _GATHERED:
                    factors.append(ws.gathered_tips[index])
                    continue
                if kind == _EXPLICIT:
                    source = instance._tip_partials[index][None]
                else:
                    source = partials[index]
                target = ws.scratch[: len(out)] if matmuls else out
                matmuls.append((source, transposed[mat], target))
                factors.append(target)
            switch = None if chunk is None or chunk is last else chunk
            if chunk is not None:
                last = chunk
            valid = instance._partials_valid[dests]
            views.append((switch, matmuls, *factors, out, valid))
        return _NarrowStep(self.ops, self.chunks, self.products, self.scaled, views)

    def run(
        self,
        instance: "BeagleInstance",
        ws: "Workspace",
        obs: Optional[Recorder] = None,
    ) -> None:
        """Run the step: its products, then the rescale of each scaled
        destination. Each part is timed as a phase of ``obs`` when a
        recording recorder is given; with none, no timer is entered."""
        if obs is None:
            self.multiply(instance, ws)
            if self.scaled:
                self.rescale(instance, ws)
            return
        with obs.phase(PHASE_PARTIALS):
            self.multiply(instance, ws)
        if self.scaled:
            with obs.phase(PHASE_SCALING):
                self.rescale(instance, ws)

    def multiply(self, instance: "BeagleInstance", ws: "Workspace") -> None:
        """The step's products, each straight into its destinations."""
        views = self.views
        if views is not None:
            for switch, matmuls, x, y, out, valid in views:
                if switch is not None and switch is not ws.gathered_by:
                    switch.gather(instance, ws)
                for source, matrices, target in matmuls:
                    np.matmul(source, matrices, out=target)
                np.multiply(x, y, out=out)
                valid.fill(True)
            return
        chunks = self.chunks
        partials, valid = instance._partials, instance._partials_valid
        gathered, row = ws.gathered_tips, ws.row
        for i, (dest, first, second) in enumerate(self.products):
            chunk = chunks[i] if chunks is not None else None
            if chunk is not None and chunk is not ws.gathered_by:
                chunk.gather(instance, ws)
                gathered = ws.gathered_tips
            out = partials[dest]
            x = _contribution(instance, first, gathered, out)
            y = _contribution(instance, second, gathered, row if x is out else out)
            np.multiply(x, y, out=out)
            valid[dest] = True

    def rescale(self, instance: "BeagleInstance", ws: "Workspace") -> None:
        """Rescale each scaled destination and write its log factors."""
        for dest, index in self.scaled:
            _rescale(instance._partials[dest], ws, instance.scale, index)


def _slice(start: int, stride: int, n: int) -> slice:
    """The ``n`` indices ``start, start + stride, ...`` as a slice."""
    stop = start + stride * n
    return slice(start, stop if stop >= 0 else None, stride)


def _length(run: slice) -> int:
    """Operations in a run's slice."""
    stop = -1 if run.stop is None else run.stop
    return len(range(run.start, stop, run.step))


def _take_tips(
    chunks: List[_TipChunk],
    products: List[Tuple[int, Child, Child]],
    chunk_rows: int,
) -> Tuple[List[Tuple[int, Child, Child]], Optional[List[Optional[_TipChunk]]]]:
    """A set's products with their compact-tip children as gathered rows,
    and the chunk each product takes them from (``None`` when the set has
    no compact-tip child; ``None`` for a product that has none).

    A set whose tips fit one chunk takes them all from one: the last, or
    a new one when the last has no room left. A set with more tips than
    a chunk holds fills the last chunk and opens new ones as its
    operations need them, so its products span chunks, each gathered
    when the step reaches its first product.
    """
    n_codes = sum((a[0] == _CODES) + (b[0] == _CODES) for _, a, b in products)
    if not n_codes:
        return products, None
    whole = n_codes <= chunk_rows
    if whole and (not chunks or len(chunks[-1].rows) + n_codes > chunk_rows):
        chunks.append(_TipChunk())
    taken: List[Tuple[int, Child, Child]] = []
    owners: List[Optional[_TipChunk]] = []
    for dest, a, b in products:
        n = (a[0] == _CODES) + (b[0] == _CODES)
        chunk = None
        if n:
            if not whole:
                rows = len(chunks[-1].rows) if chunks else 0
                if not chunks or (rows and rows + n > chunk_rows):
                    chunks.append(_TipChunk())
            chunk = chunks[-1]
            a, b = chunk.take(a), chunk.take(b)
        taken.append((dest, a, b))
        owners.append(chunk)
    return taken, owners


def _runs(
    products: List[Tuple[int, Child, Child]],
    chunks: Optional[Sequence[Optional[_TipChunk]]],
    limit: int,
) -> Optional[Tuple[List[tuple], Optional[List[Optional[_TipChunk]]]]]:
    """A set's products as fewer than ``limit`` runs, or ``None``.

    Each operation's gathered tip row, if it has one, is ordered second
    (IEEE multiplication commutes, so the product keeps its bits). A run
    is a sequence of the set's operations, in set order, with one pair
    of child kinds and one tip chunk (none without a gathered row, so
    tipless operations join across a chunk's end), whose destinations,
    each side's children and each store side's matrices step by one
    nonzero stride each (negative too); any one operation is a run of
    one, and an operation with an explicit-tip child joins no other
    (explicit tips are separate arrays). Each operation joins the first run it extends
    or opens a new one, so interleaved runs are found: a balanced tree's
    upper set splits into its first-child and second-child halves. Every
    child must be a store slot, an explicit tip or a gathered row. A
    run's side is ``(kind, children, matrices or None)``; an explicit
    side's children is its tip. Returns the runs' products and, when
    ``chunks`` is given, the chunk of each.
    """
    runs: List[list] = []  # [key, first operands, last operands, strides, n]
    for i, (dest, a, b) in enumerate(products):
        if a[0] == _GATHERED and b[0] != _GATHERED:
            a, b = b, a
        explicit = _EXPLICIT in (a[0], b[0])
        key = (a[0], b[0], chunks[i] if chunks else None, i if explicit else -1)
        # A gathered row's matrix is in the row already: its place holds 0.
        operands = (
            dest,
            a[1],
            a[2] if a[0] != _GATHERED else 0,
            b[1],
            b[2] if b[0] != _GATHERED else 0,
        )
        for run in runs:
            if run[0] != key:
                continue
            strides = tuple(o - p for o, p in zip(operands, run[2]))
            if run[3] is None:
                if 0 in (strides[0], strides[1], strides[3]) or (
                    a[0] == _SLOT and strides[2] == 0
                ) or (b[0] == _SLOT and strides[4] == 0):
                    continue
                run[3] = strides
            elif strides != run[3]:
                continue
            run[2] = operands
            run[4] += 1
            break
        else:
            if len(runs) + 1 >= limit:
                return None
            runs.append([key, operands, operands, None, 1])
    products = []
    for (kind_a, kind_b, *_), first, _, strides, n in runs:
        strides = strides or (1,) * 5
        sides = tuple(
            (
                kind,
                first[j] if kind == _EXPLICIT else _slice(first[j], strides[j], n),
                None if kind == _GATHERED
                else _slice(first[j + 1], strides[j + 1], n),
            )
            for kind, j in ((kind_a, 1), (kind_b, 3))
        )
        products.append((_slice(first[0], strides[0], n), *sides))
    return products, [run[0][2] for run in runs] if chunks else None


def _hoisted_step(
    ops: Sequence["Operation"],
    chunks: List[_TipChunk],
    products: List[Tuple[int, Child, Child]],
    scaled: List[Tuple[int, int]],
    chunk_rows: int,
) -> _NarrowStep:
    """A set of a program that gathers its tips ahead: a run step when its
    products split into fewer runs than it has operations, otherwise a
    per-operation step."""
    taken, owners = _take_tips(chunks, products, chunk_rows)
    runs = _runs(taken, owners, len(ops))
    if runs is not None:
        return _NarrowStep(ops, runs[1], runs[0], scaled)
    return _NarrowStep(ops, owners, taken, scaled)


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
    layout and tip kinds it was lowered for; the views its run steps run
    over live on each instance (:meth:`start`).
    """

    __slots__ = ("steps", "reads", "runs", "rows", "__weakref__")

    def __init__(
        self,
        steps: List,
        reads: List[int],
        runs: Sequence[int] = (),
        rows: Tuple[int, int] = (0, 0),
    ) -> None:
        self.steps = steps
        #: Store slots read before the program writes them (none for a
        #: full traversal).
        self.reads = reads
        #: Positions of the run steps, which :meth:`start` binds. A single
        #: operation runs as lowered: binding it saves a kept instance
        #: nothing measurable and costs a fresh one (a served request, a
        #: gradient sweep) the binding.
        self.runs = tuple(runs)
        #: ``(gathered tip rows, scratch rows)`` that :meth:`start` sizes
        #: before it binds the run steps.
        self.rows = rows

    def start(self, instance: "BeagleInstance") -> ProgramRun:
        """Check the externally read slots and begin a run at the first
        step.

        A program with run steps runs them bound to ``instance``
        (:meth:`_NarrowStep.bind`): their views are taken once per
        instance, kept by it (weakly keyed by the program) and taken
        again whenever an array they view has been replaced since — the
        store (the upper bank), or the workspace's gathered tip rows or
        scratch rows (growth, a shared workspace).

        Raises
        ------
        ValueError
            If a slot the program reads before writing it holds no
            computed partials.
        """
        _check_reads(instance, self.reads)
        if not self.runs:
            if instance._workspace is not None:
                # Gathered tip rows reflect the matrices of an earlier run.
                instance._workspace.gathered_by = None
            return ProgramRun(self.steps)
        ws = instance.workspace
        ws.gathered_by = None
        # Sized before binding, so the views see the rows the run's tip
        # chunks gather into.
        gathered, scratch = self.rows
        if gathered > len(ws.gathered_tips):
            ws.ensure_gathered(gathered, _chunk_rows(instance))
        ws.ensure_scratch(scratch)
        arrays = (instance._partials, ws.gathered_tips, ws.scratch)
        views = instance._views
        if views is None:
            views = instance._views = weakref.WeakKeyDictionary()
        bound = views.get(self)
        if bound is None or any(map(is_not, bound[0], arrays)):
            steps = list(self.steps)
            for i in self.runs:
                steps[i] = steps[i].bind(instance, ws)
            bound = views[self] = (arrays, steps)
        return ProgramRun(bound[1])


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
    kind_of = instance._tip_kind
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
            kind = kind_of(buffer)
            if kind == _CODES_TIP:
                return (_CODES, buffer, mat)
            if kind == _PARTIALS_TIP:
                return (_EXPLICIT, buffer, mat)
            raise ValueError(f"tip buffer {buffer} has no data")
        slot = slot_of(buffer)
        if slot not in written:
            reads.append(slot)
        return (_SLOT, slot, mat)

    steps: List[_NarrowStep] = []
    chunks: List[_TipChunk] = []
    # Tip children are gathered ahead in chunks when there is a set loop
    # to gather ahead of; a one-set program, and any program whose rows
    # are above the cut, gathers them in its step.
    hoist = hoists_tips(instance) and len(operation_sets) > 1
    chunk_rows = _chunk_rows(instance) if hoist else 0
    for ops in operation_sets:
        if not ops:
            continue
        if not operations_independent(ops):
            raise ValueError("operation set contains internal dependencies")
        products, scaled = [], []
        for op in ops:
            first = child(op.child1, op.child1_matrix)
            second = child(op.child2, op.child2_matrix)
            dest = slot_of(op.destination)
            products.append((dest, first, second))
            if op.destination_scale >= 0:
                scaled.append((dest, op.destination_scale))
        if hoist:
            steps.append(_hoisted_step(ops, chunks, products, scaled, chunk_rows))
        else:
            steps.append(_NarrowStep(ops, None, products, scaled))
        written.update(dest for dest, _, _ in products)
    for chunk in chunks:
        chunk.freeze(instance)
    runs = [i for i, step in enumerate(steps) if step.is_run]
    if not runs:
        return Program(steps, reads)
    gathered = max((len(chunk.rows) for chunk in chunks), default=0)
    scratch = max(
        (
            _length(dest)
            for i in runs
            for dest, first, second in steps[i].products
            if second[0] != _GATHERED
        ),
        default=0,
    )
    return Program(steps, reads, runs, (gathered, scratch))


def execute_set(instance: "BeagleInstance", ops: Sequence["Operation"]) -> None:
    """Run one independent operation set as a one-set program (timed as
    phases when the recorder is recording)."""
    program = compile_program(instance, [ops])
    obs = get_recorder()
    for step in program.start(instance).steps:
        if obs.enabled:
            step.run(instance, instance.workspace, obs)
        else:
            step.run(instance, instance.workspace)


class DirtyPath:
    """What :meth:`~repro.beagle.instance.BeagleInstance.bind_plan` binds
    for an incremental plan: each set takes its per-operation step from
    entries the instance keeps per destination slot.

    ``instance._lowered`` maps a destination slot to ``(operation, tip
    kinds, one-operation step, read slots)``; an entry serves the same
    operation (identity, then equality) while every tip holds data of the
    kind it held at lowering, the rule :class:`PlanPrograms` keys on. A set
    whose operations all have one runs from them after its independence
    and read checks, at any width; any other set is lowered once, as a
    one-set program, and refills the entries.
    """

    __slots__ = ("instance",)

    def __init__(self, instance: "BeagleInstance") -> None:
        self.instance = instance

    def step_for(self, ops: Sequence["Operation"]):
        """The set's per-operation step."""
        instance = self.instance
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
