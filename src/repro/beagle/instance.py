"""The BEAGLE-work-alike likelihood instance.

:class:`BeagleInstance` mirrors the buffer-indexed API of the BEAGLE
library (§III of the paper): tips and internal nodes are *partials
buffers*, branches are *transition-matrix buffers*, and likelihood
evaluation is driven by submitting :class:`~repro.beagle.operations.Operation`
lists. The instance does not know about trees — exactly as in BEAGLE, the
calling code (here :mod:`repro.core.planner`) maps a tree traversal onto
buffer indices.

Execution instrumentation (``stats``) records kernel launches, operations
and effective FLOPs so the GPU device model (:mod:`repro.gpu`) and the
benchmarks can account throughput the way the paper does (§VI-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..models.eigen import EigenDecomposition, transition_matrices
from ..models.siterates import sums_to_one
from ..obs import get_recorder
from ..obs.profile import (
    PHASE_MATRICES,
    PHASE_ROOT,
)
from .kernels import (
    child_contribution,
    dense_tip_partials,
    edge_site_likelihoods,
    operation_flops,
    reduce_sites,
    root_site_likelihoods,
)
from .operations import Operation
from .scaling import ScaleBufferBank
from .setexec import _CODES_TIP, _PARTIALS_TIP, DirtyPath, ProgramRun, execute_set
from .workspace import TransitionMatrixCache, Workspace

__all__ = ["BeagleInstance", "InstanceStats", "InstanceWrapper"]


@dataclass
class InstanceStats:
    """Execution counters since construction or the last ``reset``."""

    kernel_launches: int = 0
    operations: int = 0
    flops: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        self.kernel_launches = 0
        self.operations = 0
        self.flops = 0


class BeagleInstance:
    """A likelihood-computation instance over fixed-size buffers.

    Every operation set runs through one executor
    (:mod:`repro.beagle.setexec`), which lowers sets to per-operation
    or run steps by the layout of their operands; per-operation results are
    bit-identical however the scheduler groups operations into sets (full
    traversals and incremental dirty paths agree exactly). A plan
    executed a second time runs as a program the plan lowered once for
    every instance of this layout and tip kinds (:meth:`bind_plan`). An optional
    :class:`~repro.beagle.workspace.TransitionMatrixCache` can be
    attached as :attr:`matrix_cache` to serve repeated
    ``update_transition_matrices`` lengths from an LRU instead of
    recomputing the eigen-multiply.

    Parameters
    ----------
    tip_count:
        Number of tip buffers (indices ``0 .. tip_count-1``).
    partials_buffer_count:
        Number of internal partials buffers (indices ``tip_count ..``).
    matrix_count:
        Number of transition-matrix buffers.
    pattern_count, state_count:
        Data dimensions ``p`` and ``s``.
    category_count:
        Rate categories ``c`` (default 1).
    scale_buffer_count:
        Scale buffers for manual rescaling (0 disables).
    dtype:
        Floating-point precision of partials and matrices:
        ``numpy.float64`` (default) or ``numpy.float32``. Single
        precision is the GPU-typical configuration whose underflow on
        large trees motivates the paper's ``--manualscale`` option
        (§VI-F); scale buffers always stay in double precision, exactly
        as BEAGLE keeps log scalers at higher precision.
    """

    def __init__(
        self,
        tip_count: int,
        partials_buffer_count: int,
        matrix_count: int,
        pattern_count: int,
        state_count: int,
        category_count: int = 1,
        scale_buffer_count: int = 0,
        dtype=np.float64,
    ) -> None:
        if min(tip_count, partials_buffer_count, matrix_count) < 1:
            raise ValueError("buffer counts must be positive")
        if min(pattern_count, state_count, category_count) < 1:
            raise ValueError("data dimensions must be positive")
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("dtype must be float32 or float64")
        self.dtype = dtype
        self.tip_count = tip_count
        self.partials_buffer_count = partials_buffer_count
        self.matrix_buffer_count = matrix_count
        self.pattern_count = pattern_count
        self.state_count = state_count
        self.category_count = category_count

        # Explicit tip partials, per tip index.
        self._tip_partials: Dict[int, np.ndarray] = {}
        # Each tip's kind of data (0 none, then _CODES_TIP or
        # _PARTIALS_TIP), the only tip fact lowering bakes in: programs
        # and dirty-path entries serve only the kinds they were lowered
        # for. Immutable, and replaced only when a kind changes.
        self._tip_kinds = bytes(tip_count)
        # Compact tip codes, one row per tip: a tip of kind _CODES_TIP
        # reads its row, and multi-operation steps gather from it.
        self._tip_codes_dense = np.zeros((tip_count, pattern_count), dtype=np.int64)
        # Partials store: one dense block, views handed to kernels. Row
        # ``b - tip_count`` holds buffer ``b``; the pre-order upper bank,
        # once enabled, is the rows after the internal partials.
        self._partials = np.zeros(
            (partials_buffer_count, category_count, pattern_count, state_count),
            dtype=dtype,
        )
        self._partials_valid = np.zeros(partials_buffer_count, dtype=bool)
        # Transition matrices, stored transposed and padded: block
        # ``_padded[m, c, :S]`` is P(t)ᵀ (the view ``_transposed``), so a
        # child's contribution is the contiguous product ``L @ block``;
        # row ``[m, c, S]`` is all ones, so the "unknown" tip code S
        # gathers a contribution of 1.
        self._padded = np.zeros(
            (matrix_count, category_count, state_count + 1, state_count),
            dtype=dtype,
        )
        self._padded[:, :, state_count, :] = 1.0
        self._transposed = self._padded[:, :, :state_count]
        self.scale = ScaleBufferBank(scale_buffer_count, pattern_count)

        self._weights = np.ones(pattern_count)
        self._frequencies = np.full(state_count, 1.0 / state_count)
        self._category_rates = np.ones(category_count)
        self._category_weights = np.full(category_count, 1.0 / category_count)
        self._rates_key: bytes = self._category_rates.tobytes()
        self._eigens: Dict[int, EigenDecomposition] = {}

        #: Optional LRU transition-matrix cache; ``None`` disables caching.
        self.matrix_cache: Optional[TransitionMatrixCache] = None
        # Scratch for set execution, created on first use.
        self._workspace: Optional[Workspace] = None
        # The run of a bound plan (bind_plan); the programs live on plans.
        self._bound: Optional[ProgramRun | DirtyPath] = None
        # Dirty-path entries by destination slot (setexec.DirtyPath).
        self._lowered: Dict[int, tuple] = {}
        # Each program's run steps bound to this instance's arrays, a
        # WeakKeyDictionary made by the first (setexec.Program.start).
        self._views: Optional[Any] = None

        self.stats = InstanceStats()
        self._flops_per_operation = operation_flops(
            pattern_count, state_count, category_count
        )

    # ------------------------------------------------------------------
    # Data setters (the beagleSet* family)
    # ------------------------------------------------------------------
    def set_tip_states(self, tip_index: int, codes: Sequence[int]) -> None:
        """Compact observed states for a tip (``state_count`` = unknown)."""
        self.set_tip_states_rows([tip_index], [codes])

    def set_tip_states_rows(self, indices: Sequence[int], codes) -> None:
        """Compact observed states for several tips: row ``i`` of the
        ``(len(indices), patterns)`` ``codes`` goes to tip ``indices[i]``.

        One validation and one dense-mirror write for the whole batch,
        with the errors :meth:`set_tip_states` raises for the same data
        (an out-of-range tip names the first one). The tip indices are
        checked and the kinds written as arrays, and integer codes are
        copied once, into the dense mirror.
        """
        tips = np.asarray(indices, dtype=np.int64)
        outside = (tips < 0) | (tips >= self.tip_count)
        if outside.any():
            raise IndexError(f"tip index {tips[outside][0]} out of range")
        arr = np.asarray(codes)
        if arr.dtype.kind not in "iu":
            arr = arr.astype(np.int64)
        if arr.shape != (len(tips), self.pattern_count):
            raise ValueError("codes length must equal pattern count")
        if arr.size and (arr.min() < 0 or arr.max() > self.state_count):
            raise ValueError("tip codes out of range")
        self._tip_codes_dense[tips] = arr
        if self._tip_partials:
            for tip in tips.tolist():
                self._tip_partials.pop(tip, None)
        self._set_tip_kinds(tips, _CODES_TIP)

    def set_tip_partials(self, tip_index: int, partials: np.ndarray) -> None:
        """Explicit tip partials ``(patterns, states)`` (ambiguity codes)."""
        self._check_tip(tip_index)
        arr = np.asarray(partials, dtype=self.dtype)
        if arr.shape != (self.pattern_count, self.state_count):
            raise ValueError("tip partials must be (patterns, states)")
        # Broadcast across categories once; kernels then treat the tip
        # exactly like an internal buffer.
        self._tip_partials[tip_index] = np.broadcast_to(
            arr, (self.category_count,) + arr.shape
        ).copy()
        self._set_tip_kinds([tip_index], _PARTIALS_TIP)
        # Run steps bound to this instance view the replaced array.
        self._views = None

    def _set_tip_kinds(self, tips: Sequence[int], kind: int) -> None:
        """Record ``kind`` for ``tips``; a new kinds object only if one
        changed."""
        kinds = bytearray(self._tip_kinds)
        np.frombuffer(kinds, dtype=np.uint8)[tips] = kind
        if kinds != self._tip_kinds:
            self._tip_kinds = bytes(kinds)

    def _tip_kind(self, tip_index: int) -> int:
        """The kind of data tip ``tip_index`` holds (0 for none)."""
        return self._tip_kinds[tip_index] if tip_index >= 0 else 0

    def set_pattern_weights(self, weights: Sequence[float]) -> None:
        """Per-pattern multiplicities used by the likelihood reductions."""
        arr = np.array(weights, dtype=np.float64)
        if arr.shape != (self.pattern_count,):
            raise ValueError("weights length must equal pattern count")
        if (arr < 0).any():
            raise ValueError("pattern weights must be non-negative")
        self._weights = arr

    def set_state_frequencies(self, frequencies: Sequence[float]) -> None:
        """Stationary state frequencies π (renormalised to sum to 1)."""
        arr = np.asarray(frequencies, dtype=np.float64)
        if arr.shape != (self.state_count,):
            raise ValueError("frequency length must equal state count")
        if (arr < 0).any() or arr.sum() <= 0:
            raise ValueError("frequencies must be non-negative and sum > 0")
        self._frequencies = arr / arr.sum()

    def set_category_rates(self, rates: Sequence[float]) -> None:
        """Rate multiplier of each among-site rate category.

        Changing the rates also changes the rates version key, so any
        attached :attr:`matrix_cache` entries computed under the old
        rates can no longer be served (their keys stop matching). Like the
        weight setters, it copies its input: editing the caller's array
        later changes nothing.
        """
        arr = np.array(rates, dtype=np.float64)
        if arr.shape != (self.category_count,):
            raise ValueError("rates length must equal category count")
        self._category_rates = arr
        self._rates_key = arr.tobytes()

    def set_category_weights(self, weights: Sequence[float]) -> None:
        """Prior probability of each rate category (must sum to 1)."""
        arr = np.array(weights, dtype=np.float64)
        if arr.shape != (self.category_count,):
            raise ValueError("weights length must equal category count")
        if (arr < 0).any() or not sums_to_one(arr):
            raise ValueError("category weights must be a distribution")
        self._category_weights = arr

    def set_eigen_decomposition(self, index: int, eigen: EigenDecomposition) -> None:
        """Install a model's eigendecomposition under a buffer index."""
        if eigen.n_states != self.state_count:
            raise ValueError("eigen decomposition has wrong state count")
        self._eigens[index] = eigen

    # ------------------------------------------------------------------
    # Transition matrices
    # ------------------------------------------------------------------
    @property
    def _matrices(self) -> np.ndarray:
        """The ``(M, C, S, S)`` transition matrices: a writable view."""
        return self._transposed.transpose(0, 1, 3, 2)

    def update_transition_matrices(
        self,
        eigen_index: int,
        matrix_indices: Sequence[int],
        branch_lengths: Sequence[float],
    ) -> None:
        """Compute ``P(rate_c · t)`` for each (matrix, branch) pair.

        All matrices for all categories are produced by one batched
        eigen-multiply — the work BEAGLE performs in
        ``beagleUpdateTransitionMatrices``. When a
        :attr:`matrix_cache` is attached, each pair is first looked up
        in the LRU (keyed by eigen decomposition, rates version and
        quantized branch length); only the misses are computed — still
        in one batched call — and cached. Because the eigen-multiply is
        batch-composition invariant, cached and freshly computed
        matrices are bit-identical.
        """
        if eigen_index not in self._eigens:
            raise KeyError(f"eigen decomposition {eigen_index} not set")
        idx = np.asarray(matrix_indices, dtype=np.int64)
        t = np.asarray(branch_lengths, dtype=np.float64)
        if idx.shape != t.shape:
            raise ValueError("matrix indices and branch lengths must pair up")
        if idx.size and (idx.min() < 0 or idx.max() >= self._matrices.shape[0]):
            raise IndexError("matrix index out of range")
        obs = get_recorder()
        with obs.span(
            "kernel.matrices", category="kernel", matrices=int(idx.size)
        ), obs.phase(PHASE_MATRICES):
            if self.matrix_cache is not None:
                self._update_matrices_cached(
                    self.matrix_cache, self._eigens[eigen_index], idx, t, obs
                )
                return
            # (k·C,) scaled times -> (k, C, S, S)
            scaled = (t[:, None] * self._category_rates[None, :]).reshape(-1)
            P = transition_matrices(self._eigens[eigen_index], scaled)
            P = P.reshape(
                len(idx), self.category_count, self.state_count, self.state_count
            )
            self._matrices[idx] = P

    def _update_matrices_cached(
        self,
        cache: TransitionMatrixCache,
        eigen: EigenDecomposition,
        idx: np.ndarray,
        t: np.ndarray,
        obs,
    ) -> None:
        """Serve matrix updates from the LRU; batch-compute the misses.

        Duplicate branch lengths *within* one call are computed once and
        counted as hits — a tree with tied lengths warms its own call.
        """
        resolved: List[Optional[np.ndarray]] = []
        # key -> (effective length, positions awaiting the computed matrix)
        pending: Dict[Hashable, Tuple[float, List[int]]] = {}
        for i in range(idx.size):
            length = float(t[i])
            key = cache.key_for(eigen, self._rates_key, length)
            cached = cache.lookup(key)
            if cached is not None:
                resolved.append(cached)
            else:
                entry = pending.get(key)
                if entry is None:
                    pending[key] = (cache.effective_length(length), [i])
                else:
                    entry[1].append(i)
                resolved.append(None)
        n_misses = len(pending)
        n_hits = int(idx.size) - n_misses
        if pending:
            C, S = self.category_count, self.state_count
            lengths = np.array([eff for eff, _ in pending.values()])
            scaled = (lengths[:, None] * self._category_rates[None, :]).reshape(-1)
            P = transition_matrices(eigen, scaled).reshape(
                n_misses, C, S, S
            )
            for j, (key, (_, positions)) in enumerate(pending.items()):
                matrix = np.ascontiguousarray(P[j])
                cache.store(key, matrix, pin=eigen)
                for position in positions:
                    resolved[position] = matrix
        matrices = self._matrices
        for i in range(idx.size):
            matrices[idx[i]] = resolved[i]
        cache.hits += n_hits
        cache.misses += n_misses
        if obs.enabled:
            if n_hits:
                obs.count("repro_matrix_cache_hits_total", n_hits)
            if n_misses:
                obs.count("repro_matrix_cache_misses_total", n_misses)

    def set_transition_matrix(self, matrix_index: int, matrix: np.ndarray) -> None:
        """Directly install a ``(C, S, S)`` or ``(S, S)`` matrix buffer."""
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim == 2:
            arr = np.broadcast_to(
                arr, (self.category_count,) + arr.shape
            )
        if arr.shape != self._matrices.shape[1:]:
            raise ValueError("matrix has wrong shape")
        self._matrices[matrix_index] = arr

    # ------------------------------------------------------------------
    # Buffer access helpers
    # ------------------------------------------------------------------
    def _check_tip(self, tip_index: int) -> None:
        if not 0 <= tip_index < self.tip_count:
            raise IndexError(f"tip index {tip_index} out of range")

    def _internal_slot(self, buffer_index: int) -> int:
        """Store row of a non-tip buffer, lower or upper (range-checked)."""
        slot = buffer_index - self.tip_count
        if not 0 <= slot < self._partials.shape[0]:
            raise IndexError(f"partials buffer {buffer_index} out of range")
        return slot

    def _child_arrays(self, buffer_index: int):
        """Return ``(partials, codes)`` for a child buffer (one is None)."""
        if buffer_index < self.tip_count:
            kind = self._tip_kind(buffer_index)
            if kind == _CODES_TIP:
                return None, self._tip_codes_dense[buffer_index]
            if kind == _PARTIALS_TIP:
                return self._tip_partials[buffer_index], None
            raise ValueError(f"tip buffer {buffer_index} has no data")
        slot = self._internal_slot(buffer_index)
        if not self._partials_valid[slot]:
            raise ValueError(
                f"partials buffer {buffer_index} read before being computed"
            )
        return self._partials[slot], None

    def get_partials(self, buffer_index: int) -> np.ndarray:
        """Copy of a computed partials buffer ``(C, P, S)``."""
        partials, codes = self._child_arrays(buffer_index)
        if partials is None:
            # Expand tip codes for inspection convenience.
            return dense_tip_partials(
                codes, self.state_count, self.category_count, self.dtype
            )
        return np.array(partials, copy=True)

    def invalidate_partials(self) -> None:
        """Mark every internal buffer as not-yet-computed."""
        self._partials_valid[: self.partials_buffer_count] = False

    # ------------------------------------------------------------------
    # Pre-order upper partials (the all-branch gradient bank)
    # ------------------------------------------------------------------
    @property
    def upper_base(self) -> int:
        """First upper-partial buffer index (one past the lower buffers).

        The upper partials of the node with lower buffer index ``i`` live
        at global index ``upper_base + i``; operations over the combined
        space need no bank tag (see :mod:`repro.core.schedule`).
        """
        return self.tip_count + self.partials_buffer_count

    @property
    def _upper_enabled(self) -> bool:
        """Whether :meth:`enable_upper_partials` has allocated the bank."""
        return self._partials.shape[0] > self.partials_buffer_count

    def enable_upper_partials(self) -> None:
        """Allocate the upper-partial bank (idempotent).

        One ``(C, P, S)`` slot per node — tips included, because every
        branch (tip branches too) has a far-side half-tree. The bank is
        the rows after the internal partials in one store, so upper
        buffer ``b`` sits at row ``b - tip_count`` exactly like a lower
        buffer (``upper_base - tip_count == partials_buffer_count``) and
        one child lookup serves both passes. Roughly doubles the partials
        footprint, which is why the bank is opt-in; existing lower
        partials are kept.
        """
        if self._upper_enabled:
            return
        n = self.partials_buffer_count
        shape = (n + self.upper_base,) + self._partials.shape[1:]
        store = np.zeros(shape, dtype=self.dtype)
        store[:n] = self._partials
        valid = np.zeros(store.shape[0], dtype=bool)
        valid[:n] = self._partials_valid
        self._partials, self._partials_valid = store, valid
        # Views of the replaced store would keep it alive.
        self._views = None

    def invalidate_upper_partials(self) -> None:
        """Mark every upper-partial buffer as not-yet-computed."""
        self._partials_valid[self.partials_buffer_count :] = False

    def _upper_slot(self, buffer_index: int) -> int:
        """Store row of a global upper buffer index (range-checked)."""
        if not self._upper_enabled:
            raise ValueError(
                "upper partials not enabled; call enable_upper_partials()"
            )
        if not self.upper_base <= buffer_index < 2 * self.upper_base:
            raise IndexError(f"upper buffer {buffer_index} out of range")
        return buffer_index - self.tip_count

    def seed_upper_partials(self, destination: int, source: int) -> None:
        """Seed a root child's upper buffer from its sibling's lowers.

        ``destination`` is a global upper index (``upper_base + node``),
        ``source`` a lower buffer. Under the suppressed-root (pulley)
        view the far side of a root child's branch is exactly the sibling
        subtree, so the seed is a copy — tip codes are expanded to dense
        one-hot partials in the instance dtype.
        """
        slot = self._upper_slot(destination)
        partials, codes = self._child_arrays(source)
        if partials is None:
            self._partials[slot] = dense_tip_partials(
                codes, self.state_count, self.category_count, self.dtype
            )
        else:
            self._partials[slot] = partials
        self._partials_valid[slot] = True

    def upper_partials(self, node_buffer: int) -> np.ndarray:
        """Copy of a node's computed upper partials ``(C, P, S)``.

        ``node_buffer`` is the node's *lower* buffer index; the method
        offsets into the upper bank itself.
        """
        slot = self._upper_slot(self.upper_base + node_buffer)
        if not self._partials_valid[slot]:
            raise ValueError(
                f"upper buffer {self.upper_base + node_buffer} "
                "read before being computed"
            )
        return np.array(self._partials[slot], copy=True)

    def update_upper_partials_set(self, operations: Sequence[Operation]) -> None:
        """Execute one independent *upper*-partial operation set.

        The pre-order analogue of :meth:`update_partials_set`: each
        operation's ``child1`` is a sibling's lower buffer, its ``child2``
        the parent's upper buffer, and the destination an upper buffer.
        Upper buffers are ordinary store rows, so the set runs through the
        same executor as a post-order set.
        """
        if not self._upper_enabled:
            raise ValueError(
                "upper partials not enabled; call enable_upper_partials()"
            )
        self._launch(operations, "kernel.upper")

    def enable_scaling(self, count: int) -> None:
        """Grow the scale bank to at least ``count`` buffers.

        Rescaling escalation (:class:`repro.exec.resilient.ResilientInstance`)
        upgrades an instance created without scale buffers when underflow
        is detected mid-run; existing buffers keep their contents so the
        call is idempotent and safe between evaluations.
        """
        if count < 0:
            raise ValueError("scale buffer count must be non-negative")
        if count <= self.scale.count:
            return
        bank = ScaleBufferBank(count, self.pattern_count)
        if self.scale.count:
            bank._logs[: self.scale.count] = self.scale._logs
        self.scale = bank

    # ------------------------------------------------------------------
    # Core execution (beagleUpdatePartials)
    # ------------------------------------------------------------------
    def update_partials_set(self, operations: Sequence[Operation]) -> None:
        """Execute one *independent* operation set as a single launch.

        Raises
        ------
        ValueError
            If the operations are not mutually independent — the caller
            (scheduler) must guarantee set independence, exactly as the
            BEAGLE library requires.
        """
        self._launch(operations, "kernel.batch")

    def bind_plan(self, plan, operation_sets=None) -> None:
        """Run ``plan``'s sets through the program the plan holds for this
        instance's layout and tip kinds.

        Until :meth:`unbind_plan`, each ``update_partials_set`` (or
        ``update_upper_partials_set``) call whose set is the bound
        program's next one runs that set's precompiled step; any other
        set runs as a one-set program. The plan lowers its program on its
        second execution, on whichever instance that is — a one-shot plan
        never pays for it — and keeps it in ``plan.programs``
        (:class:`~repro.beagle.setexec.PlanPrograms`), one per instance
        layout and tip kinds, so later instances with the same layout and
        tip kinds (a fresh instance per served request, a shard of the
        same size) run it without lowering. An incremental plan never gets a
        program: its sets run from entries lowered once per
        destination slot of this instance and reused by later dirty paths
        (:class:`~repro.beagle.setexec.DirtyPath`). ``plan`` is any object
        with ``programs`` and ``operation_sets``; a
        :class:`~repro.core.planner.GradientPlan` passes its upper sets as
        ``operation_sets``. The sets must not be mutated once executed.

        Raises
        ------
        ValueError
            If the program reads a partials buffer that is not computed.
        """
        if getattr(plan, "incremental", False):
            self._bound = DirtyPath(self)
            return
        if operation_sets is None:
            operation_sets = plan.operation_sets
        self._bound = plan.programs.bind(self, operation_sets)

    def unbind_plan(self) -> None:
        """End the run started by :meth:`bind_plan`."""
        self._bound = None

    def _launch(self, operations: Sequence[Operation], span: str) -> None:
        """Run one operation set as one kernel launch — the bound
        program's next step, or a one-set program — and count exactly one
        launch."""
        if not operations:
            return
        bound = self._bound
        step = None if bound is None else bound.step_for(operations)
        k = len(operations)
        obs = get_recorder()
        if not obs.enabled:
            if step is None:
                execute_set(self, operations)
            else:
                step.run(self, self.workspace)
        else:
            # Observability bookkeeping — span, counters, phase timers —
            # sits behind one branch, so the disabled (null-recorder) path
            # enters no context manager.
            obs.count("repro_kernel_launches_total")
            obs.count("repro_operations_evaluated_total", k)
            obs.observe("repro_operations_per_set", k)
            with obs.span(span, category="kernel", operations=k):
                if step is None:
                    execute_set(self, operations)
                else:
                    step.run(self, self.workspace, obs)
        stats = self.stats
        stats.kernel_launches += 1
        stats.operations += k
        stats.flops += k * self._flops_per_operation

    @property
    def workspace(self) -> Workspace:
        """The instance's set-execution scratch (created on first use)."""
        if self._workspace is None:
            self._workspace = Workspace(
                self.dtype,
                self.category_count,
                self.pattern_count,
                self.state_count,
            )
        return self._workspace

    def adopt_workspace(self, workspace: Workspace) -> None:
        """Execute through a shared :class:`Workspace`.

        The serving layer (:mod:`repro.serve.coalesce`) coalesces
        same-shaped requests from different tenants onto one workspace so
        a batch of N instances allocates scratch once instead of N times.
        Sharing is safe because the workspace is pure per-launch scratch:
        every launch first writes the rows it uses (gathers and matmuls
        all take ``out=``) before reading them, so no state survives
        between instances — results are bit-identical to running each
        instance on a private workspace. The caller must serialise launches
        across adopters (one batch runs on one worker).

        Raises
        ------
        ValueError
            If the workspace's dimensions do not match this instance's.
        """
        if not workspace.compatible_with(
            self.dtype,
            self.category_count,
            self.pattern_count,
            self.state_count,
        ):
            raise ValueError(
                "workspace dimensions "
                f"(dtype={workspace.dtype}, C={workspace.category_count}, "
                f"P={workspace.pattern_count}, S={workspace.state_count}) "
                "do not match instance "
                f"(dtype={np.dtype(self.dtype)}, C={self.category_count}, "
                f"P={self.pattern_count}, S={self.state_count})"
            )
        self._workspace = workspace

    # ------------------------------------------------------------------
    # Likelihood reductions
    # ------------------------------------------------------------------
    def site_log_likelihoods(
        self,
        root_buffer: int,
        cumulative_scale_index: int = -1,
    ) -> np.ndarray:
        """Per-pattern log site likelihoods at the root buffer.

        ``log Σ_c w_c Σ_z π_z L_root[c,p,z] (+ scale_p)`` for every
        pattern ``p``, *without* the weight contraction — what a shard
        job (:mod:`repro.exec.sharding`) returns for splicing. Always
        ``float64``, regardless of the instance dtype (log scalers stay
        double, as in BEAGLE).
        """
        partials, _ = self._child_arrays(root_buffer)
        if partials is None:
            raise ValueError("root buffer must hold partials, not tip codes")
        site = root_site_likelihoods(
            partials, self._frequencies, self._category_weights
        )
        with np.errstate(divide="ignore"):
            logs = np.log(site)
        if cumulative_scale_index >= 0:
            logs = logs + self.scale.read(cumulative_scale_index)
        return np.asarray(logs, dtype=np.float64)

    def calculate_root_log_likelihood(
        self,
        root_buffer: int,
        cumulative_scale_index: int = -1,
    ) -> float:
        """Weighted log-likelihood at the root buffer.

        ``Σ_p w_p · (log Σ_c w_c Σ_z π_z L_root[c,p,z] + scale_p)``.
        """
        obs = get_recorder()
        with obs.span(
            "kernel.root", category="kernel", root_buffer=root_buffer
        ), obs.phase(PHASE_ROOT):
            logs = self.site_log_likelihoods(
                root_buffer, cumulative_scale_index
            )
            return reduce_sites(self._weights, logs)

    def calculate_edge_log_likelihood(
        self,
        parent_buffer: int,
        child_buffer: int,
        matrix_index: int,
        cumulative_scale_index: int = -1,
    ) -> float:
        """Log-likelihood across one edge (beagleCalculateEdgeLogLikelihoods).

        The tree is viewed as rooted on the edge between the two buffers;
        both partials are combined through the edge's transition matrix.
        """
        parent, parent_codes = self._child_arrays(parent_buffer)
        if parent is None:
            raise ValueError("parent buffer must hold partials")
        contribution = child_contribution(
            self._matrices[matrix_index], *self._child_arrays(child_buffer)
        )
        site = edge_site_likelihoods(
            parent, contribution, self._frequencies, self._category_weights
        )
        with np.errstate(divide="ignore"):
            logs = np.log(site)
        if cumulative_scale_index >= 0:
            logs = logs + self.scale.read(cumulative_scale_index)
        return reduce_sites(self._weights, logs)

    # ------------------------------------------------------------------
    def memory_footprint(self) -> dict:
        """Bytes held by each buffer class (the device-memory budget).

        The paper's device (Table I) pairs 3,584 cores with 16 GB of
        HBM2; partials dominate the budget at ``(n−1)·C·P·S`` floats, so
        this breakdown is what decides the largest tree×pattern problem a
        card can hold.
        """
        # Compact codes are views of the dense mirror.
        tips = sum(a.nbytes for a in self._tip_partials.values())
        tips += self._tip_codes_dense.nbytes
        lower = self._partials[: self.partials_buffer_count].nbytes
        upper = int(self._partials.nbytes - lower)
        return {
            "partials": int(lower),
            "upper_partials": upper,
            "matrices": int(self._matrices.nbytes),
            "tips": int(tips),
            "scale": int(self.scale._logs.nbytes),
            "total": int(
                self._partials.nbytes
                + self._matrices.nbytes
                + tips
                + self.scale._logs.nbytes
            ),
        }

    @property
    def flops_per_operation(self) -> int:
        """Effective FLOPs of one partial-likelihood operation."""
        return self._flops_per_operation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BeagleInstance tips={self.tip_count} "
            f"partials={self.partials_buffer_count} p={self.pattern_count} "
            f"s={self.state_count} c={self.category_count}>"
        )


class InstanceWrapper:
    """Base of the layers stacked around an instance.

    A layer (fault injection, deadline, recovery, sanitizer; composed by
    :func:`repro.exec.stack.build_stack`) intercepts the one launch
    method, ``update_partials_set``, and whatever else it must see; every
    other attribute reads through to :attr:`inner`, so a stack drops into
    any code that takes a :class:`BeagleInstance`.
    """

    def __init__(self, inner: Any) -> None:
        self._inner = inner

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    @property
    def inner(self) -> Any:
        """The wrapped instance (or layer)."""
        return self._inner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} around {self._inner!r}>"
