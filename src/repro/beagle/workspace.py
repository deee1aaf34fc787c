"""Preallocated execution arenas for the batched partials kernel.

Two pieces of engine state that make the hot path *incremental-friendly*:

* :class:`Workspace` — a grow-on-demand arena of scratch arrays sized to
  the widest arena block run so far (see :mod:`repro.beagle.setexec`).
  Once warm, arena execution performs **zero per-set array
  allocations**: gathers land in preallocated buffers
  (``np.take(..., out=)``), matmuls write through ``out=``, and index
  bookkeeping reuses fixed ``int64`` arrays. On a GPU this arena would be
  device memory allocated once at instance creation (exactly BEAGLE's
  buffer model); on the CPU it removes the allocator from the profile of
  wide sets.

* :class:`TransitionMatrixCache` — an LRU cache of computed transition
  matrices keyed by (eigen decomposition, rates version, quantized branch
  length). Inference loops re-derive the same ``P(t)`` over and over:
  a full-traversal proposal recomputes ``n − 1`` matrices of which
  ``n − 2`` are unchanged, and trees routinely carry duplicate branch
  lengths. Hits return the exact array computed on the original miss, so
  caching never perturbs likelihoods (bit-identical by construction).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

import numpy as np

__all__ = ["Workspace", "TransitionMatrixCache"]


class Workspace:
    """Grow-on-demand scratch arena for batched operation-set execution.

    Parameters
    ----------
    dtype:
        Floating-point dtype of the partials/matrices the arena serves.
    category_count, pattern_count, state_count:
        The instance's fixed data dimensions ``C``, ``P``, ``S``.

    Notes
    -----
    :meth:`ensure` grows every buffer to hold at least ``k`` operations
    (``2k`` child rows) and bumps :attr:`allocations`; repeated calls at
    or below the high-water mark are free. Tests assert steady state by
    checking that :attr:`allocations` stops moving across evaluations.
    """

    def __init__(
        self,
        dtype: np.dtype,
        category_count: int,
        pattern_count: int,
        state_count: int,
    ) -> None:
        self.dtype = np.dtype(dtype)
        self.category_count = category_count
        self.pattern_count = pattern_count
        self.state_count = state_count
        #: Operations the arena can currently hold without growing.
        self.capacity = 0
        #: Times the arena (re)allocated its buffers — stable in steady state.
        self.allocations = 0
        # Per-pattern scaling scratch is size-independent: allocate once.
        P = pattern_count
        self._factors = np.empty(P, dtype=self.dtype)
        self._safe = np.empty(P, dtype=self.dtype)
        # Log factors stay in the instance dtype so the batched rescale
        # computes exactly what the serial kernel computes; the scale
        # bank widens to float64 on write, as it does for the serial path.
        self._logs = np.empty(P, dtype=self.dtype)
        self._mask = np.empty(P, dtype=bool)

    def compatible_with(
        self,
        dtype: np.dtype,
        category_count: int,
        pattern_count: int,
        state_count: int,
    ) -> bool:
        """May an instance with these dimensions execute through this
        arena? Exact dimension equality is required — the buffers' shapes
        are baked in at allocation, and a mismatched ``out=`` target
        would either fail or silently truncate."""
        return (
            np.dtype(dtype) == self.dtype
            and category_count == self.category_count
            and pattern_count == self.pattern_count
            and state_count == self.state_count
        )

    def ensure(self, k: int) -> None:
        """Grow every buffer to hold at least ``k`` operations."""
        if k <= self.capacity:
            return
        C, P, S = self.category_count, self.pattern_count, self.state_count
        cap = max(k, 2 * self.capacity)
        rows = 2 * cap  # one child row per (operation, side)
        dt = self.dtype
        # Child contributions for the whole block: firsts then seconds.
        self.contributions = np.empty((rows, C, P, S), dtype=dt)
        # Group-local compute target (scattered into `contributions`).
        self.scratch = np.empty((rows, C, P, S), dtype=dt)
        # Internal-child partials gathered contiguously for the matmul.
        self.gathered = np.empty((rows, C, P, S), dtype=dt)
        # Transition matrices gathered per group, plus their transposes.
        self.mats = np.empty((rows, C, S, S), dtype=dt)
        self.mats_T = np.empty((rows, C, S, S), dtype=dt)
        # Transposed matrices padded with a ones row at state index S, so
        # the tip-code gather resolves the "unknown" code to all-ones.
        self.padded_T = np.empty((rows, C, S + 1, S), dtype=dt)
        # Tip-code gather bookkeeping.
        self.codes = np.empty((rows, P), dtype=np.int64)
        self.rowidx = np.empty((rows, C, P), dtype=np.int64)
        # row_base[i, c] = (i*C + c) * (S+1): the flat row offset of
        # (operation-row i, category c) in the padded_T row matrix.
        base = (np.arange(rows)[:, None] * C + np.arange(C)[None, :]) * (S + 1)
        self.row_base = np.ascontiguousarray(base, dtype=np.int64)
        # Child classification (filled by the block's classification pass).
        self.child_buffers = np.empty(rows, dtype=np.int64)
        self.internal_sel = np.empty(rows, dtype=np.int64)
        self.internal_slots = np.empty(rows, dtype=np.int64)
        self.internal_mats = np.empty(rows, dtype=np.int64)
        self.code_sel = np.empty(rows, dtype=np.int64)
        self.code_tips = np.empty(rows, dtype=np.int64)
        self.code_mats = np.empty(rows, dtype=np.int64)
        self.explicit_sel = np.empty(rows, dtype=np.int64)
        self.explicit_mats = np.empty(rows, dtype=np.int64)
        # Destinations.
        self.dest_slots = np.empty(cap, dtype=np.int64)
        self.capacity = cap
        self.allocations += 1

    # -- per-pattern scaling scratch (size-independent views) -----------
    @property
    def scale_factors(self) -> np.ndarray:
        """``(P,)`` max-reduction target for one operation's rescale."""
        return self._factors

    @property
    def scale_safe(self) -> np.ndarray:
        """``(P,)`` zero-protected factors (zeros replaced by 1)."""
        return self._safe

    @property
    def scale_logs(self) -> np.ndarray:
        """``(P,)`` log factors (instance dtype) handed to the scale bank."""
        return self._logs

    @property
    def scale_mask(self) -> np.ndarray:
        """``(P,)`` bool scratch marking non-positive factors."""
        return self._mask

    def nbytes(self) -> int:
        """Bytes currently held by the arena's buffers."""
        total = (
            self._factors.nbytes
            + self._safe.nbytes
            + self._logs.nbytes
            + self._mask.nbytes
        )
        if self.capacity:
            for name in (
                "contributions",
                "scratch",
                "gathered",
                "mats",
                "mats_T",
                "padded_T",
                "codes",
                "rowidx",
                "row_base",
                "child_buffers",
                "internal_sel",
                "internal_slots",
                "internal_mats",
                "code_sel",
                "code_tips",
                "code_mats",
                "explicit_sel",
                "explicit_mats",
                "dest_slots",
            ):
                total += getattr(self, name).nbytes
        return total

    def buffer_token(self) -> Tuple[int, ...]:
        """Identity token of the big buffers — unchanged means reused."""
        if not self.capacity:
            return ()
        return (
            id(self.contributions),
            id(self.scratch),
            id(self.gathered),
            id(self.mats),
            id(self.padded_T),
        )


class TransitionMatrixCache:
    """LRU cache of computed transition-matrix stacks ``(C, S, S)``.

    Keys combine the eigen decomposition's identity, the rates version
    (the category-rate vector's bytes), and the — optionally quantized —
    branch length. Values are the float64 matrices exactly as the batched
    eigen-multiply produced them, so a hit installs bit-identical data.

    Parameters
    ----------
    capacity:
        Maximum cached entries; the least recently used entry is evicted
        beyond it.
    quantum:
        Branch-length quantization step. ``0.0`` (default) keys on the
        exact float — hits only for *exactly* repeated lengths, and the
        likelihood is untouched. A positive quantum snaps lengths to the
        grid **and computes the matrix at the snapped length**, trading a
        bounded branch-length perturbation for a higher hit rate; the
        cache stays self-consistent because key and computed length agree.

    Notes
    -----
    Entries pin the eigen decomposition they were computed from, so an
    ``id()``-based key can never alias a garbage-collected object. The
    cache is not thread-safe; share it across evaluators of one inference
    loop (see ``TreeLikelihood(matrix_cache=...)``), not across threads.
    """

    def __init__(self, capacity: int = 4096, quantum: float = 0.0) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        if quantum < 0.0:
            raise ValueError("quantum must be non-negative")
        self.capacity = capacity
        self.quantum = quantum
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Hashable, Tuple[np.ndarray, Any]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def effective_length(self, t: float) -> float:
        """The branch length a lookup of ``t`` is served at.

        Identity when ``quantum`` is 0; otherwise ``t`` snapped to the
        nearest grid point (never negative).
        """
        if self.quantum == 0.0:
            return float(t)
        return max(round(float(t) / self.quantum), 0) * self.quantum

    def key_for(self, eigen: Any, rates_key: Hashable, t: float) -> Hashable:
        """Cache key of one (eigen, rates version, branch length) triple."""
        return (id(eigen), rates_key, self.effective_length(t))

    def lookup(self, key: Hashable) -> Optional[np.ndarray]:
        """The cached matrix for ``key`` (refreshes LRU order), or None.

        Does **not** touch the hit/miss counters — callers batch their
        own accounting so duplicate keys inside one engine call can be
        counted as hits.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def store(self, key: Hashable, matrix: np.ndarray, pin: Any = None) -> None:
        """Insert a computed matrix, evicting the LRU entry when full."""
        self._entries[key] = (matrix, pin)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """Counters snapshot: hits, misses, evictions, size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
        }

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TransitionMatrixCache size={len(self)}/{self.capacity} "
            f"hits={self.hits} misses={self.misses}>"
        )
