"""Preallocated scratch and a matrix cache for the partials kernel.

Two pieces of engine state that make the hot path *incremental-friendly*:

* :class:`Workspace` — grow-on-demand scratch arrays sized to the largest
  tip chunk and the widest run step run so far (see
  :mod:`repro.beagle.setexec`). Once warm, a compiled program performs
  **zero per-set array allocations**: gathers land in preallocated
  buffers (``np.take(..., out=)``), matmuls write through ``out=``, and
  index bookkeeping reuses fixed ``int64`` arrays. On a GPU this scratch
  would be device memory allocated once at instance creation (exactly
  BEAGLE's buffer model); on the CPU it removes the allocator from the
  profile.

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
    """Grow-on-demand scratch for operation-set execution.

    Parameters
    ----------
    dtype:
        Floating-point dtype of the partials/matrices the scratch serves.
    category_count, pattern_count, state_count:
        The instance's fixed data dimensions ``C``, ``P``, ``S``.

    Notes
    -----
    Three groups grow independently: the scratch rows of run steps'
    second store side (:meth:`ensure_scratch`), the compact-tip gather
    scratch (:meth:`ensure_tips`, geometrically) and the tip rows steps
    gather ahead of their sets (:meth:`ensure_gathered`).
    Every growth bumps :attr:`allocations`; calls at or below the
    high-water mark are free. Tests assert steady state by checking that
    :attr:`allocations` stops moving across evaluations.
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
        #: Rows the compact-tip gather scratch can hold.
        self.tip_capacity = 0
        #: Times the scratch was (re)allocated — stable in steady state.
        self.allocations = 0
        #: The tip chunk whose contributions ``gathered_tips`` holds.
        self.gathered_by: Optional[object] = None
        C, P, S = category_count, pattern_count, state_count
        self.scratch = np.empty((0, C, P, S), dtype=self.dtype)
        self._allocate_tips(0)
        self.gathered_tips = np.empty((0, C, P, S), dtype=self.dtype)
        # Size-independent scratch, allocated once: one (C, P, S) row for
        # a per-operation step's second computed child, and per-pattern scaling.
        self.row = np.empty((C, P, S), dtype=self.dtype)
        self._factors = np.empty(P, dtype=self.dtype)
        self._safe = np.empty(P, dtype=self.dtype)
        # Log factors stay in the instance dtype so every step computes
        # exactly what the single-operation kernel computes; the scale
        # bank widens to float64 on write.
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
        workspace? Exact dimension equality is required — the buffers' shapes
        are baked in at allocation, and a mismatched ``out=`` target
        would either fail or silently truncate."""
        return (
            np.dtype(dtype) == self.dtype
            and category_count == self.category_count
            and pattern_count == self.pattern_count
            and state_count == self.state_count
        )

    def ensure_scratch(self, n: int) -> None:
        """Hold at least ``n`` scratch rows: a run step's second store
        side."""
        if n <= len(self.scratch):
            return
        C, P, S = self.category_count, self.pattern_count, self.state_count
        self.scratch = np.empty((n, C, P, S), dtype=self.dtype)
        self.allocations += 1

    def ensure_tips(self, n: int) -> None:
        """Grow the compact-tip gather scratch to at least ``n`` rows."""
        if n <= self.tip_capacity:
            return
        self._allocate_tips(max(n, 2 * self.tip_capacity))
        self.allocations += 1

    def ensure_gathered(self, n: int, target: int) -> None:
        """Hold at least ``n`` gathered tip rows. Growth jumps straight to
        ``max(n, target)`` rows, so an instance whose tip chunks stay
        within ``target`` rows grows once."""
        if n <= len(self.gathered_tips):
            return
        C, P, S = self.category_count, self.pattern_count, self.state_count
        self.gathered_tips = np.empty((max(n, target), C, P, S), dtype=self.dtype)
        self.gathered_by = None
        self.allocations += 1

    def _allocate_tips(self, rows: int) -> None:
        C, P = self.category_count, self.pattern_count
        # Each tip row's codes, then its flat matrix-row index per
        # (category, pattern).
        self.codes = np.empty((rows, P), dtype=np.int64)
        self.rowidx = np.empty((rows, C, P), dtype=np.int64)
        self.tip_capacity = rows

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
        """``(P,)`` bool scratch marking positive factors."""
        return self._mask

    _BUFFERS = (
        "scratch",
        "gathered_tips",
        "codes",
        "rowidx",
        "row",
        "_factors",
        "_safe",
        "_logs",
        "_mask",
    )

    def nbytes(self) -> int:
        """Bytes currently held by the workspace's buffers."""
        return sum(getattr(self, name).nbytes for name in self._BUFFERS)

    def buffer_token(self) -> Tuple[int, ...]:
        """Identity token of the big buffers — unchanged means reused."""
        return tuple(id(getattr(self, name)) for name in self._BUFFERS[:4])


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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TransitionMatrixCache size={len(self)}/{self.capacity} "
            f"hits={self.hits} misses={self.misses}>"
        )
