"""Site-pattern compression and synthetic pattern generation.

Likelihood cost scales with the number of *unique* site patterns, not raw
sites (paper §II-A: complexity ``O(p × s² × n)`` in the pattern count
``p``). :func:`compress` collapses identical alignment columns into one
weighted pattern; :func:`random_patterns` generates synthetic data the way
the BEAGLE ``synthetictest`` program does (uniform random states), which by
construction yields (almost) all-unique patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .alignment import Alignment
from .alphabet import DNA, Alphabet

__all__ = [
    "PatternData",
    "PatternAccumulator",
    "compress",
    "random_patterns",
    "slice_patterns",
]


@dataclass(frozen=True)
class PatternData:
    """Compressed site patterns ready for the likelihood engine.

    Attributes
    ----------
    taxa:
        Taxon names, in the row order of ``codes``.
    codes:
        ``(n_taxa, n_patterns)`` compact state codes; the value
        ``n_states`` marks an ambiguous/unknown character (BEAGLE's
        convention for tip-state buffers).
    weights:
        ``(n_patterns,)`` multiplicities: how many alignment columns each
        pattern represents. ``weights.sum()`` equals the original site
        count.
    alphabet:
        The shared alphabet.
    partials:
        Optional per-taxon tip partials ``(n_patterns, n_states)``, present
        only for taxa that contain *partial* ambiguity codes (e.g. IUPAC
        ``R``): a compact code cannot represent those exactly.
    """

    taxa: Tuple[str, ...]
    codes: np.ndarray
    weights: np.ndarray
    alphabet: Alphabet
    partials: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_taxa(self) -> int:
        """Number of taxa."""
        return len(self.taxa)

    @cached_property
    def rows(self) -> Dict[str, int]:
        """Row of each taxon in ``codes``, built once (``taxa`` is a
        tuple, so it cannot go stale; do not mutate it)."""
        return {name: row for row, name in enumerate(self.taxa)}

    @cached_property
    def taxon_set(self) -> FrozenSet[str]:
        """The taxa as a set, built once."""
        return frozenset(self.taxa)

    @property
    def n_patterns(self) -> int:
        """Number of unique site patterns."""
        return int(self.codes.shape[1])

    @property
    def n_sites(self) -> int:
        """Total sites represented (sum of pattern weights)."""
        return int(self.weights.sum())

    def tip_partials(self, taxon: str) -> np.ndarray:
        """``(n_patterns, n_states)`` partial matrix for one taxon.

        Exact for every taxon: taxa with partial-ambiguity codes use the
        stored matrix; the rest are expanded from compact codes.
        """
        if taxon in self.partials:
            return self.partials[taxon].copy()
        row = self.codes[self.taxa.index(taxon)]
        s = self.alphabet.n_states
        out = np.zeros((self.n_patterns, s))
        known = row < s
        out[np.arange(self.n_patterns)[known], row[known]] = 1.0
        out[~known] = 1.0
        return out


def compress(alignment: Alignment) -> PatternData:
    """Collapse identical columns of ``alignment`` into weighted patterns.

    Column identity is symbol-exact: a column ``(A, R)`` differs from
    ``(A, G)`` even though ``R`` includes ``G``. Pattern order follows
    first occurrence in the alignment, so results are deterministic.
    """
    seen: Dict[Tuple[str, ...], int] = {}
    order: List[Tuple[str, ...]] = []
    weights: List[int] = []
    for column in alignment.columns():
        idx = seen.get(column)
        if idx is None:
            seen[column] = len(order)
            order.append(column)
            weights.append(1)
        else:
            weights[idx] += 1

    alphabet = alignment.alphabet
    n_patterns = len(order)
    codes = np.empty((alignment.n_taxa, n_patterns), dtype=np.int32)
    for p, column in enumerate(order):
        for t, symbol in enumerate(column):
            codes[t, p] = alphabet.code(symbol)

    partials: Dict[str, np.ndarray] = {}
    for t, name in enumerate(alignment.names):
        symbols = [column[t] for column in order]
        # Partial (non-total) ambiguity needs an explicit partials matrix.
        needs_partials = any(
            alphabet.is_ambiguous(sym) and not np.all(alphabet.partial(sym) == 1.0)
            for sym in set(symbols)
        )
        if needs_partials:
            partials[name] = np.stack([alphabet.partial(sym) for sym in symbols])

    return PatternData(
        taxa=tuple(alignment.names),
        codes=codes,
        weights=np.asarray(weights, dtype=np.float64),
        alphabet=alphabet,
        partials=partials,
    )


class PatternAccumulator:
    """Incremental site-pattern compression for streamed alignments.

    Feed site columns chunk by chunk (e.g. :class:`~repro.data.streaming.
    SiteChunk` windows from :func:`~repro.data.streaming.iter_sites`) and
    call :meth:`finish` once. The result is *identical* to
    ``compress(alignment)`` on the fully materialised alignment — same
    first-occurrence pattern order, same weights, same codes, same
    per-taxon partials — but peak memory is the compressed pattern table,
    never the raw ``n_taxa × n_sites`` matrix.
    """

    def __init__(self, taxa: Sequence[str], alphabet: Alphabet = DNA) -> None:
        if len(taxa) < 1:
            raise ValueError("need at least one taxon")
        if len(set(taxa)) != len(taxa):
            raise ValueError("duplicate taxon names")
        self.taxa = tuple(taxa)
        self.alphabet = alphabet
        self._seen: Dict[Tuple[str, ...], int] = {}
        self._order: List[Tuple[str, ...]] = []
        self._weights: List[int] = []

    @property
    def n_patterns(self) -> int:
        """Unique patterns accumulated so far."""
        return len(self._order)

    @property
    def n_sites(self) -> int:
        """Total columns accumulated so far."""
        return int(sum(self._weights))

    def add_columns(self, columns) -> None:
        """Fold an iterable of symbol-tuple columns into the table.

        Each column must have one symbol per taxon, in ``self.taxa``
        order (chunk rows are validated by :meth:`add_chunk`).
        """
        n_taxa = len(self.taxa)
        for column in columns:
            if len(column) != n_taxa:
                raise ValueError(
                    f"column has {len(column)} symbols, expected {n_taxa}"
                )
            idx = self._seen.get(column)
            if idx is None:
                self._seen[column] = len(self._order)
                self._order.append(column)
                self._weights.append(1)
            else:
                self._weights[idx] += 1

    def add_chunk(self, chunk) -> None:
        """Fold one :class:`~repro.data.streaming.SiteChunk` in."""
        if chunk.taxa != self.taxa:
            raise ValueError(
                f"chunk taxa {chunk.taxa!r} do not match accumulator "
                f"taxa {self.taxa!r}"
            )
        self.add_columns(chunk.columns())

    def finish(self) -> PatternData:
        """The accumulated table as :class:`PatternData`.

        Exactly what ``compress`` would have produced for the same
        columns in the same order. The accumulator stays usable — more
        chunks may be added and ``finish`` called again.
        """
        if not self._order:
            raise ValueError("no site columns accumulated")
        alphabet = self.alphabet
        n_patterns = len(self._order)
        codes = np.empty((len(self.taxa), n_patterns), dtype=np.int32)
        for p, column in enumerate(self._order):
            for t, symbol in enumerate(column):
                codes[t, p] = alphabet.code(symbol)
        partials: Dict[str, np.ndarray] = {}
        for t, name in enumerate(self.taxa):
            symbols = [column[t] for column in self._order]
            needs_partials = any(
                alphabet.is_ambiguous(sym)
                and not np.all(alphabet.partial(sym) == 1.0)
                for sym in set(symbols)
            )
            if needs_partials:
                partials[name] = np.stack(
                    [alphabet.partial(sym) for sym in symbols]
                )
        return PatternData(
            taxa=self.taxa,
            codes=codes,
            weights=np.asarray(self._weights, dtype=np.float64),
            alphabet=alphabet,
            partials=partials,
        )


def slice_patterns(patterns: PatternData, start: int, stop: int) -> PatternData:
    """The contiguous pattern range ``[start, stop)`` as new ``PatternData``.

    Rows (taxa), the alphabet, and per-pattern weights are preserved;
    per-taxon partials matrices are sliced along the pattern axis. Arrays
    are copied so the slice owns its memory — a sharded evaluation can
    release the full matrix while shards are in flight.
    """
    if not 0 <= start < stop <= patterns.n_patterns:
        raise ValueError(
            f"invalid pattern slice [{start}, {stop}) of {patterns.n_patterns}"
        )
    return PatternData(
        taxa=patterns.taxa,
        codes=np.ascontiguousarray(patterns.codes[:, start:stop]),
        weights=patterns.weights[start:stop].copy(),
        alphabet=patterns.alphabet,
        partials={
            name: np.ascontiguousarray(arr[start:stop])
            for name, arr in patterns.partials.items()
        },
    )


def random_patterns(
    taxa: Sequence[str],
    n_patterns: int,
    *,
    alphabet: Alphabet = DNA,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> PatternData:
    """Uniform-random unique site patterns, ``synthetictest`` style.

    Every pattern gets weight 1 (the paper benchmarks "unique site
    patterns"), and states are drawn uniformly; with 4 states and many taxa
    collisions are vanishingly rare, matching the test program's behaviour
    of treating each generated column as a distinct pattern.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    n_taxa = len(taxa)
    if n_taxa < 1:
        raise ValueError("need at least one taxon")
    if n_patterns < 1:
        raise ValueError("need at least one pattern")
    codes = rng.integers(0, alphabet.n_states, size=(n_taxa, n_patterns)).astype(
        np.int32
    )
    return PatternData(
        taxa=tuple(taxa),
        codes=codes,
        weights=np.ones(n_patterns),
        alphabet=alphabet,
    )
