"""Dynamic concurrency checking: a shadow-state buffer sanitizer.

The static race proofs (:mod:`repro.analysis.races`) cover what a
*schedule* promises; this module checks what *threads actually do*. A
:class:`RaceDetector` is an epoch/lockset access recorder: every partials,
matrix and scale buffer access made through a :class:`SanitizedInstance`
wrapper is logged as ``(engine, resource, thread, epoch, locks held)``,
and two accesses to one resource race when they come from different
threads inside the same epoch, hold no lock in common, and at least one
writes. Epochs model synchronization: the pool advances the detector's
epoch at drain barriers, so accesses ordered by a barrier can never be
paired.

The sanitizer is **off by default** and adds zero overhead when off —
nothing wraps the engine unless ``sanitize=`` / ``--sanitize`` asks for
it. When on, :class:`SanitizedInstance` intercepts the engine's public
execution surface (``update_partials_set``,
``update_transition_matrices``, the scale bank, and the likelihood
reductions), records footprints, and delegates — results are
bit-identical with and without the wrapper.

Offender pairs are reported as :class:`RaceReport` values (buffer index,
both thread ids, both access kinds) and as ERROR-severity
``data-race`` diagnostics through the usual
:class:`~repro.analysis.diagnostics.AnalysisReport`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Sequence,
    Tuple,
)

from ..beagle.instance import InstanceWrapper
from ..beagle.operations import Operation
from .diagnostics import AnalysisReport, Diagnostic, Severity
from .races import operation_footprint

__all__ = ["RaceReport", "RaceDetector", "SanitizedInstance"]

#: A dynamic resource: (engine token, buffer kind, buffer index).
_DynResource = Tuple[int, str, int]


@dataclass(frozen=True)
class RaceReport:
    """One detected cross-thread race on one engine buffer.

    ``first_*`` describes the access already on record, ``second_*``
    the conflicting access that completed the pair; ``epoch`` is the
    synchronization window both fell into.
    """

    kind: str
    index: int
    first_thread: int
    second_thread: int
    first_access: str
    second_access: str
    epoch: int

    def format(self) -> str:
        """Render as a one-line offender-pair report."""
        return (
            f"data race on {self.kind} buffer {self.index}: "
            f"{self.first_access} by thread {self.first_thread} vs "
            f"{self.second_access} by thread {self.second_thread} "
            f"(epoch {self.epoch}, no common lock)"
        )


class RaceDetector:
    """Thread-safe shadow state shared by every sanitized engine.

    The detector keeps, per (engine, resource), the set of threads that
    touched the resource in the current epoch together with the locks
    each held; a new access races with a recorded one when the threads
    differ, the locksets are disjoint, and either side writes. One
    report is emitted per offending (resource, thread pair) to keep the
    output readable under heavy traffic.

    Engines are registered with :meth:`token_for`, which pins the
    underlying object for the detector's lifetime so Python's ``id``
    reuse can never alias two engines into one shadow slot.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pinned: Dict[int, Any] = {}
        self._epoch = 0
        #: (engine, kind, index) -> thread id -> (has_write, locksets seen)
        self._accesses: Dict[
            _DynResource, Dict[int, Tuple[bool, FrozenSet[str]]]
        ] = {}
        self._reported: set[Tuple[_DynResource, int, int]] = set()
        self.races: List[RaceReport] = []
        self.accesses_recorded = 0

    # -- lifecycle -----------------------------------------------------
    def token_for(self, engine: Any) -> int:
        """A stable shadow-state token for ``engine`` (pins the object)."""
        with self._lock:
            token = id(engine)
            self._pinned.setdefault(token, engine)
            return token

    def advance_epoch(self) -> int:
        """Declare a synchronization barrier: prior accesses can no
        longer race with future ones. Returns the new epoch."""
        with self._lock:
            self._epoch += 1
            self._accesses.clear()
            # Stale tokens can no longer pair with anything, so the
            # engines they pinned may be released — otherwise a
            # long-lived detector would keep every per-job engine (and
            # its buffers) alive for the whole run.
            self._pinned.clear()
            return self._epoch

    @property
    def epoch(self) -> int:
        """The current synchronization window."""
        return self._epoch

    # -- lockset tracking ----------------------------------------------
    @contextmanager
    def locking(self, name: str) -> Iterator[None]:
        """Declare that the calling thread holds lock ``name`` within
        the block; accesses sharing a declared lock never race."""
        held = getattr(self._local, "held", None)
        if held is None:
            held = []
            self._local.held = held
        held.append(name)
        try:
            yield
        finally:
            held.pop()

    def _held(self) -> FrozenSet[str]:
        held = getattr(self._local, "held", None)
        return frozenset(held) if held else frozenset()

    # -- recording -----------------------------------------------------
    def record(
        self, token: int, kind: str, index: int, access: str
    ) -> None:
        """Record one buffer access and pair it against the epoch's log.

        ``access`` is ``"read"`` or ``"write"``. Same-thread accesses
        never race; cross-thread pairs race unless both held a common
        declared lock or both only read.
        """
        self.record_batch(token, ((kind, index, access),))

    def record_batch(
        self, token: int, accesses: Sequence[Tuple[str, int, str]]
    ) -> None:
        """Record many accesses under one lock acquisition.

        Semantically identical to calling :meth:`record` per access —
        this is the hot path for whole operation sets, where paying the
        lock/thread-identity cost per buffer would dominate the kernel.
        """
        thread = threading.get_ident()
        locks = self._held()
        with self._lock:
            self.accesses_recorded += len(accesses)
            for kind, index, access in accesses:
                is_write = access == "write"
                resource: _DynResource = (token, kind, index)
                log = self._accesses.setdefault(resource, {})
                for other_thread, (other_write, other_locks) in log.items():
                    if other_thread == thread:
                        continue
                    if not (is_write or other_write):
                        continue
                    if locks & other_locks:
                        continue
                    pair = (resource, *sorted((thread, other_thread)))
                    if pair in self._reported:
                        continue
                    self._reported.add(pair)
                    self.races.append(
                        RaceReport(
                            kind=kind,
                            index=index,
                            first_thread=other_thread,
                            second_thread=thread,
                            first_access="write" if other_write else "read",
                            second_access=access,
                            epoch=self._epoch,
                        )
                    )
                prior = log.get(thread)
                if prior is None:
                    log[thread] = (is_write, locks)
                else:
                    log[thread] = (prior[0] or is_write, prior[1] & locks)

    # -- reporting -----------------------------------------------------
    @property
    def clean(self) -> bool:
        """True while no race has been detected."""
        return not self.races

    def to_report(self) -> AnalysisReport:
        """The detected races as ERROR ``data-race`` diagnostics."""
        return AnalysisReport(
            [
                Diagnostic(
                    code="data-race",
                    severity=Severity.ERROR,
                    message=race.format(),
                    buffers=(race.index,),
                    hint=(
                        "give each thread its own engine instance or "
                        "synchronize the accesses"
                    ),
                )
                for race in self.races
            ]
        )

    def format(self) -> str:
        """Human-readable summary of the detector's findings."""
        if self.clean:
            return (
                f"sanitizer clean: {self.accesses_recorded} accesses "
                f"recorded, no cross-thread races"
            )
        lines = [
            f"sanitizer found {len(self.races)} race(s) in "
            f"{self.accesses_recorded} recorded accesses:"
        ]
        lines.extend("  " + race.format() for race in self.races)
        return "\n".join(lines)


class _SanitizedScale:
    """Scale-bank facade recording reads/writes into the detector."""

    def __init__(self, inner: Any, detector: RaceDetector, token: int) -> None:
        self._inner = inner
        self._detector = detector
        self._token = token

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def write(self, index: int, log_factors: Any) -> None:
        """Record then delegate a per-node scale write."""
        self._detector.record(self._token, "scale", index, "write")
        self._inner.write(index, log_factors)

    def read(self, index: int) -> Any:
        """Record then delegate a scale read."""
        self._detector.record(self._token, "scale", index, "read")
        return self._inner.read(index)

    def reset(self, index: int) -> None:
        """Record then delegate a cumulative-slot reset (a write)."""
        self._detector.record(self._token, "scale", index, "write")
        self._inner.reset(index)

    def accumulate(self, source_indices: Sequence[int], cumulative_index: int) -> None:
        """Record the gather (reads) and the cumulative write, then
        delegate."""
        for index in source_indices:
            self._detector.record(self._token, "scale", int(index), "read")
        self._detector.record(self._token, "scale", cumulative_index, "write")
        self._inner.accumulate(source_indices, cumulative_index)


class SanitizedInstance(InstanceWrapper):
    """A transparent engine wrapper that shadows every buffer access.

    Wraps a :class:`~repro.beagle.instance.BeagleInstance` (results are
    bit-identical — the wrapper only records and delegates) and reports
    each operation's footprint to the shared :class:`RaceDetector`
    before executing it. Compose it *innermost* in a worker stack so the
    resilient/fault layers above still exercise it.
    """

    def __init__(self, inner: Any, detector: RaceDetector) -> None:
        super().__init__(inner)
        self._detector = detector
        self._token = detector.token_for(inner)

    @property
    def detector(self) -> RaceDetector:
        """The shared shadow state this wrapper records into."""
        return self._detector

    @property
    def scale(self) -> Any:
        """The engine's scale bank, wrapped to record its accesses."""
        return _SanitizedScale(self._inner.scale, self._detector, self._token)

    def _record_operations(self, operations: Sequence[Operation]) -> None:
        accesses: List[Tuple[str, int, str]] = []
        for op in operations:
            fp = operation_footprint(op)
            accesses.extend((kind, index, "read") for kind, index in fp.reads)
            accesses.extend((kind, index, "write") for kind, index in fp.writes)
        self._detector.record_batch(self._token, accesses)

    def update_partials_set(self, operations: Sequence[Operation]) -> None:
        """Record the set's footprints, then launch it on the engine."""
        self._record_operations(operations)
        self._inner.update_partials_set(operations)

    def update_transition_matrices(
        self,
        eigen_index: int,
        matrix_indices: Sequence[int],
        branch_lengths: Sequence[float],
    ) -> None:
        """Record the batched matrix writes, then delegate."""
        self._detector.record_batch(
            self._token,
            [("matrix", int(index), "write") for index in matrix_indices],
        )
        self._inner.update_transition_matrices(
            eigen_index, matrix_indices, branch_lengths
        )

    def set_transition_matrix(self, matrix_index: int, matrix: Any) -> None:
        """Record the direct matrix install, then delegate."""
        self._detector.record(self._token, "matrix", int(matrix_index), "write")
        self._inner.set_transition_matrix(matrix_index, matrix)

    def calculate_root_log_likelihood(
        self, root_buffer: int, cumulative_scale_index: int = -1
    ) -> float:
        """Record the root (and cumulative-scale) reads, then reduce."""
        self._detector.record(self._token, "partials", root_buffer, "read")
        if cumulative_scale_index >= 0:
            self._detector.record(
                self._token, "scale", cumulative_scale_index, "read"
            )
        return float(
            self._inner.calculate_root_log_likelihood(
                root_buffer, cumulative_scale_index
            )
        )

    def calculate_edge_log_likelihood(
        self,
        parent_buffer: int,
        child_buffer: int,
        matrix_index: int,
        cumulative_scale_index: int = -1,
    ) -> float:
        """Record the edge reduction's reads, then delegate."""
        self._detector.record(self._token, "partials", parent_buffer, "read")
        self._detector.record(self._token, "partials", child_buffer, "read")
        self._detector.record(self._token, "matrix", matrix_index, "read")
        if cumulative_scale_index >= 0:
            self._detector.record(
                self._token, "scale", cumulative_scale_index, "read"
            )
        return float(
            self._inner.calculate_edge_log_likelihood(
                parent_buffer, child_buffer, matrix_index, cumulative_scale_index
            )
        )

    def get_partials(self, buffer_index: int) -> Any:
        """Record the inspection read, then delegate."""
        self._detector.record(self._token, "partials", buffer_index, "read")
        return self._inner.get_partials(buffer_index)
