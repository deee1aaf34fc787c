"""Static analysis of execution plans — prove schedules safe *before* running them.

The subsystem has five layers:

* :mod:`repro.analysis.dataflow` — a buffer def/use engine that detects
  read-before-write, intra-set and cross-set hazards, index-range
  violations, scale-buffer misuse and dead writes in any operation-set
  schedule (the invariants of paper §VI-A, checked without execution);
* :mod:`repro.analysis.races` — concurrency-hazard proofs over
  per-operation read/write footprints: intra-set WAW/WAR/RAW races,
  multi-stream launch-schedule sharing, in-place-move undo-completeness
  and transition-matrix-cache freshness;
* :mod:`repro.analysis.sanitizer` — the dynamic twin: an epoch/lockset
  shadow-state recorder (:class:`RaceDetector` around a
  :class:`SanitizedInstance`) that catches unsynchronized cross-thread
  buffer access under the threaded pool at run time;
* :mod:`repro.analysis.verifier` — whole-plan verification
  (:func:`verify_plan`) adding plan-level structure checks: root
  reachability, operation counts, matrix-update coverage, branch-length
  sanity;
* :mod:`repro.analysis.audit` — schedule-quality auditing
  (:func:`audit_plan`): actual launch count versus the rooting's height
  bound and the post-reroot optimum, so scheduling regressions are
  caught statically.

:mod:`repro.analysis.mutate` seeds corrupted plans (and schedules, cache
traces and moves) to mutation-test the analyzer itself, and
``python -m repro.analysis`` is the CLI front end (with ``--self-check``
as the CI gate and ``--races`` / ``--sanitize`` for the concurrency
checkers).
"""

from .audit import ScheduleAudit, audit_plan, audit_tree
from .config import BufferConfig
from .docstrings import DocstringReport, MissingDocstring, check_package
from .diagnostics import (
    AnalysisReport,
    Diagnostic,
    PlanVerificationError,
    Severity,
)
from .dataflow import analyze_operation_sets
from .mutate import (
    MUTATION_KINDS,
    Mutation,
    analyze_mutation,
    mutate_plan,
    seed_mutations,
)
from .races import (
    CacheEvent,
    Footprint,
    check_cache_coherence,
    check_cache_freshness,
    check_matrix_update_races,
    check_move_undo,
    check_set_races,
    check_stream_schedule,
    operation_footprint,
    round_robin_streams,
    verify_races,
)
from .sanitizer import RaceDetector, RaceReport, SanitizedInstance
from .verifier import (
    verify_gradient_plan,
    verify_instance_compat,
    verify_operation_sets,
    verify_plan,
)

__all__ = [
    "AnalysisReport",
    "BufferConfig",
    "CacheEvent",
    "Diagnostic",
    "DocstringReport",
    "Footprint",
    "MissingDocstring",
    "check_package",
    "MUTATION_KINDS",
    "Mutation",
    "PlanVerificationError",
    "RaceDetector",
    "RaceReport",
    "SanitizedInstance",
    "ScheduleAudit",
    "Severity",
    "analyze_mutation",
    "analyze_operation_sets",
    "audit_plan",
    "audit_tree",
    "check_cache_coherence",
    "check_cache_freshness",
    "check_matrix_update_races",
    "check_move_undo",
    "check_set_races",
    "check_stream_schedule",
    "mutate_plan",
    "operation_footprint",
    "round_robin_streams",
    "seed_mutations",
    "verify_gradient_plan",
    "verify_instance_compat",
    "verify_operation_sets",
    "verify_plan",
    "verify_races",
]
