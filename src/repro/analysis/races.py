"""Static concurrency-hazard analysis: intra-set race proofs and lints.

The paper's speedup rests on one claim: operations inside a batched set
are mutually independent, so one kernel launch may execute them in any
order — or all at once. This module turns that claim into a proof
obligation. Every operation carries a read/write *footprint* over the
engine's three resource classes (partials buffers, transition-matrix
buffers, scale buffers); :func:`check_set_races` proves each set free of
intra-set WAW/WAR/RAW hazards, and :func:`check_stream_schedule` extends
the proof to multi-stream launch schedules (the GPU simulator's
``streams`` mechanism), where operations in *different* streams are
unordered between synchronization points.

Two further static lints guard the incremental engine's shared state:

* :func:`check_move_undo` — in-place :class:`~repro.inference.proposals.Move`
  completeness: everything the move actually mutated is declared
  (``touched`` / ``changed_edges``), and ``undo()`` restores the tree
  exactly (topology, child positions, branch lengths).
* :func:`check_cache_freshness` / :func:`check_cache_coherence` —
  transition-matrix-cache freshness: no plan may consume a cached
  ``P(t)`` whose ``(eigen, rates_version)`` key predates a model
  mutation on the same path, and an instance's rates version key must
  match its live rate vector (in-place mutation bypassing
  ``set_category_rates`` would silently poison the cache).

All findings are typed :class:`~repro.analysis.diagnostics.Diagnostic`
values; the new codes are ``race-waw``, ``race-raw``, ``race-war``,
``cross-stream-write-sharing``, ``cross-stream-dependency``,
``stream-assignment-shape``, ``undo-incomplete``, ``undeclared-mutation``,
``stale-matrix-cache``, ``cache-version-regression`` and
``stale-rates-key``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..beagle.operations import Operation
from .diagnostics import AnalysisReport, Diagnostic, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..beagle.instance import BeagleInstance
    from ..core.planner import ExecutionPlan
    from ..inference.proposals import Move
    from ..trees import Tree

__all__ = [
    "Footprint",
    "operation_footprint",
    "check_set_races",
    "check_matrix_update_races",
    "round_robin_streams",
    "check_stream_schedule",
    "verify_races",
    "check_move_undo",
    "CacheEvent",
    "check_cache_freshness",
    "check_cache_coherence",
]

#: A resource an operation touches: ``(kind, index)`` with kind one of
#: ``"partials"``, ``"matrix"``, ``"scale"``.
Resource = Tuple[str, int]


@dataclass(frozen=True)
class Footprint:
    """The exact resource sets one operation reads and writes.

    Partials reads come from the two child buffers, matrix reads from
    the two branch matrices; the operation writes its destination
    partials buffer and (when rescaling) one scale slot. Footprints are
    what make race claims checkable: two operations may share a launch
    iff their footprints do not conflict.
    """

    reads: FrozenSet[Resource]
    writes: FrozenSet[Resource]

    def conflicts(self, other: "Footprint") -> List[Tuple[str, Resource]]:
        """Hazards between this footprint (earlier in submission order)
        and ``other`` (later): ``("waw" | "raw" | "war", resource)``.

        Within one launch submission order carries no execution
        ordering, so every returned hazard is a genuine race.
        """
        out: List[Tuple[str, Resource]] = []
        for resource in sorted(self.writes & other.writes):
            out.append(("waw", resource))
        for resource in sorted(self.writes & other.reads):
            out.append(("raw", resource))
        for resource in sorted(self.reads & other.writes):
            out.append(("war", resource))
        return out


def operation_footprint(op: Operation) -> Footprint:
    """The read/write footprint of one partial-likelihood operation."""
    reads = {
        ("partials", op.child1),
        ("partials", op.child2),
        ("matrix", op.child1_matrix),
        ("matrix", op.child2_matrix),
    }
    writes: set[Resource] = {("partials", op.destination)}
    if op.destination_scale >= 0:
        writes.add(("scale", op.destination_scale))
    return Footprint(reads=frozenset(reads), writes=frozenset(writes))


def _resource_label(resource: Resource) -> str:
    kind, index = resource
    return f"{kind} buffer {index}"


_HAZARD_NAMES = {
    "waw": "write-write (WAW)",
    "raw": "read-after-write (RAW)",
    "war": "write-after-read (WAR)",
}


def check_set_races(
    operation_sets: Sequence[Sequence[Operation]],
) -> List[Diagnostic]:
    """Prove every operation set free of intra-set WAW/WAR/RAW hazards.

    Each set is one concurrent launch: its operations execute in an
    undefined order, possibly simultaneously, so *any* footprint overlap
    where at least one side writes is a race. Read-read sharing (two
    operations reading one child, or one transition matrix) is the
    paper's whole point and is of course allowed.
    """
    out: List[Diagnostic] = []
    position = 0
    for set_index, op_set in enumerate(operation_sets):
        prints = [operation_footprint(op) for op in op_set]
        for i, fp in enumerate(prints):
            overlap = fp.writes & fp.reads
            if overlap:
                resource = sorted(overlap)[0]
                out.append(
                    Diagnostic(
                        code="race-raw",
                        severity=Severity.ERROR,
                        message=(
                            f"operation {position + i} reads its own "
                            f"destination ({_resource_label(resource)}) "
                            f"within one launch"
                        ),
                        set_index=set_index,
                        op_index=position + i,
                        buffers=(resource[1],),
                        hint="an in-place update cannot run as a batched kernel",
                    )
                )
        for i in range(len(prints)):
            for j in range(i + 1, len(prints)):
                for hazard, resource in prints[i].conflicts(prints[j]):
                    out.append(
                        Diagnostic(
                            code=f"race-{hazard}",
                            severity=Severity.ERROR,
                            message=(
                                f"intra-set {_HAZARD_NAMES[hazard]} race on "
                                f"{_resource_label(resource)}: operations "
                                f"{position + i} and {position + j} share "
                                f"launch {set_index} but are not independent"
                            ),
                            set_index=set_index,
                            op_index=position + j,
                            buffers=(resource[1],),
                            hint=(
                                "split the operations into different sets "
                                "or give them disjoint footprints"
                            ),
                        )
                    )
        position += len(op_set)
    return out


def check_matrix_update_races(
    matrix_indices: Sequence[int], branch_lengths: Sequence[float]
) -> List[Diagnostic]:
    """Prove the batched matrix update free of destination races.

    ``update_transition_matrices`` is itself one batched kernel; two
    entries targeting the same matrix buffer with *different* branch
    lengths are a write-write race whose winner is undefined on a
    device. (Same-length duplicates are wasteful, not racy — the
    dataflow pass warns about them separately.)
    """
    out: List[Diagnostic] = []
    seen: Dict[int, float] = {}
    for m, t in zip(matrix_indices, branch_lengths):
        if m in seen and seen[m] != t:
            out.append(
                Diagnostic(
                    code="race-waw",
                    severity=Severity.ERROR,
                    message=(
                        f"matrix buffer {m} is updated twice in one batch "
                        f"with different branch lengths ({seen[m]!r} and "
                        f"{t!r}); the surviving matrix is undefined"
                    ),
                    buffers=(m,),
                    hint="deduplicate the matrix-update table",
                )
            )
        seen.setdefault(m, t)
    return out


def round_robin_streams(
    set_sizes: Sequence[int], n_streams: int
) -> List[List[int]]:
    """The GPU simulator's implicit stream assignment, made explicit.

    Operations of each set are dealt round-robin across ``n_streams``
    streams — exactly the ``ceil(k / S)`` rounds the analytical streams
    model (:func:`repro.gpu.streams.streams_set_time`) charges for.
    """
    if n_streams < 1:
        raise ValueError("need at least one stream")
    return [[j % n_streams for j in range(k)] for k in set_sizes]


def check_stream_schedule(
    operation_sets: Sequence[Sequence[Operation]],
    streams: Sequence[Sequence[int]],
    *,
    sync_between_sets: bool = True,
) -> List[Diagnostic]:
    """Prove a multi-stream launch schedule race-free.

    ``streams[k][j]`` names the stream operation ``j`` of set ``k`` is
    issued into. Operations in one stream execute in issue order;
    operations in different streams are unordered between
    synchronization points. With ``sync_between_sets`` (the engine's and
    the GPU simulator's semantics — a device-wide join after every set)
    only intra-set pairs can race; without it the whole schedule is one
    synchronization window and cross-set dependencies must be carried by
    stream order, so a writer and its reader in different streams is an
    unsynchronized sharing bug even though their *sets* are ordered.
    """
    out: List[Diagnostic] = []
    if len(streams) != len(operation_sets) or any(
        len(s) != len(op_set) for s, op_set in zip(streams, operation_sets)
    ):
        out.append(
            Diagnostic(
                code="stream-assignment-shape",
                severity=Severity.ERROR,
                message=(
                    f"stream assignment shape "
                    f"{[len(s) for s in streams]} does not match the "
                    f"schedule's set sizes "
                    f"{[len(s) for s in operation_sets]}"
                ),
                hint="assign exactly one stream per operation",
            )
        )
        return out

    # (window, resource) -> accesses as (set, op, stream, is_write).
    Access = Tuple[int, int, int, bool]
    accesses: Dict[Tuple[int, Resource], List[Access]] = {}
    position = 0
    for set_index, (op_set, lanes) in enumerate(zip(operation_sets, streams)):
        window = set_index if sync_between_sets else 0
        for j, (op, lane) in enumerate(zip(op_set, lanes)):
            fp = operation_footprint(op)
            for resource in fp.writes:
                accesses.setdefault((window, resource), []).append(
                    (set_index, position + j, lane, True)
                )
            for resource in fp.reads:
                accesses.setdefault((window, resource), []).append(
                    (set_index, position + j, lane, False)
                )
        position += len(op_set)

    for (window, resource), entries in sorted(accesses.items()):
        for a in range(len(entries)):
            set_a, op_a, lane_a, write_a = entries[a]
            for b in range(a + 1, len(entries)):
                set_b, op_b, lane_b, write_b = entries[b]
                if lane_a == lane_b or not (write_a or write_b):
                    continue  # serialized by the stream, or read-read
                if write_a and write_b:
                    code = "cross-stream-write-sharing"
                    what = "both write"
                else:
                    code = "cross-stream-dependency"
                    what = "one writes and one reads"
                out.append(
                    Diagnostic(
                        code=code,
                        severity=Severity.ERROR,
                        message=(
                            f"{_resource_label(resource)} is shared across "
                            f"streams {lane_a} and {lane_b} without a "
                            f"synchronization point: operations {op_a} "
                            f"(set {set_a}) and {op_b} (set {set_b}) "
                            f"{what}"
                        ),
                        set_index=set_b,
                        op_index=op_b,
                        buffers=(resource[1],),
                        hint=(
                            "issue the pair into one stream or insert a "
                            "device synchronization between their sets"
                        ),
                    )
                )
    return out


def verify_races(plan: "ExecutionPlan", *, n_streams: int = 0) -> AnalysisReport:
    """Race-prove one plan: its operation sets, its batched matrix
    update, and (when ``n_streams > 0``) its round-robin stream
    schedule under per-set synchronization.

    Returns an empty report for every plan the library's planners
    produce — that emptiness *is* the concurrency proof the paper's
    batching claim rests on.
    """
    report = AnalysisReport(check_set_races(plan.operation_sets))
    report.extend(
        check_matrix_update_races(plan.matrix_indices, plan.branch_lengths)
    )
    if n_streams > 0:
        report.extend(
            check_stream_schedule(
                plan.operation_sets,
                round_robin_streams(plan.set_sizes, n_streams),
            )
        )
    return report


# ----------------------------------------------------------------------
# In-place move undo-completeness
# ----------------------------------------------------------------------

#: Per-node state: (parent id, child ids in order, branch length).
_NodeState = Tuple[Optional[int], Tuple[int, ...], float]


def _tree_state(tree: "Tree") -> Dict[int, _NodeState]:
    state: Dict[int, _NodeState] = {}
    for node in tree.root.traverse_postorder():
        state[id(node)] = (
            None if node.parent is None else id(node.parent),
            tuple(id(c) for c in node.children),
            float(node.length),
        )
    return state


def _node_labels(tree: "Tree") -> Dict[int, str]:
    labels: Dict[int, str] = {}
    for i, node in enumerate(tree.root.traverse_postorder()):
        labels[id(node)] = node.name if node.name else f"node#{i}"
    return labels


def check_move_undo(
    tree: "Tree", make_move: Callable[["Tree"], Optional["Move"]]
) -> List[Diagnostic]:
    """Prove one in-place move declaration-complete and undo-exact.

    Applies ``make_move`` to ``tree`` (which is mutated and then
    restored — pass a copy if the tree must stay untouched on a *buggy*
    move), diffs the tree state around the application, and checks:

    * every node whose parent changed is declared in ``move.touched``
      and every node whose branch length changed is declared in
      ``move.changed_edges`` (``undeclared-mutation`` otherwise — the
      incremental engine would under-invalidate);
    * after ``move.undo()`` the tree state — topology, child order and
      branch lengths — is bit-exactly the pre-move state
      (``undo-incomplete`` otherwise — a rejected proposal would leave
      a corrupted chain state).

    Returns no diagnostics when ``make_move`` returns ``None`` (the
    move did not apply, e.g. an NNI on a 3-tip tree).
    """
    labels = _node_labels(tree)
    before = _tree_state(tree)
    move = make_move(tree)
    if move is None:
        return []
    out: List[Diagnostic] = []
    after = _tree_state(tree)

    touched_ids = {id(n) for n in move.touched}
    changed_edge_ids = {id(n) for n in move.changed_edges}
    for node_id, state in after.items():
        prior = before.get(node_id)
        if prior is None:
            out.append(
                Diagnostic(
                    code="undeclared-mutation",
                    severity=Severity.ERROR,
                    message=(
                        f"move {move.kind!r} created node "
                        f"{labels.get(node_id, '<new>')}, which in-place "
                        f"moves must never do"
                    ),
                )
            )
            continue
        if prior[0] != state[0] and node_id not in touched_ids:
            out.append(
                Diagnostic(
                    code="undeclared-mutation",
                    severity=Severity.ERROR,
                    message=(
                        f"move {move.kind!r} reparented node "
                        f"{labels[node_id]} without declaring it in "
                        f"'touched'; the incremental dirty path would "
                        f"miss its new root-ward ancestors"
                    ),
                    hint="add the node to Move.touched",
                )
            )
        if prior[2] != state[2] and node_id not in changed_edge_ids:
            out.append(
                Diagnostic(
                    code="undeclared-mutation",
                    severity=Severity.ERROR,
                    message=(
                        f"move {move.kind!r} changed the branch above node "
                        f"{labels[node_id]} ({prior[2]!r} -> {state[2]!r}) "
                        f"without declaring it in 'changed_edges'; its "
                        f"transition matrix would go stale"
                    ),
                    hint="add the node to Move.changed_edges",
                )
            )

    move.undo()
    restored = _tree_state(tree)
    if set(restored) != set(before):
        out.append(
            Diagnostic(
                code="undo-incomplete",
                severity=Severity.ERROR,
                message=(
                    f"undo of move {move.kind!r} changed the tree's node "
                    f"set ({len(before)} nodes before, {len(restored)} "
                    f"after)"
                ),
            )
        )
        return out
    for node_id, prior in before.items():
        now = restored[node_id]
        if now == prior:
            continue
        details: List[str] = []
        if prior[0] != now[0]:
            details.append("parent")
        if prior[1] != now[1]:
            details.append("child order")
        if prior[2] != now[2]:
            details.append(f"branch length ({prior[2]!r} -> {now[2]!r})")
        out.append(
            Diagnostic(
                code="undo-incomplete",
                severity=Severity.ERROR,
                message=(
                    f"undo of move {move.kind!r} failed to restore "
                    f"{' and '.join(details)} of node {labels[node_id]}; "
                    f"a rejected proposal would corrupt the chain state"
                ),
                hint="the undo closure must restore every declared change",
            )
        )
    return out


# ----------------------------------------------------------------------
# Transition-matrix-cache freshness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CacheEvent:
    """One event on an inference path touching the matrix cache.

    ``kind`` is ``"mutate"`` (a model mutation — new rates or a new
    eigen decomposition — advancing the path to model version
    ``version``) or ``"consume"`` (an :class:`ExecutionPlan` execution
    consuming cached matrices keyed at model version ``version``).
    """

    kind: str
    version: int
    label: str = ""


def check_cache_freshness(events: Sequence[CacheEvent]) -> List[Diagnostic]:
    """Prove no plan on the path consumes a stale cached ``P(t)``.

    A consumption is stale when its key's model version predates a
    mutation already seen on the same path — the cached matrices were
    computed under rates or an eigensystem the model no longer has.
    """
    out: List[Diagnostic] = []
    current = 0
    for event in events:
        if event.kind == "mutate":
            if event.version <= current:
                out.append(
                    Diagnostic(
                        code="cache-version-regression",
                        severity=Severity.ERROR,
                        message=(
                            f"model mutation {event.label or '<unnamed>'} "
                            f"reuses version {event.version} (path already "
                            f"at {current}); versions must be strictly "
                            f"increasing or distinct mutations become "
                            f"indistinguishable in cache keys"
                        ),
                    )
                )
            current = max(current, event.version)
        elif event.kind == "consume":
            if event.version < current:
                out.append(
                    Diagnostic(
                        code="stale-matrix-cache",
                        severity=Severity.ERROR,
                        message=(
                            f"plan {event.label or '<unnamed>'} consumes "
                            f"cached transition matrices keyed at model "
                            f"version {event.version}, but a mutation on "
                            f"this path already advanced the model to "
                            f"version {current}"
                        ),
                        hint=(
                            "rebuild the cache key after every "
                            "set_category_rates / set_eigen_decomposition"
                        ),
                    )
                )
        else:
            raise ValueError(f"unknown cache event kind {event.kind!r}")
    return out


def check_cache_coherence(instance: "BeagleInstance") -> List[Diagnostic]:
    """Prove an instance's cache keys reflect its live model state.

    The cache keys every entry by the rates version (the category-rate
    vector's bytes) captured when :meth:`set_category_rates` last ran.
    Mutating the rate array in place bypasses the setter, leaves the
    version key stale, and silently poisons the cache: lookups keep
    hitting matrices computed under the old rates while fresh misses are
    computed under the new rates and stored under the old key.
    """
    out: List[Diagnostic] = []
    live = instance._category_rates.tobytes()
    if live != instance._rates_key:
        out.append(
            Diagnostic(
                code="stale-rates-key",
                severity=Severity.ERROR,
                message=(
                    "category rates were mutated in place: the live rate "
                    "vector no longer matches the rates version key under "
                    "which cached transition matrices are looked up"
                ),
                hint="always change rates through set_category_rates",
            )
        )
    return out
