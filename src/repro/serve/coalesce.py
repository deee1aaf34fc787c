"""Cross-request operation coalescing: compatible cases share launches.

The paper's multi-operation kernel batches the independent operations of
*one* tree into one launch. A serving front end sees the same structure
**across requests**: at any instant, many tenants' evaluations are at
the same depth with mutually independent operation sets, and a device
(BEAGLE 4.1's multi-client concurrency) can run them as one wide launch.
This module implements that policy layer:

* :class:`CompatKey` — requests may share launches when their engine
  dimensions agree: precision, state count, rate categories and pattern
  count.
* :class:`CoalescedBatch` — one pool job serving N requests. Members
  execute sequentially through the worker's full resilient stack (each
  against its own buffers, so every served value is **bit-identical to
  its serial single-request evaluation** by construction), while
  same-shaped members adopt one shared
  :class:`~repro.beagle.workspace.Workspace` — one scratch
  allocation per batch instead of one per tenant. The *launch schedule*
  (:meth:`CoalescedBatch.launch_schedule`) — lockstep rounds whose width
  is the sum of the members' same-depth set sizes — is what the GPU
  model prices by handing it to
  :func:`~repro.gpu.perfmodel.time_set_sizes`: one launch overhead per
  round instead of one per member set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..obs import get_recorder
from .request import LikelihoodRequest, RequestDims

__all__ = [
    "CompatKey",
    "CoalescePolicy",
    "CoalescedBatch",
    "BatchAssembler",
]


@dataclass(frozen=True)
class CompatKey:
    """Dimensions under which two requests may share kernel launches."""

    precision: str
    state_count: int
    category_count: int
    pattern_count: int

    @classmethod
    def of(cls, dims: RequestDims) -> "CompatKey":
        """The key of one request's dims."""
        return cls(
            precision=dims.precision,
            state_count=dims.state_count,
            category_count=dims.category_count,
            pattern_count=dims.pattern_count,
        )


@dataclass(frozen=True)
class CoalescePolicy:
    """Knobs of the batch assembler.

    Parameters
    ----------
    max_width:
        Requests per coalesced batch before the assembler starts a new
        one. The brownout controller grows this multiplicatively under
        overload (throughput over per-request latency).
    enabled:
        ``False`` makes every request its own singleton batch (the
        uncoalesced baseline the bench compares against).
    """

    max_width: int = 8
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.max_width < 1:
            raise ValueError("max_width must be positive")


class CoalescedBatch:
    """N compatible requests served as one pool job."""

    def __init__(
        self,
        members: Sequence[LikelihoodRequest],
        key: Optional[CompatKey] = None,
    ) -> None:
        if not members:
            raise ValueError("a batch needs at least one member")
        self.members: List[LikelihoodRequest] = list(members)
        self.key = key

    @property
    def width(self) -> int:
        """Member count."""
        return len(self.members)

    @property
    def coalesced(self) -> bool:
        """Does this batch actually share launches (width ≥ 2)?"""
        return len(self.members) >= 2

    def launch_schedule(self) -> List[int]:
        """Lockstep round widths: round ``r`` fuses every member's
        ``r``-th operation set into one launch of their summed sizes.
        Empty when any member's plan shape is unknown."""
        if any(not m.set_sizes for m in self.members):
            return []
        rounds: List[int] = []
        for sizes in zip_longest(*(m.set_sizes for m in self.members)):
            rounds.append(sum(s for s in sizes if s is not None))
        return rounds

    def solo_launches(self) -> int:
        """Launches the members would issue served one at a time."""
        return sum(len(m.set_sizes) for m in self.members)

    def job_fn(self) -> Callable[[object], List[float]]:
        """The pool job evaluating every member, in order.

        Members run sequentially through the worker's full stack —
        deadline guard, fault injection, retry/degrade/rescale — each
        against its own instance and plan, so recovery and bit-identity
        guarantees are inherited unchanged from the single-request path.
        Same-shaped members adopt the first member's Workspace;
        a raising member fails the whole job, which the pool then
        reroutes (re-serving earlier members is safe: values are
        deterministic and the last write wins with identical bits).

        Workspace sharing is safe because the set executor keeps all of
        its scratch in the Workspace and that scratch is pure per-launch
        state, so any same-shaped members may share one workspace.
        """
        members = self.members
        batch_width = len(members)

        def run(ctx) -> List[float]:
            obs = get_recorder()
            workspaces: Dict[Tuple[object, int, int, int], object] = {}
            values: List[float] = []
            for member in members:
                instance, plan = member.make_case()
                engine = instance
                workspace = getattr(engine, "workspace", None)
                adopt = getattr(engine, "adopt_workspace", None)
                if workspace is not None and adopt is not None:
                    dims_key = (
                        getattr(engine, "dtype", None),
                        getattr(engine, "category_count", -1),
                        getattr(engine, "pattern_count", -1),
                        getattr(engine, "state_count", -1),
                    )
                    shared = workspaces.get(dims_key)
                    if shared is None:
                        workspaces[dims_key] = workspace
                    else:
                        adopt(shared)
                if obs.enabled:
                    with obs.span(
                        "serve.request",
                        category="serve",
                        tenant=member.tenant,
                        label=member.label,
                        batch_width=batch_width,
                    ):
                        values.append(ctx.execute(instance, plan))
                else:
                    values.append(ctx.execute(instance, plan))
            return values

        return run


class BatchAssembler:
    """Groups scheduler picks into coalesced batches.

    Grouping preserves the scheduler's dispatch order within each
    compatibility class (fairness decisions are not reordered), and a
    request without declared dims is never coalesced — it becomes a
    singleton batch.
    """

    def __init__(self, policy: Optional[CoalescePolicy] = None) -> None:
        self.policy = policy or CoalescePolicy()

    def key_for(self, request: LikelihoodRequest) -> Optional[CompatKey]:
        """The request's compatibility key (None = never coalesce)."""
        if request.dims is None:
            return None
        return CompatKey.of(request.dims)

    def assemble(
        self,
        picks: Sequence[LikelihoodRequest],
        *,
        width_scale: float = 1.0,
    ) -> List[CoalescedBatch]:
        """Partition ``picks`` into batches.

        Parameters
        ----------
        picks:
            Scheduler output, in dispatch order.
        width_scale:
            Brownout multiplier (≥ 1.0) on the policy's ``max_width``.
        """
        width_cap = max(1, int(self.policy.max_width * width_scale))
        batches: List[CoalescedBatch] = []
        if not self.policy.enabled:
            return [CoalescedBatch([pick]) for pick in picks]
        open_batches: Dict[Hashable, CoalescedBatch] = {}
        for pick in picks:
            key = self.key_for(pick)
            if key is None:
                batches.append(CoalescedBatch([pick]))
                continue
            batch = open_batches.get(key)
            if batch is None:
                batch = CoalescedBatch([pick], key=key)
                batches.append(batch)
                if batch.width < width_cap:
                    open_batches[key] = batch
            else:
                batch.members.append(pick)
                if batch.width >= width_cap:
                    del open_batches[key]
        return batches
