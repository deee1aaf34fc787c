"""Partial-likelihood operation descriptors.

An :class:`Operation` mirrors BEAGLE's ``BeagleOperation`` struct: it names
the destination partials buffer, the two child buffers (tip or internal)
with their transition-matrix indices, and an optional rescaling buffer.
Operations are pure data — dependency analysis over them
(:func:`operations_independent`, and the greedy set builder in
:mod:`repro.core.opsets`) is what turns a tree traversal into concurrent
kernel launches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Set

__all__ = ["Operation", "operations_independent"]

#: Sentinel for "no rescaling" (BEAGLE's BEAGLE_OP_NONE).
NONE = -1


@dataclass(frozen=True)
class Operation:
    """One partial-likelihood computation (Eq. 1 of the paper, Fig. 1).

    Attributes
    ----------
    destination:
        Partials buffer written by the operation (the parent node ``z``).
    child1, child2:
        Buffers read (nodes ``x`` and ``y``); tip buffers hold states or
        tip partials, internal buffers hold previously computed partials.
    child1_matrix, child2_matrix:
        Transition-matrix buffers for the connecting branches ``t_l`` and
        ``t_m``.
    destination_scale:
        Scale buffer to write per-pattern rescaling factors into, or −1
        for no rescaling (BEAGLE's ``destinationScaleWrite``).
    """

    destination: int
    child1: int
    child1_matrix: int
    child2: int
    child2_matrix: int
    destination_scale: int = NONE

    def reads(self) -> tuple[int, int]:
        """Buffers this operation reads."""
        return (self.child1, self.child2)

    def depends_on(self, other: "Operation") -> bool:
        """True when this operation reads the other's destination."""
        return other.destination in self.reads()


def operations_independent(operations: Sequence[Operation]) -> bool:
    """True when no operation reads (or overwrites) another's destination.

    This is the condition under which the whole sequence can run as a
    single concurrent kernel launch (one *operation set*).
    """
    destinations: Set[int] = set()
    for op in operations:
        if op.destination in destinations:
            return False  # write-write collision
        destinations.add(op.destination)
    for op in operations:
        for r in op.reads():
            if r in destinations:
                return False  # read-after-write within the set
    return True
