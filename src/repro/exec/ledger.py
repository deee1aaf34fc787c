"""Closed-form ledgers whose identities are declared as data.

Every ledger in the execution layer — :class:`~repro.exec.pool.PoolStats`,
:class:`~repro.exec.sharding.ShardLedger`,
:class:`~repro.serve.ledger.TenantLedger` and
:class:`~repro.serve.ledger.ServeLedger` — is a dataclass of counters
plus a tuple of :class:`Identity` values, each one equation between two
sums of those counters that holds whenever no outcome was dropped.
:class:`Ledger` derives everything else from that one declaration:
:meth:`~Ledger.imbalances` lists the identities that do not hold,
:meth:`~Ledger.explain` prints every identity with its numbers, and
:meth:`~Ledger.gauges` names the counters the observability export
publishes. The check and its explanation therefore cannot disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, ClassVar, Dict, Iterable, List, Tuple

__all__ = ["Identity", "Ledger", "total"]

Side = Callable[[Any], int]


def total(*names: str) -> Side:
    """An identity side summing the named counters of the ledger."""
    return lambda ledger: sum(getattr(ledger, name) for name in names)


@dataclass(frozen=True)
class Identity:
    """One ledger identity: ``left(ledger) == right(ledger)``.

    ``text`` spells the equation, ``meaning`` the invariant it protects.
    """

    text: str
    left: Side
    right: Side
    meaning: str


class Ledger:
    """Checks, explanations and gauges derived from ``IDENTITIES``.

    Subclasses are dataclasses that set ``IDENTITIES``; a ledger with
    per-key rows (the serve ledger's tenants) returns them from
    :meth:`rows`, and their identities are checked too, prefixed with
    the row's label.
    """

    IDENTITIES: ClassVar[Tuple[Identity, ...]] = ()

    def rows(self) -> Iterable[Tuple[str, "Ledger"]]:
        """``(label, ledger)`` for each nested ledger whose identities
        belong to this one."""
        return ()

    def checks(self) -> List[Tuple[str, int, int, str]]:
        """``(text, left, right, meaning)`` for every identity, rows last."""
        checks = [
            (i.text, i.left(self), i.right(self), i.meaning)
            for i in self.IDENTITIES
        ]
        for label, row in self.rows():
            checks += [
                (f"{label}: {text}", lhs, rhs, meaning)
                for text, lhs, rhs, meaning in row.checks()
            ]
        return checks

    def imbalances(self) -> List[str]:
        """Violated identities (empty means the ledger closes)."""
        return [
            f"{text} ({lhs} vs {rhs})"
            for text, lhs, rhs, _ in self.checks()
            if lhs != rhs
        ]

    def balances(self) -> bool:
        """Does every identity close?"""
        return not self.imbalances()

    def explain(self) -> str:
        """One line per identity, marked ``ok`` or ``VIOLATED``, with its
        numbers and the invariant it protects."""
        return "\n".join(
            f"[{'ok' if lhs == rhs else 'VIOLATED'}] {text} "
            f"({lhs} vs {rhs}): {meaning}"
            for text, lhs, rhs, meaning in self.checks()
        )

    def gauges(self) -> Dict[str, int]:
        """Every integer counter by field name, in declaration order."""
        instance: Any = self
        return {
            f.name: getattr(self, f.name)
            for f in fields(instance)
            if f.type in ("int", int)
        }
