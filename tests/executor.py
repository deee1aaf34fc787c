"""Pin the set executor to one partition of every set for a block.

:func:`repro.beagle.setexec.compile_program` lowers a set of a program
that gathers its tips ahead to a run step when its operands split into
fewer runs than it has operations, and to a per-operation step
otherwise. It reads ``_runs`` and ``hoists_tips`` from module globals
when it lowers, so patching them steers every set lowered inside the
block — through ``execute_plan``, ``TreeLikelihood`` or
``ShardedLikelihood`` — without touching the engine, at any row size. A
program compiled before the block keeps the steps it was lowered to.
Hypothesis-driven tests use this instead of the ``monkeypatch`` fixture,
which is function-scoped.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional
from unittest import mock

from repro.beagle import setexec

__all__ = ["cut_runs", "forced_executor", "step_kind"]


def _cut(products, chunks, most: int):
    """Runs (``setexec._runs`` products and chunks) cut into consecutive
    pieces of at most ``most`` operations each."""
    pieces, owners = [], []
    for i, (dest, *sides) in enumerate(products):
        n = setexec._length(dest)
        for lo in range(0, n, most):
            m = min(most, n - lo)

            def part(run, lo=lo, m=m):
                if not isinstance(run, slice):  # no matrices, or a tip
                    return run
                return setexec._slice(run.start + lo * run.step, run.step, m)

            cut = [(kind, part(index), part(mats)) for kind, index, mats in sides]
            pieces.append((part(dest), *cut))
            owners.append(chunks[i] if chunks else None)
    return pieces, owners if chunks else None


def cut_runs(most: int):
    """A stand-in for ``setexec._runs`` that finds a set's runs without
    its limit (every set, a one-operation set too) and cuts them to at most ``most``
    operations each."""
    find = setexec._runs

    def split(products, chunks, limit):
        found = find(products, chunks, 10**9)
        return None if found is None else _cut(*found, most)

    return split


@contextmanager
def forced_executor(runs: Optional[int] = None) -> Iterator[None]:
    """Lower every set to a per-operation step (``runs=None``: no run
    steps) or, in every program of several sets and at any row size, to
    a run step whose runs hold at most ``runs`` operations each, whatever
    its width (an operation with an explicit-tip child is a run of its
    own)."""
    if runs is None:
        patches = {"_runs": lambda *args: None}
    else:
        patches = {"_runs": cut_runs(runs), "hoists_tips": lambda instance: True}
    with mock.patch.multiple(setexec, **patches):
        yield


def step_kind(step) -> str:
    """``"run"`` (a step that runs its operations as runs) or
    ``"narrow"`` (one product per operation)."""
    return "run" if step.is_run else "narrow"
