"""Pin the set executor to one step kind for the duration of a block.

:func:`repro.beagle.setexec.compile_program` lowers a set to a narrow or
an arena step from its width and the instance's row bytes, and reads its
cut-offs from module globals when it lowers, so patching them steers
every set lowered inside the block — through ``execute_plan``,
``TreeLikelihood`` or ``ShardedLikelihood`` — without touching the
engine, at any row size. A program compiled before the block keeps the
steps it was lowered to. Hypothesis-driven tests use this instead of the
``monkeypatch`` fixture, which is function-scoped.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional
from unittest import mock

from repro.beagle import setexec

__all__ = ["forced_executor"]


@contextmanager
def forced_executor(block: Optional[int] = None) -> Iterator[None]:
    """Lower every set to a narrow step (``block=None``) or to arena
    blocks of ``block`` operations, whatever its width."""
    if block is None:
        patches = {"ARENA_MIN_OPS": 10**9}
    else:
        patches = {
            "ARENA_MIN_OPS": 1,
            "arena_fits": lambda instance: True,
            "block_ops": lambda instance: block,
        }
    with mock.patch.multiple(setexec, **patches):
        yield
