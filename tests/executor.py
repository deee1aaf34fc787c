"""Pin the set executor to one strategy for the duration of a block.

:func:`repro.beagle.setexec.execute_set` chooses per-operation or arena
execution from a set's width and reads its cut-offs from module globals
at call time, so patching them steers every set the engine runs —
through ``execute_plan``, ``TreeLikelihood`` or ``ShardedLikelihood`` —
without touching the engine. Hypothesis-driven tests use this instead of
the ``monkeypatch`` fixture, which is function-scoped.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional
from unittest import mock

from repro.beagle import setexec

__all__ = ["forced_executor"]


@contextmanager
def forced_executor(block: Optional[int] = None) -> Iterator[None]:
    """Run every set per operation (``block=None``) or through the arena
    in blocks of ``block`` operations, whatever its width."""
    if block is None:
        patches = {"ARENA_MIN_OPS": 10**9}
    else:
        patches = {"ARENA_MIN_OPS": 1, "block_ops": lambda instance: block}
    with mock.patch.multiple(setexec, **patches):
        yield
