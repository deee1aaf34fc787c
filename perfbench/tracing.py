"""Layer spans around the program's public entry points, patched from outside.

Nothing in ``src/`` is edited and the program's own ``repro.obs`` recorder
stays off. A :class:`Tracer` resolves each entry point once; inside
``with tracer.applied():`` a timing wrapper stands in for every reference
to it (the defining module, every ``repro`` module that imported it by
name, or the class attribute of a method), and on exit the originals are
put back, so an untraced block runs the unmodified program.

A span's *self* time is its duration minus the time covered by the spans it
caused (the spans opened while it was on the stack). With ``counting`` set,
the wrappers also record the work each call asks for — launches, operations
and matrices — which is how the benchmark proves its work does not depend
on the seed.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _count_partials(tracer, args, kwargs):
    instance, operations = args[0], args[1]
    tracer.work["launches"] += 1
    tracer.work["operations"] += len(operations)
    tips = sum(
        (op.child1 < instance.tip_count) + (op.child2 < instance.tip_count)
        for op in operations
    )
    tracer.launches[(_dims(instance), len(operations), tips)] += 1


def _count_matrices(tracer, args, kwargs):
    instance = args[0]
    n = len(args[2])
    tracer.work["matrices"] += n
    tracer.matrices[_dims(instance)] += n


def _count_root(tracer, args, kwargs):
    tracer.roots[_dims(args[0])] += 1


def _dims(instance):
    """``(patterns, states, categories, bytes per float)`` of an instance."""
    return (
        instance.pattern_count,
        instance.state_count,
        instance.category_count,
        instance.dtype.itemsize,
    )


PLANNER = "repro.core.planner"
INSTANCE = "repro.beagle.instance"
LIKELIHOOD = "repro.inference.likelihood"
PROPOSALS = "repro.inference.proposals"

#: ``(span name, module, attribute, work counter)``: the layer boundaries
#: the benchmark times. A ``Class.method`` attribute is patched on its
#: class; a function everywhere a ``repro`` module holds it.
ENTRY_POINTS = (
    ("core.execute_plan", PLANNER, "execute_plan", None),
    ("core.make_plan", PLANNER, "make_plan", None),
    ("core.incremental_plan", "repro.core.incremental", "incremental_plan", None),
    ("core.make_gradient_plan", PLANNER, "make_gradient_plan", None),
    ("core.execute_gradient_plan", PLANNER, "execute_gradient_plan", None),
    ("core.reroot", "repro.core.reroot_opt", "optimal_reroot_fast", None),
    ("models.eigen", "repro.models.eigen", "decompose_reversible", None),
    ("beagle.create_instance", PLANNER, "create_instance", None),
    (
        "beagle.update_partials_set",
        INSTANCE,
        "BeagleInstance.update_partials_set",
        _count_partials,
    ),
    (
        "beagle.update_upper_partials_set",
        INSTANCE,
        "BeagleInstance.update_upper_partials_set",
        _count_partials,
    ),
    (
        "beagle.update_transition_matrices",
        INSTANCE,
        "BeagleInstance.update_transition_matrices",
        _count_matrices,
    ),
    (
        "beagle.calculate_root_log_likelihood",
        INSTANCE,
        "BeagleInstance.calculate_root_log_likelihood",
        _count_root,
    ),
    ("inference.log_likelihood", LIKELIHOOD, "TreeLikelihood.log_likelihood", None),
    ("inference.propose", LIKELIHOOD, "TreeLikelihood.propose", None),
    ("inference.accept", LIKELIHOOD, "TreeLikelihood.accept", None),
    ("inference.reject", LIKELIHOOD, "TreeLikelihood.reject", None),
    ("inference.branch_length_move", PROPOSALS, "branch_length_move", None),
    ("inference.nni_move_at", PROPOSALS, "nni_move_at", None),
    (
        "inference.all_branch_derivatives",
        "repro.inference.derivatives",
        "all_branch_derivatives",
        None,
    ),
    ("serve.submit", "repro.serve.server", "LikelihoodServer.submit", None),
    ("serve.step", "repro.serve.server", "LikelihoodServer.step", None),
    ("exec.pool_submit", "repro.exec.pool", "LikelihoodPool.submit", None),
    ("exec.pool_drain", "repro.exec.pool", "LikelihoodPool.drain", None),
)


#: Spans whose call counts the seed decides.
DECISIONS = ("inference.accept", "inference.reject")


class Tracer:
    """In-memory span aggregates for the entry points in :data:`ENTRY_POINTS`.

    Attributes
    ----------
    calls, total, self_time:
        Per span name: completed calls, inclusive seconds, and seconds
        exclusive of child spans.
    work:
        ``launches``, ``operations`` and ``matrices`` requested (only
        while ``counting``).
    launches, matrices, roots:
        Launch sizes ``(dims, operations, tip children) -> launches``,
        matrices per dims and root reductions per dims (only while
        ``counting``), the inputs of the computed and modelled figures.
    """

    def __init__(self, entry_points=ENTRY_POINTS) -> None:
        self.counting = False
        self._stack: list = []
        self._patches: list = []
        self.reset()
        for name, module_name, attr, count in entry_points:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._patches.append(
                    (owner, attr, original, self._wrap(name, original, count))
                )
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, count)
            for holder in list(sys.modules.values()):
                if not getattr(holder, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original, wrapper))
        self.names = [entry[0] for entry in entry_points]

    def reset(self) -> None:
        """Drop every aggregate (the patches stay as they are)."""
        self.calls: Counter = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.work: Counter = Counter()
        self.launches: Counter = Counter()
        self.matrices: Counter = Counter()
        self.roots: Counter = Counter()

    def _wrap(self, name, fn, count):
        tracer = self
        clock = time.perf_counter

        def span(*args, **kwargs):
            if count is not None and tracer.counting:
                count(tracer, args, kwargs)
            stack = tracer._stack
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                tracer.calls[name] += 1
                tracer.total[name] += elapsed
                tracer.self_time[name] += elapsed - children[0]

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    @contextmanager
    def applied(self):
        """Route every patched reference through its timing wrapper for the
        ``with`` body; the originals return even on error."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def per_call(self, name: str, *, self_only: bool = False) -> float:
        """Mean seconds per call of one span (0 when never called)."""
        calls = self.calls[name]
        if not calls:
            return 0.0
        times = self.self_time if self_only else self.total
        return times[name] / calls

    def attributed(self) -> float:
        """Seconds covered by spans: the sum of every span's self time."""
        return sum(self.self_time.values())

    def work_signature(self) -> dict:
        """Every count the seed must not change: work asked for and calls.

        Accept and reject are Metropolis decisions, which the seed is meant
        to change; only their sum, the proposals decided, must not.
        """
        signature = {f"work.{key}": value for key, value in self.work.items()}
        if self.roots:
            # The pattern count of the most frequent root reduction: the
            # workload's own, not a health probe's.
            dims = max(self.roots, key=self.roots.__getitem__)
            signature["work.patterns"] = dims[0]
        signature.update(
            {
                f"calls.{name}": self.calls[name]
                for name in self.names
                if name not in DECISIONS
            }
        )
        signature["calls.decisions"] = sum(self.calls[n] for n in DECISIONS)
        return signature
