"""Tests for the gradient session that ``all_branch_derivatives`` keeps.

Successive sweeps share one idle :class:`DerivativeSession`: on an
unchanged topology (same post-order nodes, arities, tip names and mode),
model and patterns objects, dtype and category count, it reuses its
gradient plan, instance and compiled passes. The contract: every sweep's
bits equal a cold sweep on a fresh instance and the per-edge oracle,
whatever changed in between; two threads never share a session; and a
replaced or released session is freed by refcount. ``run_hmc`` and the
gradient optimiser hold their own session, freed when they return.
"""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import create_instance
from repro.data import random_patterns
from repro.inference import (
    DerivativeSession,
    TreeLikelihood,
    all_branch_derivatives,
    edge_log_likelihood_derivatives,
    gradient_optimize_branch_lengths,
    release_gradient_session,
    run_hmc,
)
from repro.inference import derivatives
from repro.inference.proposals import nni_candidates, nni_move_at
from repro.models import HKY85, discrete_gamma
from repro.trees import balanced_tree, parse_newick, yule_tree
from tests.strategies import tree_strategy

#: What may change between two sweeps of one sequence.
CHANGES = (
    "lengths",
    "nni",
    "rename",
    "patterns",
    "model",
    "frequencies",
    "rates",
    "dtype",
    "mode",
    "instance",
    "verify",
)

#: Changes after which the idle session keeps its swept topology.
KEEPS_TOPOLOGY = ("lengths", "frequencies", "rates", "instance", "verify")


def _triples(bg):
    return [(d.log_likelihood, d.first, d.second) for d in bg.derivatives]


def _set_lengths(tree, rng):
    for edge in tree.edges():
        edge.length = float(rng.uniform(0.02, 0.3))
    tree.invalidate_indices()


def _swept_topology():
    session = derivatives._idle._session
    return None if session is None else session._topology


class Case:
    """One sweep sequence's inputs and the change applied between sweeps."""

    def __init__(self, tree, seed):
        self.rng = np.random.default_rng(seed)
        self.tree = tree
        _set_lengths(tree, self.rng)
        self.patterns = random_patterns(tree.tip_names(), 24, rng=self.rng)
        self.model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        self.rates = discrete_gamma(0.5, 4)
        self.dtype = np.float64
        self.mode = "concurrent"
        self.route = "session"

    def apply(self, change):
        self.route = "session"
        if change == "lengths":
            _set_lengths(self.tree, self.rng)
        elif change == "nni":
            regular, has_pulley = nni_candidates(self.tree)
            n_moves = 2 * len(regular) + (2 if has_pulley else 0)
            nni_move_at(self.tree, int(self.rng.integers(n_moves)))
        elif change == "rename":
            a, b = self.rng.choice(self.tree.tips(), size=2, replace=False)
            a.name, b.name = b.name, a.name
        elif change == "patterns":
            self.patterns = random_patterns(
                self.tree.tip_names(), 24, rng=self.rng
            )
        elif change == "model":
            self.model = HKY85(
                float(self.rng.uniform(1, 4)), self.rng.dirichlet(np.ones(4) * 5)
            )
        elif change == "frequencies":
            # The same model object, its parameters replaced in place.
            other = HKY85(
                float(self.rng.uniform(1, 4)), self.rng.dirichlet(np.ones(4) * 5)
            )
            self.model._frequencies[:] = other._frequencies
            self.model._Q[:] = other._Q
            self.model.__dict__.pop("eigen", None)
        elif change == "rates":
            other = discrete_gamma(float(self.rng.uniform(0.2, 2.0)), 4)
            self.rates.rates[:] = other.rates
            self.rates.probabilities[:] = other.probabilities
        elif change == "dtype":
            self.dtype = np.float32 if self.dtype == np.float64 else np.float64
        elif change == "mode":
            self.mode = "serial" if self.mode == "concurrent" else "concurrent"
        else:
            self.route = change

    def sweep(self):
        args = (self.tree, self.model, self.patterns)
        kwargs = dict(rates=self.rates, dtype=self.dtype, mode=self.mode)
        if self.route == "instance":
            instance = create_instance(*args, rates=self.rates, dtype=self.dtype)
            return all_branch_derivatives(*args, instance=instance, **kwargs)
        return all_branch_derivatives(
            *args, verify=self.route == "verify", **kwargs
        )

    def cold(self):
        """The same sweep on a fresh instance (the session is not used)."""
        args = (self.tree, self.model, self.patterns)
        instance = create_instance(*args, rates=self.rates, dtype=self.dtype)
        return all_branch_derivatives(
            *args, rates=self.rates, mode=self.mode, instance=instance
        )

    def oracle(self, edge):
        session = DerivativeSession(
            self.model, self.patterns, self.rates, dtype=self.dtype
        )
        return edge_log_likelihood_derivatives(
            self.tree, self.model, self.patterns, edge,
            rates=self.rates, session=session,
        )


class TestSessionSweeps:
    @settings(max_examples=20, deadline=None)
    @given(
        tree=tree_strategy(min_tips=4, max_tips=24),
        changes=st.lists(st.sampled_from(CHANGES), min_size=2, max_size=6),
        seed=st.integers(0, 2**16),
    )
    def test_every_sweep_equals_a_cold_sweep_and_the_oracle(
        self, tree, changes, seed
    ):
        case = Case(tree, seed)
        for change in [None] + changes:
            before = _swept_topology()
            if change is not None:
                case.apply(change)
            got = case.sweep()
            cold = case.cold()
            assert got.log_likelihood == cold.log_likelihood
            assert list(got.edges) == list(cold.edges)
            assert _triples(got) == _triples(cold)
            for i in {0, len(got.edges) // 2, len(got.edges) - 1}:
                want = case.oracle(got.edges[i])
                assert _triples(got)[i] == (
                    want.log_likelihood, want.first, want.second
                )
            after = _swept_topology()
            if change in KEEPS_TOPOLOGY:
                assert after is before, change
            elif change is not None:
                assert after is not before, change

    def test_fixed_topology_builds_once_and_runs_both_passes_compiled(
        self, monkeypatch
    ):
        from repro.beagle import instance as instance_module

        built = {"plans": 0, "instances": 0, "one_set": 0}

        def counting(name, key):
            real = getattr(derivatives, name)

            def wrapper(*args, **kwargs):
                built[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(derivatives, name, wrapper)

        counting("make_gradient_plan", "plans")
        counting("create_instance", "instances")
        run_set = instance_module.execute_set

        def one_set(instance, ops):
            built["one_set"] += 1
            run_set(instance, ops)

        tree = balanced_tree(16, branch_length=0.1)
        patterns = random_patterns(tree.tip_names(), 32, seed=3)
        model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        rng = np.random.default_rng(1)
        for sweep in range(4):
            if sweep == 2:
                monkeypatch.setattr(instance_module, "execute_set", one_set)
            _set_lengths(tree, rng)
            all_branch_derivatives(tree, model, patterns)
        assert built == {"plans": 1, "instances": 1, "one_set": 0}
        session = derivatives._idle._session
        gplan = session._topology.plan
        assert gplan.programs.get(session._instance) is not None
        assert gplan.post.programs.get(session._instance) is not None

    def test_new_topology_with_the_same_tip_order_is_rebuilt(self):
        # ((a,b),(c,d)) -> (((a,b),c),d): same tips, names and node count
        # in the same post-order, different tree.
        tree = parse_newick("((a:0.1,b:0.2):0.1,(c:0.3,d:0.1):0.2);")
        model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        patterns = random_patterns(tree.tip_names(), 16, seed=5)
        all_branch_derivatives(tree, model, patterns)
        ab, cd = tree.root.children
        c, d = cd.children
        cd.children = [ab, c]
        ab.parent = cd
        tree.root.children = [cd, d]
        d.parent = tree.root
        tree.invalidate_indices()
        assert tree.tip_names() == ["a", "b", "c", "d"]
        got = all_branch_derivatives(tree, model, patterns)
        cold = all_branch_derivatives(
            tree, model, patterns, instance=create_instance(tree, model, patterns)
        )
        assert _triples(got) == _triples(cold)

    def test_one_session_serves_the_oracle_between_sweeps(self):
        tree = yule_tree(10, np.random.default_rng(8))
        model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        patterns = random_patterns(tree.tip_names(), 16, seed=7)
        session = DerivativeSession(model, patterns)
        first = session.sweep(tree)
        # The oracle re-binds the tips to a rerooted copy of the tree.
        edge = first.edges[3]
        want = edge_log_likelihood_derivatives(
            tree, model, patterns, edge, session=session
        )
        assert _triples(first)[3] == (want.log_likelihood, want.first, want.second)
        again = session.sweep(tree)
        assert _triples(again) == _triples(first)
        assert session.instances_created == 1

    def test_replaced_session_is_freed_by_refcount(self):
        tree = yule_tree(12, np.random.default_rng(2))
        model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        gc.collect()
        gc.disable()
        try:
            all_branch_derivatives(
                tree, model, random_patterns(tree.tip_names(), 16, seed=1)
            )
            old = derivatives._idle._session
            instance = weakref.ref(old._instance)
            session = weakref.ref(old)
            del old
            all_branch_derivatives(
                tree, model, random_patterns(tree.tip_names(), 16, seed=2)
            )
            assert session() is None and instance() is None
        finally:
            gc.enable()

    def test_released_session_is_freed_by_refcount(self):
        tree = yule_tree(12, np.random.default_rng(4))
        model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        patterns = random_patterns(tree.tip_names(), 16, seed=3)
        gc.collect()
        gc.disable()
        try:
            all_branch_derivatives(tree, model, patterns)
            instance = weakref.ref(derivatives._idle._session._instance)
            release_gradient_session()
            assert derivatives._idle._session is None
            assert instance() is None
        finally:
            gc.enable()
        # The next call builds a fresh session.
        all_branch_derivatives(tree, model, patterns)
        assert derivatives._idle._session.instances_created == 1

    def test_hmc_and_optimiser_free_their_own_sessions(self, monkeypatch):
        sessions = []

        class Recording(DerivativeSession):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sessions.append(weakref.ref(self))

        monkeypatch.setattr(derivatives, "DerivativeSession", Recording)
        tree = yule_tree(8, np.random.default_rng(6))
        model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        evaluator = TreeLikelihood(
            tree, model, random_patterns(tree.tip_names(), 24, seed=6)
        )
        release_gradient_session()
        gc.collect()
        gc.disable()
        try:
            hmc = run_hmc(evaluator, 2, seed=3, step_size=0.01, n_leapfrog=2)
            opt = gradient_optimize_branch_lengths(evaluator, max_iterations=2)
            assert len(sessions) == 2
            assert all(session() is None for session in sessions)
        finally:
            gc.enable()
        assert derivatives._idle._session is None
        assert hmc.gradient_sweeps > 1 and opt.gradient_sweeps > 1

    def test_explicit_instance_and_verify_leave_the_session_alone(self):
        tree = balanced_tree(8, branch_length=0.1)
        model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        patterns = random_patterns(tree.tip_names(), 16, seed=4)
        all_branch_derivatives(tree, model, patterns)
        session = derivatives._idle._session
        topology = session._topology
        launches = session._instance.stats.kernel_launches
        all_branch_derivatives(tree, model, patterns, verify=True)
        all_branch_derivatives(
            tree, model, patterns, instance=create_instance(tree, model, patterns)
        )
        assert derivatives._idle._session is session
        assert session._topology is topology
        assert session._instance.stats.kernel_launches == launches


class TestThreads:
    def test_concurrent_sweeps_equal_their_serial_results(self):
        model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        shapes = [
            yule_tree(20, np.random.default_rng(5)),
            balanced_tree(16, branch_length=0.1),
        ]
        data = [random_patterns(t.tip_names(), 32, seed=6) for t in shapes]

        def trajectory(tree, patterns, out, barrier=None):
            rng = np.random.default_rng(9)
            if barrier is not None:
                barrier.wait()
            for _ in range(8):
                _set_lengths(tree, rng)
                bg = all_branch_derivatives(tree, model, patterns)
                out.append((bg.log_likelihood, _triples(bg)))

        serial = []
        for tree, patterns in zip(shapes, data):
            serial.append([])
            trajectory(tree.copy(), patterns, serial[-1])

        barrier = threading.Barrier(2)
        results = [[], []]
        threads = [
            threading.Thread(
                target=trajectory, args=(tree.copy(), patterns, out, barrier)
            )
            for tree, patterns, out in zip(shapes, data, results)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == serial
