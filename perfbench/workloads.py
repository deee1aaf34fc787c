"""The five benchmark workloads.

Each workload turns a seed into generated inputs (:meth:`inputs`), builds
the program's state from them (:meth:`setup`, the timed set-up), and runs
units closed-loop (:meth:`run`, one unit at a time, each timed). The seed
changes values only — states, branch lengths, model parameters,
multipliers and acceptance draws — never a shape, a count or a schedule,
so the work a unit asks for is the same for every seed (the self-check in
``run.py`` proves it). The program receives only the generated inputs.

Calls the traced run must see go through module attributes
(``planner.create_instance``, ``proposals.branch_length_move``,
``derivatives.all_branch_derivatives``), because :class:`tracing.Tracer`
patches the references ``repro`` modules hold, not copies bound here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro import GTR, TreeLikelihood, discrete_gamma
from repro.core import planner
from repro.data import random_patterns
from repro.exec import LikelihoodPool
from repro.inference import derivatives, proposals
from repro.serve import AdmissionConfig, CoalescePolicy, LikelihoodServer, RequestDims
from repro.trees import balanced_tree, pectinate_tree

clock = time.perf_counter


@dataclass
class Tally:
    """Units attempted and units whose answer was missing or wrong."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def fail(self, units: int, note: str) -> None:
        self.failed += units
        if len(self.notes) < 5:
            self.notes.append(note)


def _model_values(rng):
    """GTR exchangeabilities and base frequencies drawn from the seed."""
    return rng.uniform(0.5, 2.0, 6), rng.dirichlet(np.full(4, 8.0))


def _tree(shape, n_tips, rng):
    make = balanced_tree if shape == "balanced" else pectinate_tree
    tree = make(n_tips, rng=rng, random_lengths=True)
    # Exponential lengths with mean 0.1, floored so no branch is degenerate.
    for edge in tree.edges():
        edge.length = max(edge.length, 1e-3)
    return tree


class Workload:
    """Interface shared by the five workloads.

    ``block`` is the number of units between two host probes; ``count``
    the fixed number of units the work counts are taken over. ``sizes``
    maps ``"full"`` and ``"tiny"`` (the smoke tests) to the problem shape.
    """

    name = ""
    block = 1
    count = 1
    sizes: dict = {}

    def __init__(self, size: str = "full") -> None:
        self.dims = self.sizes[size]

    def inputs(self, seed: int):
        raise NotImplementedError

    def setup(self, inputs):
        raise NotImplementedError

    def prepare(self, inputs, state, tally: Tally) -> None:
        """Untimed reference answers the units are checked against."""

    def run(self, state, n: int, tally: Tally) -> list:
        """Run ``n`` units; returns one latency in seconds per unit."""
        raise NotImplementedError

    def check(self, state, tally: Tally) -> None:
        """Untimed answer check between blocks (default: none needed)."""

    def finish(self, state, tally: Tally) -> None:
        """Untimed final answer check."""

    def instance(self, state):
        """The engine instance whose arena size is reported."""
        raise NotImplementedError


# ----------------------------------------------------------------------
class Evaluate(Workload):
    """One unit is one full ``TreeLikelihood.log_likelihood()``."""

    def inputs(self, seed):
        shape, n_tips, n_patterns, n_categories, reroot = self.dims
        rng = np.random.default_rng(seed)
        tree = _tree(shape, n_tips, rng)
        return {
            "tree": tree,
            "patterns": random_patterns(tree.tip_names(), n_patterns, rng=rng),
            "model": _model_values(rng),
            "alpha": float(rng.uniform(0.3, 1.5)),
            "categories": n_categories,
            "reroot": reroot,
        }

    def setup(self, inputs):
        exchange, freqs = inputs["model"]
        model = GTR(exchange, freqs)
        n_categories = inputs["categories"]
        rates = (
            discrete_gamma(inputs["alpha"], n_categories)
            if n_categories > 1
            else None
        )
        evaluator = TreeLikelihood(
            inputs["tree"],
            model,
            inputs["patterns"],
            rates=rates,
            reroot=inputs["reroot"],
        )
        return {"evaluator": evaluator, "reference": evaluator.log_likelihood()}

    def prepare(self, inputs, state, tally):
        """Check the reference against a serial plan on the as-given tree."""
        e = state["evaluator"]
        serial = TreeLikelihood(
            inputs["tree"].copy(), e.model, e.patterns, rates=e.rates, mode="serial"
        ).log_likelihood()
        reference = state["reference"]
        if not abs(serial - reference) <= 1e-10 * abs(serial):
            state["reference"] = math.nan  # every unit then counts as failed
            tally.notes.append(
                f"reference {reference!r} != serial as-given {serial!r}"
            )

    def run(self, state, n, tally):
        evaluator, reference = state["evaluator"], state["reference"]
        latencies = []
        for _ in range(n):
            start = clock()
            value = evaluator.log_likelihood()
            latencies.append(clock() - start)
            if value != reference:
                tally.fail(1, f"logL {value!r} != reference {reference!r}")
        tally.attempted += n
        return latencies

    def instance(self, state):
        return state["evaluator"].instance


class EvalNarrow(Evaluate):
    """Rerooted pectinate-256 x 128 patterns: 128 sets of at most two
    operations, so the fixed cost of each set dominates (the paper's case)."""

    name = "eval-narrow"
    block = 10
    count = 4
    sizes = {
        "full": ("pectinate", 256, 128, 1, "fast"),
        "tiny": ("pectinate", 16, 16, 1, "fast"),
    }


class EvalWide(Evaluate):
    """Balanced-256 x 1024 patterns x 4 categories in 8 sets: kernel
    arithmetic, matrices and the root reduction dominate (the control for a
    per-set change)."""

    name = "eval-wide"
    block = 1
    count = 2
    sizes = {
        "full": ("balanced", 256, 1024, 4, "none"),
        "tiny": ("balanced", 16, 32, 4, "none"),
    }


# ----------------------------------------------------------------------
class _Draws:
    """Stands in for the generator a move draws from.

    The edge comes from the benchmark's fixed schedule, so which dirty path
    a unit recomputes never depends on the seed; the multiplier comes from
    the seeded stream.
    """

    def __init__(self, rng) -> None:
        self.rng = rng
        self.edge = 0

    def integers(self, n):
        return self.edge

    def random(self):
        return self.rng.random()


class Mcmc(Workload):
    """One unit is one Metropolis cycle: three branch-length proposals and
    one NNI proposal, each through to its accept/reject decision.

    The branch moves are in-place multiplier moves on a fixed cyclic edge
    schedule, decided by Metropolis under an exponential prior. The NNI
    comes from a fixed cyclic schedule and is evaluated, then rejected, so
    the topology — and with it every dirty path — never drifts. A cycle
    rather than a single proposal is the unit because single proposals
    fall into a few latency clusters (by dirty-path depth and move kind),
    and a median taken between clusters jumps from run to run.
    """

    name = "mcmc"
    block = 16
    count = 16
    sizes = {"full": (256, 256), "tiny": (16, 16)}
    prior_rate = 10.0
    branch_moves = 3

    def inputs(self, seed):
        n_tips, n_patterns = self.dims
        rng = np.random.default_rng(seed)
        tree = _tree("balanced", n_tips, rng)
        return {
            "tree": tree,
            "patterns": random_patterns(tree.tip_names(), n_patterns, rng=rng),
            "model": _model_values(rng),
            "draws": np.random.default_rng([seed, 1]),
        }

    def setup(self, inputs):
        evaluator = TreeLikelihood(
            inputs["tree"], GTR(*inputs["model"]), inputs["patterns"]
        )
        current = evaluator.log_likelihood()
        tree = evaluator.tree
        # Fixed schedules, the same for every seed.
        order = np.random.default_rng(0)
        edges = tree.edges()
        return {
            "evaluator": evaluator,
            "current": current,
            "edges": edges,
            "edge_order": order.permutation(len(edges)).tolist(),
            "nni_order": order.permutation(proposals.nni_move_count(tree)).tolist(),
            "draws": _Draws(inputs["draws"]),
            "rng": inputs["draws"],
            "cycle": 0,
        }

    def run(self, state, n, tally):
        evaluator, edges = state["evaluator"], state["edges"]
        tree = evaluator.tree
        draws, rng = state["draws"], state["rng"]
        edge_order, nni_order = state["edge_order"], state["nni_order"]
        latencies = []
        for _ in range(n):
            cycle = state["cycle"]
            state["cycle"] = cycle + 1
            first = cycle * self.branch_moves
            scheduled = [
                edge_order[(first + i) % len(edge_order)]
                for i in range(self.branch_moves)
            ]
            uniforms = rng.random(self.branch_moves).tolist()
            values = []
            start = clock()
            for edge_index, u in zip(scheduled, uniforms):
                draws.edge = edge_index
                old_length = edges[edge_index].length
                move = proposals.branch_length_move(tree, draws)
                value = evaluator.propose(move)
                log_ratio = (
                    value
                    - state["current"]
                    + move.log_hastings
                    - self.prior_rate * (edges[edge_index].length - old_length)
                )
                if math.log(u + 1e-300) < log_ratio:
                    evaluator.accept()
                    state["current"] = value
                else:
                    evaluator.reject()
                values.append(value)
            move = proposals.nni_move_at(tree, nni_order[cycle % len(nni_order)])
            values.append(evaluator.propose(move))
            evaluator.reject()
            latencies.append(clock() - start)
            if not all(math.isfinite(v) for v in values):
                tally.fail(1, f"proposal logL {values!r}")
        tally.attempted += n
        return latencies

    def finish(self, state, tally):
        """The chain's logL must equal a fresh full evaluation bit for bit."""
        e = state["evaluator"]
        fresh = TreeLikelihood(e.tree.copy(), e.model, e.patterns).log_likelihood()
        if fresh != state["current"]:
            tally.fail(
                tally.attempted - tally.failed,
                f"final logL {state['current']!r} != fresh {fresh!r}",
            )

    def instance(self, state):
        return state["evaluator"].instance


# ----------------------------------------------------------------------
class Gradient(Workload):
    """One unit is one ``all_branch_derivatives`` sweep, as ``run_hmc``
    calls it: fresh branch lengths, fixed topology, no instance reuse."""

    name = "gradient"
    block = 2
    count = 2
    sizes = {"full": (128, 256), "tiny": (8, 16)}

    def inputs(self, seed):
        n_tips, n_patterns = self.dims
        rng = np.random.default_rng(seed)
        tree = _tree("balanced", n_tips, rng)
        return {
            "tree": tree,
            "patterns": random_patterns(tree.tip_names(), n_patterns, rng=rng),
            "model": _model_values(rng),
            "lengths": np.random.default_rng([seed, 2]),
        }

    def setup(self, inputs):
        tree = inputs["tree"]
        model = GTR(*inputs["model"])
        edges = derivatives.canonical_edges(tree)
        state = {
            "tree": tree,
            "model": model,
            "patterns": inputs["patterns"],
            "edges": edges,
            "skip": tree.root.children[1],
            "rng": inputs["lengths"],
        }
        state["last"] = derivatives.all_branch_derivatives(
            tree, model, inputs["patterns"]
        )
        return state

    def _set_lengths(self, state):
        lengths = state["rng"].uniform(0.02, 0.3, len(state["edges"]))
        for edge, t in zip(state["edges"], lengths.tolist()):
            edge.length = t
        state["skip"].length = 0.0
        state["tree"].invalidate_indices()

    def run(self, state, n, tally):
        tree, model, patterns = state["tree"], state["model"], state["patterns"]
        latencies = []
        for _ in range(n):
            self._set_lengths(state)
            start = clock()
            result = derivatives.all_branch_derivatives(tree, model, patterns)
            latencies.append(clock() - start)
            state["last"] = result
            if not (
                math.isfinite(result.log_likelihood)
                and np.isfinite(result.gradient()).all()
                and np.isfinite(result.second_derivatives()).all()
            ):
                tally.fail(1, "non-finite gradient sweep")
        tally.attempted += n
        return latencies

    def check(self, state, tally):
        """The last sweep against a full evaluation and the per-edge oracle."""
        result = state["last"]
        tree, model, patterns = state["tree"], state["model"], state["patterns"]
        full = TreeLikelihood(tree, model, patterns).log_likelihood()
        if full != result.log_likelihood:
            tally.fail(1, f"sweep logL {result.log_likelihood!r} != full {full!r}")
            return
        edges = result.edges
        for i in (0, len(edges) // 2):
            oracle = derivatives.edge_log_likelihood_derivatives(
                tree, model, patterns, edges[i]
            )
            if oracle != result.derivatives[i]:
                tally.fail(1, f"edge {i}: {result.derivatives[i]} != {oracle}")
                return

    finish = check

    def instance(self, state):
        return planner.create_instance(
            state["tree"], state["model"], state["patterns"]
        )


# ----------------------------------------------------------------------
class Serve(Workload):
    """One unit is one request, timed from submit to its outcome.

    Four tenants keep eight requests outstanding between them (closed
    loop: a request is resubmitted as soon as its outcome returns) against
    a coalescing server (width 4) over a 2-worker inline pool, with no
    deadlines. Each tenant evaluates its own seeded case of one shape.
    """

    name = "serve"
    block = 32
    count = 32
    sizes = {"full": (32, 64), "tiny": (8, 16)}
    tenants = 4
    outstanding = 8
    width = 4

    def inputs(self, seed):
        n_tips, n_patterns = self.dims
        rng = np.random.default_rng(seed)
        cases = []
        for _ in range(self.tenants):
            tree = _tree("balanced", n_tips, rng)
            cases.append(
                {
                    "tree": tree,
                    "patterns": random_patterns(
                        tree.tip_names(), n_patterns, rng=rng
                    ),
                    "model": _model_values(rng),
                }
            )
        return {"cases": cases, "tree": cases[0]["tree"]}

    def setup(self, inputs):
        factories = []
        for case in inputs["cases"]:
            tree, model = case["tree"], GTR(*case["model"])
            plan = planner.make_plan(tree, "concurrent")

            def make_case(
                tree=tree, model=model, patterns=case["patterns"], plan=plan
            ):
                return planner.create_instance(tree, model, patterns), plan

            dims = RequestDims(
                state_count=4, pattern_count=case["patterns"].n_patterns
            )
            factories.append((make_case, dims, tuple(plan.set_sizes)))
        pool = LikelihoodPool(2, executor="inline")
        server = LikelihoodServer(
            pool,
            admission=AdmissionConfig(max_queued=64),
            coalesce=CoalescePolicy(max_width=self.width, enabled=True),
            jitter_seed=0,
        )
        state = {
            "server": server,
            "factories": factories,
            "tenants": [f"tenant-{i}" for i in range(self.tenants)],
            "submitted": {},
            "queue_waits": [],
        }
        # First answer ready: one request served end to end.
        self._submit(state, 0)
        outcomes = []
        while not outcomes:
            outcomes = server.step()
        state["submitted"].clear()
        return state

    def _submit(self, state, tenant: int) -> None:
        make_case, dims, set_sizes = state["factories"][tenant]
        index = state["server"].submit(
            state["tenants"][tenant], make_case, dims=dims, set_sizes=set_sizes
        )
        state["submitted"][index] = (tenant, clock())

    def prepare(self, inputs, state, tally):
        """Each tenant's value from a clean serial engine, outside the server."""
        state["references"] = [
            planner.execute_plan(*make_case())
            for make_case, _, _ in state["factories"]
        ]

    def run(self, state, n, tally):
        server, submitted = state["server"], state["submitted"]
        references = state["references"]
        for i in range(self.outstanding - len(submitted)):
            self._submit(state, (len(submitted) + i) % self.tenants)
        latencies = []
        done = 0
        while done < n:
            step_start = clock()
            outcomes = server.step()
            end = clock()
            returned = []
            for outcome in outcomes:
                tenant, submitted_at = submitted.pop(outcome.index)
                returned.append(tenant)
                latencies.append(end - submitted_at)
                state["queue_waits"].append(max(0.0, step_start - submitted_at))
                done += 1
                if not outcome.ok or outcome.value != references[tenant]:
                    tally.fail(
                        1,
                        f"request {outcome.index}: {outcome.status} "
                        f"{outcome.value!r}",
                    )
            for tenant in returned:
                self._submit(state, tenant)
        tally.attempted += done
        return latencies

    def check(self, state, tally):
        server = state["server"]
        if not server.ledger.balances():
            tally.fail(1, "serve ledger does not balance")
        if not server.pool.stats().balances():
            tally.fail(1, "pool ledger does not balance")

    finish = check

    def instance(self, state):
        make_case = state["factories"][0][0]
        return make_case()[0]


WORKLOADS = {w.name: w for w in (EvalNarrow, EvalWide, Mcmc, Gradient, Serve)}
