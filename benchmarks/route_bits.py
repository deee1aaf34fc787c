"""Hash the logL bits of every execution route on fixed seeded problems.

Each route prints ``route: [values, sha256 prefix, last logL]``, the hash
taken over the ``float.hex`` of every value the route returns:

* ``full`` — serial, concurrent and rerooted plans on pectinate, balanced
  and Yule trees, f64 and f32, 1 and 4 rate categories; each plan runs
  three times on one instance and once on a second instance;
* ``scaled`` — manual-scaling plans on the same trees in f32;
* ``incremental`` — a ``TreeLikelihood`` proposal chain of branch and NNI
  moves, accepted and rejected alternately;
* ``gradient`` — ``all_branch_derivatives`` sweeps (logL and every
  branch triple);
* ``pool`` — an inline pool under seeded worker faults;
* ``serve`` — coalesced server requests from several tenants;
* ``shards`` — ``ShardedLikelihood`` at 1, 3 and 5 shards.

Two checkouts print the same lines exactly when their bits agree on
every route::

    PYTHONPATH=src python benchmarks/route_bits.py
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.core import create_instance, execute_plan, make_plan, optimal_reroot_fast
from repro.data import random_patterns
from repro.exec import FaultSpec, LikelihoodPool, RetryPolicy, ShardedLikelihood
from repro.inference import TreeLikelihood, all_branch_derivatives
from repro.inference.proposals import branch_length_move, nni_move
from repro.models import GTR, discrete_gamma
from repro.serve import CoalescePolicy, LikelihoodServer, RequestDims
from repro.trees import balanced_tree, pectinate_tree, yule_tree

MODEL = GTR((1.0, 2.5, 0.8, 1.2, 3.0, 1.0), (0.3, 0.2, 0.25, 0.25))


def _problems():
    """Three seeded trees (pectinate, balanced, Yule) with patterns."""
    rng = np.random.default_rng(24)
    out = []
    for tree in (
        pectinate_tree(24, branch_length=0.08),
        balanced_tree(32, branch_length=0.1),
        yule_tree(40, rng),
    ):
        out.append((tree, random_patterns(tree.tip_names(), 96, rng=rng)))
    return out


def full_route():
    values = []
    for tree, patterns in _problems():
        for rates in (None, discrete_gamma(0.5, 4)):
            for dtype in (np.float64, np.float32):
                for mode in ("serial", "concurrent", "rerooted"):
                    t = optimal_reroot_fast(tree).tree if mode == "rerooted" else tree
                    plan = make_plan(t, "serial" if mode == "serial" else "concurrent")
                    kw = dict(rates=rates, dtype=dtype)
                    instance = create_instance(t, MODEL, patterns, **kw)
                    values += [execute_plan(instance, plan) for _ in range(3)]
                    other = create_instance(t, MODEL, patterns, **kw)
                    values.append(execute_plan(other, plan))
    return values


def scaled_route():
    values = []
    for tree, patterns in _problems():
        plan = make_plan(tree, "concurrent", scaling=True)
        instance = create_instance(
            tree, MODEL, patterns, scaling=True, dtype=np.float32
        )
        values += [execute_plan(instance, plan) for _ in range(3)]
    return values


def incremental_route():
    values = []
    for seed, (tree, patterns) in enumerate(_problems()):
        rng = np.random.default_rng(seed)
        lik = TreeLikelihood(tree.copy(), MODEL, patterns)
        values.append(lik.log_likelihood())
        for step in range(24):
            move = (
                nni_move(lik.tree, rng) if step % 3 == 2 else None
            ) or branch_length_move(lik.tree, rng)
            values.append(lik.propose(move))
            lik.accept() if step % 2 else lik.reject()
        values.append(lik.log_likelihood())
    return values


def gradient_route():
    values = []
    for tree, patterns in _problems():
        for rates in (None, discrete_gamma(0.5, 4)):
            gradient = all_branch_derivatives(tree, MODEL, patterns, rates=rates)
            values.append(gradient.log_likelihood)
            for d in gradient.derivatives:
                values += [d.log_likelihood, d.first, d.second]
    return values


def pool_route():
    values = []
    for seed, (tree, patterns) in enumerate(_problems()):
        plan = make_plan(tree, "concurrent")
        pool = LikelihoodPool(
            2,
            policy=RetryPolicy(degrade=True, rescale=False),
            worker_fault_specs=[
                FaultSpec(rate=0.25, seed=seed, max_faults=3),
                FaultSpec(rate=0.25, seed=seed + 7, max_faults=3),
            ],
            executor="inline",
            deadline_s=None,
        )
        for _ in range(6):
            pool.submit_case(
                lambda t=tree, p=patterns: (create_instance(t, MODEL, p), plan)
            )
        values += [o.value for o in pool.drain()]
    return values


def serve_route():
    values = []
    for tree, patterns in _problems():
        plan = make_plan(tree, "concurrent")
        server = LikelihoodServer(
            LikelihoodPool(2, executor="inline", deadline_s=None),
            coalesce=CoalescePolicy(max_width=4),
        )
        dims = RequestDims(state_count=4, pattern_count=patterns.n_patterns)
        for request in range(10):
            server.submit(
                f"t{request % 3}",
                lambda t=tree, p=patterns: (create_instance(t, MODEL, p), plan),
                dims=dims,
            )
        values += [o.value for o in server.drain()]
    return values


def shards_route():
    values = []
    for tree, patterns in _problems():
        for k in (1, 3, 5):
            engine = ShardedLikelihood(tree, MODEL, patterns, n_shards=k)
            values += [engine.log_likelihood() for _ in range(2)]
    return values


ROUTES = {
    "full": full_route,
    "scaled": scaled_route,
    "incremental": incremental_route,
    "gradient": gradient_route,
    "pool": pool_route,
    "serve": serve_route,
    "shards": shards_route,
}


def main() -> None:
    for name, route in ROUTES.items():
        values = [float(v) for v in route()]
        digest = hashlib.sha256("".join(v.hex() for v in values).encode())
        print(f"{name}:", json.dumps([len(values), digest.hexdigest()[:16], values[-1]]))


if __name__ == "__main__":
    main()
