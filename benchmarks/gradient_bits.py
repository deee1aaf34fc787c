"""Hash the bits of HMC-style gradient sweep sequences.

Each seed runs 12 :func:`~repro.inference.all_branch_derivatives` sweeps
on one tree the way ``run_hmc`` takes them: fresh ``uniform(0.02, 0.3)``
branch lengths and ``invalidate_indices()`` before every sweep, and an
in-place NNI (``nni_move_at(tree, 1)``) before sweeps 6 and 10. Seeds 1
and 3 use ``yule_tree(48)``, seeds 2 and 4 ``balanced_tree(64)``; GTR,
128 random patterns, 4 gamma categories for seeds 3 and 4. For each seed
it prints ``[branch triples, sha256 prefix, last logL]``, the hash taken
over the ``float.hex`` of every sweep's logL and every branch triple.

Two checkouts give the same line exactly when their gradient bits agree::

    PYTHONPATH=src python benchmarks/gradient_bits.py
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.data import random_patterns
from repro.inference import all_branch_derivatives
from repro.inference.proposals import nni_move_at
from repro.models import GTR, discrete_gamma
from repro.trees import balanced_tree, yule_tree

SWEEPS = 12
NNI_BEFORE = (6, 10)


def sweep_bits(seed: int) -> list:
    rng = np.random.default_rng(seed)
    tree = yule_tree(48, rng) if seed % 2 else balanced_tree(64)
    model = GTR((1.0, 2.5, 0.8, 1.2, 3.0, 1.0), (0.3, 0.2, 0.25, 0.25))
    patterns = random_patterns(tree.tip_names(), 128, rng=rng)
    rates = discrete_gamma(0.5, 4) if seed >= 3 else None
    digest = hashlib.sha256()
    triples = 0
    for sweep in range(SWEEPS):
        if sweep in NNI_BEFORE:
            nni_move_at(tree, 1)
        for edge in tree.edges():
            edge.length = float(rng.uniform(0.02, 0.3))
        tree.invalidate_indices()
        gradient = all_branch_derivatives(tree, model, patterns, rates=rates)
        digest.update(gradient.log_likelihood.hex().encode())
        for d in gradient.derivatives:
            for value in (d.log_likelihood, d.first, d.second):
                digest.update(value.hex().encode())
        triples += len(gradient.derivatives)
    return [triples, digest.hexdigest()[:16], gradient.log_likelihood.hex()]


def main() -> None:
    print(json.dumps({str(seed): sweep_bits(seed) for seed in (1, 2, 3, 4)}))


if __name__ == "__main__":
    main()
