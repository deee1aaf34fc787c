"""Extension — incremental updates and rerooting (paper §VIII, factor 2).

Inference programs recompute only the partials invalidated by a move: the
path from the changed branch to the root. The paper asks whether its
concurrency gains apply in that regime; this benchmark quantifies two
answers with the library's dirty-path machinery:

1. **Rerooting shortens the updates themselves.** The expected dirty-path
   length over a uniformly chosen branch is O(n) for a pectinate rooting
   but halves (and better) after optimal rerooting, so a rerooted
   starting tree pays off on *every* branch-length iteration, not only on
   full traversals.
2. **Concurrent paths batch.** Multi-branch moves (e.g. adaptive-MCMC
   style updates of many parameters at once, §VIII) touch several paths
   whose union still groups into few operation sets.
"""

from __future__ import annotations

import numpy as np
from conftest import emit

from repro.bench import format_table
from repro.core import (
    dirty_nodes,
    incremental_operation_sets,
    optimal_reroot_fast,
)
from repro.data import random_patterns
from repro.inference import TreeLikelihood, branch_length_move
from repro.models import JC69
from repro.trees import pectinate_tree, random_attachment_tree


def mean_update_stats(tree):
    costs = [len(dirty_nodes(tree, [e])) for e in tree.edges()]
    return float(np.mean(costs)), int(np.max(costs))


def test_incremental_updates(benchmark, results_dir, full_scale):
    sizes = (64, 256, 1024) if full_scale else (64, 256)
    rows = []
    for n in sizes:
        for label, tree in [
            ("pectinate", pectinate_tree(n)),
            ("random", random_attachment_tree(n, 1)),
        ]:
            rerooted = optimal_reroot_fast(tree).tree
            mean_before, max_before = mean_update_stats(tree)
            mean_after, max_after = mean_update_stats(rerooted)
            rows.append(
                {
                    "taxa": n,
                    "topology": label,
                    "mean path before": f"{mean_before:.1f}",
                    "mean path after": f"{mean_after:.1f}",
                    "max before": max_before,
                    "max after": max_after,
                    "mean reduction": f"{mean_before / mean_after:.2f}x",
                }
            )
            assert mean_after <= mean_before + 1e-9
            if label == "pectinate":
                assert mean_before / mean_after > 1.8  # ~2x like full traversals

    # Multi-branch moves batch across disjoint paths.
    tree = optimal_reroot_fast(pectinate_tree(64)).tree
    tree.assign_indices()
    tips = tree.tips()
    changed = [tips[0], tips[-1]]
    sets = incremental_operation_sets(tree, changed)
    n_ops = sum(len(s) for s in sets)
    assert len(sets) < n_ops  # batching happened
    rows.append(
        {
            "taxa": 64,
            "topology": "rerooted pectinate, 2-branch move",
            "mean path before": n_ops,
            "mean path after": len(sets),
            "max before": "",
            "max after": "",
            "mean reduction": "ops vs launches",
        }
    )

    emit(
        results_dir,
        "incremental_updates.md",
        format_table(
            rows, title="Extension (§VIII): dirty-path updates and rerooting"
        ),
    )

    # Kernel under measurement: one real dirty-path proposal on a 256-tip
    # tree — an in-place multiplier move evaluated by TreeLikelihood.propose
    # and then rejected, so every call starts from the same state. The
    # proposal's value is validated against a fresh full evaluation.
    big = optimal_reroot_fast(random_attachment_tree(256, 1)).tree
    patterns = random_patterns(sorted(t.name for t in big.tips()), 64, seed=9)
    evaluator = TreeLikelihood(big, JC69(), patterns)
    evaluator.log_likelihood()
    rng = np.random.default_rng(10)

    def update():
        value = evaluator.propose(branch_length_move(big, rng))
        evaluator.reject()
        return value

    benchmark(update)
    value = evaluator.propose(branch_length_move(big, rng))
    fresh = TreeLikelihood(big.copy(), JC69(), patterns).log_likelihood()
    evaluator.reject()
    assert value == fresh
