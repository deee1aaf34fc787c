"""Nonparametric bootstrap support values (Felsenstein 1985).

Columns of the alignment are resampled with replacement, a tree is built
from each pseudo-replicate, and clade support is the frequency with which
each split recurs — the classic uncertainty measure phylogenetics
packages report next to MCMC posterior probabilities. Any tree-building
callable works; the examples pair it with the neighbor-joining
constructor for speed and with :func:`repro.inference.ml_search` for
likelihood-based support.
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Iterator, List, Optional

import numpy as np

from ..data.alignment import Alignment
from ..trees import Tree
from .consensus import majority_rule_consensus, split_frequencies

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.pool import JobContext, LikelihoodPool

__all__ = [
    "bootstrap_alignments",
    "bootstrap_log_likelihoods",
    "bootstrap_trees",
    "bootstrap_support",
    "bootstrap_consensus",
]

TreeBuilder = Callable[[Alignment], Tree]


def _accepts_context(builder: Callable) -> bool:
    """Has the builder *explicitly* opted into receiving a JobContext?

    Opt-in is a ``pool_context = True`` attribute on the callable or a
    parameter literally named ``ctx`` — never inferred from arity, so a
    builder with an unrelated optional second parameter (say
    ``def build(aln, n_starts=3)``) is not silently handed a
    :class:`~repro.exec.pool.JobContext` as ``n_starts``.
    """
    if getattr(builder, "pool_context", False):
        return True
    param = _ctx_parameter(builder)
    return param is not None and param.kind is not param.VAR_KEYWORD


def _ctx_parameter(builder: Callable):
    try:
        signature = inspect.signature(builder)
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return None
    return signature.parameters.get("ctx")


def _replicate_job(
    builder: Callable, replicate: Alignment, pass_context: bool
) -> Callable[["JobContext"], Tree]:
    if not pass_context:
        return lambda ctx: builder(replicate)
    param = _ctx_parameter(builder)
    if param is not None and param.kind is param.KEYWORD_ONLY:
        return lambda ctx: builder(replicate, ctx=ctx)
    return lambda ctx: builder(replicate, ctx)


def bootstrap_alignments(
    alignment: Alignment,
    n_replicates: int,
    rng: np.random.Generator,
) -> Iterator[Alignment]:
    """Yield site-resampled pseudo-replicates of an alignment."""
    if n_replicates < 1:
        raise ValueError("need at least one replicate")
    n_sites = alignment.n_sites
    for _ in range(n_replicates):
        sites = rng.integers(0, n_sites, size=n_sites)
        yield alignment.site_subset(sites.tolist())


def bootstrap_log_likelihoods(
    alignment: Alignment,
    tree: Tree,
    model,
    n_replicates: int,
    *,
    seed: int = 0,
    rates=None,
    mode: str = "concurrent",
    shards: int = 0,
    pool=None,
) -> List[float]:
    """Per-replicate log-likelihoods of one tree (RELL-style bootstrap).

    Resamples alignment columns with replacement (same seeded stream as
    :func:`bootstrap_alignments`) and evaluates the *fixed* tree against
    each pseudo-replicate — the likelihood side of the
    resampling-estimated-log-likelihood bootstrap. With ``shards > 0``
    each replicate's evaluation is sharded over its site patterns
    through a :class:`~repro.exec.sharding.ShardedLikelihood` (sharing
    ``pool`` across replicates); the returned values are bit-identical
    to the unsharded evaluation regardless of shard count, completion
    order, or mid-run faults.
    """
    from ..data.patterns import compress
    from .likelihood import TreeLikelihood

    rng = np.random.default_rng(seed)
    values: List[float] = []
    for replicate in bootstrap_alignments(alignment, n_replicates, rng):
        patterns = compress(replicate)
        if shards > 0:
            from ..exec.sharding import ShardedLikelihood

            evaluator = ShardedLikelihood(
                tree,
                model,
                patterns,
                n_shards=shards,
                rates=rates,
                mode=mode,
                pool=pool,
            )
        else:
            evaluator = TreeLikelihood(
                tree, model, patterns, rates=rates, mode=mode
            )
        values.append(evaluator.log_likelihood())
    return values


def bootstrap_trees(
    alignment: Alignment,
    builder: TreeBuilder,
    n_replicates: int,
    *,
    seed: int = 0,
    pool: Optional["LikelihoodPool"] = None,
    pass_context: Optional[bool] = None,
) -> List[Tree]:
    """Build one tree per bootstrap replicate.

    Replicate alignments are always drawn from one seeded RNG in order,
    so the replicate set is identical with or without a pool. With a
    ``pool``, replicates are independent jobs dispatched across the
    supervised workers (deadlines, failover, health checks apply). A
    builder receives its :class:`~repro.exec.pool.JobContext` — so
    likelihood-based builders can evaluate through the worker's
    resilient stack — only when it opts in explicitly: pass
    ``pass_context=True``, name the extra parameter ``ctx``, or set a
    ``pool_context = True`` attribute on the callable. Builders with
    unrelated optional parameters are never handed a context
    implicitly.
    """
    rng = np.random.default_rng(seed)
    replicates = bootstrap_alignments(alignment, n_replicates, rng)
    if pool is None:
        return [builder(replicate) for replicate in replicates]
    if pass_context is None:
        pass_context = _accepts_context(builder)
    jobs = [
        _replicate_job(builder, replicate, pass_context)
        for replicate in replicates
    ]
    return list(
        pool.map(
            jobs, labels=[f"replicate-{i}" for i in range(len(jobs))]
        )
    )


def bootstrap_support(
    alignment: Alignment,
    builder: TreeBuilder,
    n_replicates: int,
    *,
    seed: int = 0,
    pool: Optional["LikelihoodPool"] = None,
    pass_context: Optional[bool] = None,
) -> Dict[FrozenSet[str], float]:
    """Split frequencies across bootstrap replicates (support values)."""
    trees = bootstrap_trees(
        alignment,
        builder,
        n_replicates,
        seed=seed,
        pool=pool,
        pass_context=pass_context,
    )
    return split_frequencies(trees)


def bootstrap_consensus(
    alignment: Alignment,
    builder: TreeBuilder,
    n_replicates: int,
    *,
    seed: int = 0,
    min_frequency: float = 0.5,
    pool: Optional["LikelihoodPool"] = None,
    pass_context: Optional[bool] = None,
) -> Tree:
    """Majority-rule consensus of bootstrap trees, labelled with support."""
    trees = bootstrap_trees(
        alignment,
        builder,
        n_replicates,
        seed=seed,
        pool=pool,
        pass_context=pass_context,
    )
    return majority_rule_consensus(trees, min_frequency=min_frequency)
