"""Inference layer: likelihood facade, optimisation and MCMC."""

from .likelihood import TreeLikelihood
from .optimize import (
    BranchOptimizationResult,
    GradientOptimizationResult,
    gradient_optimize_branch_lengths,
    newton_optimize_branch_lengths,
    optimize_branch_lengths,
)
from .derivatives import (
    BranchGradient,
    DerivativeSession,
    EdgeDerivatives,
    all_branch_derivatives,
    canonical_edges,
    edge_log_likelihood_derivatives,
    release_gradient_session,
    merged_edge_length,
)
from .ancestral import ancestral_state_probabilities, most_probable_states
from .proposals import (
    Move,
    Proposal,
    branch_length_move,
    random_spr,
    internal_edges,
    multiply_branch,
    nni_candidates,
    nni_move,
    nni_move_at,
    nni_move_count,
    random_nni,
)
from .mcmc import HMCResult, MCMCResult, leapfrog, run_hmc, run_mcmc
from .search import SearchResult, ml_search, nni_neighbors
from .consensus import majority_rule_consensus, split_frequencies
from .modelfit import (
    ModelFit,
    ParameterFit,
    fit_gamma_alpha,
    fit_kappa,
    model_selection,
    optimize_parameter,
)
from .bootstrap import (
    bootstrap_alignments,
    bootstrap_consensus,
    bootstrap_log_likelihoods,
    bootstrap_support,
    bootstrap_trees,
)

__all__ = [
    "TreeLikelihood",
    "BranchOptimizationResult",
    "GradientOptimizationResult",
    "optimize_branch_lengths",
    "newton_optimize_branch_lengths",
    "gradient_optimize_branch_lengths",
    "BranchGradient",
    "DerivativeSession",
    "EdgeDerivatives",
    "all_branch_derivatives",
    "canonical_edges",
    "edge_log_likelihood_derivatives",
    "release_gradient_session",
    "merged_edge_length",
    "ancestral_state_probabilities",
    "most_probable_states",
    "Move",
    "Proposal",
    "branch_length_move",
    "nni_candidates",
    "nni_move",
    "nni_move_at",
    "nni_move_count",
    "random_nni",
    "multiply_branch",
    "internal_edges",
    "MCMCResult",
    "run_mcmc",
    "HMCResult",
    "leapfrog",
    "run_hmc",
    "SearchResult",
    "ml_search",
    "nni_neighbors",
    "majority_rule_consensus",
    "split_frequencies",
    "bootstrap_alignments",
    "bootstrap_log_likelihoods",
    "bootstrap_trees",
    "bootstrap_support",
    "bootstrap_consensus",
    "ParameterFit",
    "optimize_parameter",
    "fit_kappa",
    "fit_gamma_alpha",
    "ModelFit",
    "model_selection",
    "random_spr",
]
