"""BEAGLE-work-alike likelihood engine: buffers, operations, kernels.

Every instance runs its kernel launches through one set executor
(:mod:`repro.beagle.setexec`), which lowers each set to a per-operation
or a run step by the layout of its operands.
"""

from .operations import Operation, operations_independent
from .kernels import (
    child_contribution,
    edge_site_likelihoods,
    operation_flops,
    root_site_likelihoods,
)
from .scaling import ScaleBufferBank
from .workspace import TransitionMatrixCache, Workspace
from .instance import BeagleInstance, InstanceStats
from .reference import brute_force_log_likelihood, pruning_log_likelihood

__all__ = [
    "Operation",
    "operations_independent",
    "child_contribution",
    "root_site_likelihoods",
    "edge_site_likelihoods",
    "operation_flops",
    "ScaleBufferBank",
    "TransitionMatrixCache",
    "Workspace",
    "BeagleInstance",
    "InstanceStats",
    "brute_force_log_likelihood",
    "pruning_log_likelihood",
]
