"""Resilient execution: fault injection, recovery policies, checkpoints,
and the supervised likelihood pool.

The paper's speedups only matter if long runs finish. This subpackage
adds the dynamic-robustness layer around the likelihood engine. Each
layer wraps the engine's one launch method, ``update_partials_set``, and
:func:`build_stack` composes them in one fixed order:

* :mod:`repro.exec.errors` — the typed failure hierarchy
  (:class:`ExecutionError` → :class:`DeviceFault` /
  :class:`AllocationError` / :class:`NumericalError` /
  :class:`DeadlineExceeded` / :class:`PoolSaturatedError` /
  :class:`NoHealthyWorkersError`).
* :mod:`repro.exec.faults` — deterministic, seed-driven
  :class:`FaultInjector` over the engine's launch surface, with five
  fault classes (kernel-launch failure, transient device error,
  allocation failure, NaN poisoning, silent underflow), plus the
  silently-corrupting :class:`BiasInjector`.
* :mod:`repro.exec.resilient` — :class:`ResilientInstance`, the
  retry/degrade/rescale facade, with :class:`RetryPolicy` and
  :class:`FaultStats`.
* :mod:`repro.exec.stack` — :func:`build_stack`, the one place the
  layers are ordered, and :func:`run_plan`.
* :mod:`repro.exec.ledger` — :class:`Ledger`, whose identities, declared
  as data, give every closed-form ledger its check and explanation.
* :mod:`repro.exec.health` — :class:`Deadline` budgets,
  :class:`CircuitBreaker` state machines, and the known-answer
  :class:`Sentinel` health probe.
* :mod:`repro.exec.supervisor` — :class:`PoolWorker` engine slots and
  the :class:`Supervisor` that probes and evicts them.
* :mod:`repro.exec.pool` — :class:`LikelihoodPool`, dispatching
  independent jobs (bootstrap replicates, partitions, candidate trees)
  across supervised workers with deadlines, failover, and a balanced
  fault ledger.
* :mod:`repro.exec.checkpoint` — :class:`MCMCCheckpoint`, bit-identical
  checkpoint/resume for :func:`repro.inference.mcmc.run_mcmc`.
"""

from .checkpoint import CheckpointError, MCMCCheckpoint, ShardCheckpoint
from .errors import (
    AllocationError,
    DeadlineExceeded,
    DeviceFault,
    ExecutionError,
    KernelLaunchError,
    NoHealthyWorkersError,
    NumericalError,
    PoolSaturatedError,
    TransientDeviceError,
)
from .faults import (
    FAULT_CLASSES,
    SHARD_FAULT_CLASSES,
    BiasInjector,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    ShardFaultSchedule,
    ShardFaultSpec,
)
from .health import CircuitBreaker, Deadline, DeadlineGuard, Sentinel
from .ledger import Identity, Ledger
from .pool import JobContext, JobOutcome, LikelihoodPool, PoolStats
from .resilient import FaultStats, ResilientInstance, RetryPolicy
from .sharding import (
    MIN_SHARD_WIDTH,
    Shard,
    ShardAborted,
    ShardedLikelihood,
    ShardFailure,
    ShardLedger,
    plan_shards,
)
from .stack import build_stack, run_plan
from .supervisor import PoolWorker, Supervisor

__all__ = [
    "ExecutionError",
    "DeviceFault",
    "KernelLaunchError",
    "TransientDeviceError",
    "AllocationError",
    "NumericalError",
    "DeadlineExceeded",
    "PoolSaturatedError",
    "NoHealthyWorkersError",
    "FAULT_CLASSES",
    "FaultSpec",
    "FaultSchedule",
    "FaultInjector",
    "BiasInjector",
    "RetryPolicy",
    "FaultStats",
    "ResilientInstance",
    "build_stack",
    "run_plan",
    "Identity",
    "Ledger",
    "Deadline",
    "DeadlineGuard",
    "CircuitBreaker",
    "Sentinel",
    "PoolWorker",
    "Supervisor",
    "JobContext",
    "JobOutcome",
    "PoolStats",
    "LikelihoodPool",
    "CheckpointError",
    "MCMCCheckpoint",
    "ShardCheckpoint",
    "SHARD_FAULT_CLASSES",
    "ShardFaultSpec",
    "ShardFaultSchedule",
    "MIN_SHARD_WIDTH",
    "Shard",
    "ShardLedger",
    "ShardAborted",
    "ShardFailure",
    "ShardedLikelihood",
    "plan_shards",
]
