"""Checkpoint/resume state for long MCMC runs.

A run killed mid-chain — by an unrecoverable device fault, a job-queue
preemption, or a plain ``kill`` — must resume *bit-identically*: the
resumed trace has to equal the trace an uninterrupted run would have
produced, sample for sample. That requires freezing everything the next
iteration depends on:

* the **current tree** (topology + branch lengths, serialised as Newick
  with 17 significant digits so every ``float64`` round-trips exactly),
* the **RNG state** (the NumPy bit-generator state dictionary — the
  proposal and acceptance draws continue the same stream),
* the **trace and accounting** accumulated so far (log-likelihood trace,
  acceptance counts, kernel-launch and modelled-device-time totals),
* the **run configuration** (iterations, seed, move probabilities), so a
  resume with mismatched parameters fails loudly instead of silently
  sampling from a different chain.

Checkpoints are JSON (human-inspectable, dependency-free) and written
atomically (temp file + rename) so a kill during the write never leaves a
truncated checkpoint behind.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from ..obs import get_recorder

__all__ = [
    "CheckpointError",
    "MCMCCheckpoint",
    "ShardCheckpoint",
    "atomic_write_json",
    "load_json_checkpoint",
]

PathLike = Union[str, Path]

#: Format version; bumped on any incompatible field change.
CHECKPOINT_VERSION = 1

#: Format version of shard checkpoints (independent of the MCMC format).
#: Version 2 stores unweighted site logs; version 1 stored weighted terms.
SHARD_CHECKPOINT_VERSION = 2

#: Significant digits that round-trip any float64 through decimal text.
NEWICK_PRECISION = 17


class CheckpointError(RuntimeError):
    """A checkpoint could not be read, or does not match the run."""


def _jsonable(value):
    """Recursively convert NumPy scalars so ``json`` can serialise the
    RNG bit-generator state dictionary."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def atomic_write_json(path: PathLike, payload) -> None:
    """Write ``payload`` as JSON via a temp file + rename.

    A kill at any point leaves either the previous checkpoint or the new
    one — never a truncated file. The payload is passed through
    :func:`_jsonable` first, so NumPy scalars serialise; ``float64``
    values round-trip exactly (``json`` emits ``repr`` shortest-form
    decimals).
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(_jsonable(payload)))
    os.replace(tmp, path)


def load_json_checkpoint(path: PathLike, *, expected_version: int) -> Dict:
    """Read a JSON checkpoint and validate its format version.

    Raises
    ------
    CheckpointError
        If the file is unreadable, truncated, or carries a different
        ``version`` field than ``expected_version``.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    version = payload.get("version")
    if version != expected_version:
        raise CheckpointError(
            f"checkpoint {path} has format version {version!r}; "
            f"this build reads version {expected_version}"
        )
    return payload


@dataclass
class MCMCCheckpoint:
    """Complete resumable state of a :func:`repro.inference.mcmc.run_mcmc`.

    ``iteration`` counts *completed* iterations: a checkpoint written
    after iteration ``k`` resumes the loop at iteration ``k`` (0-based),
    consuming the stored RNG state exactly where the killed run left it.
    """

    iteration: int
    iterations: int
    seed: int
    rng_state: Dict
    current_newick: str
    current_log_likelihood: float
    current_log_prior: float
    best_newick: str
    best_log_likelihood: float
    trace: List[float]
    accepted: int
    proposed: int
    rerootings: int
    kernel_launches: int
    device_seconds: float
    config: Dict[str, float] = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        """Atomically write the checkpoint as JSON."""
        path = Path(path)
        obs = get_recorder()
        with obs.span(
            "checkpoint.save", category="checkpoint", iteration=self.iteration
        ):
            atomic_write_json(path, asdict(self))
        obs.count("repro_checkpoint_writes_total")

    @classmethod
    def load(cls, path: PathLike) -> "MCMCCheckpoint":
        """Read and validate a checkpoint.

        Raises
        ------
        CheckpointError
            If the file is unreadable, truncated, or from an
            incompatible format version.
        """
        payload = load_json_checkpoint(
            path, expected_version=CHECKPOINT_VERSION
        )
        try:
            return cls(**payload)
        except TypeError as exc:
            raise CheckpointError(
                f"checkpoint {path} is missing required fields: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def check_matches(self, *, iterations: int, seed: int, config: Dict) -> None:
        """Refuse to resume under different run parameters.

        A chain resumed with a different seed, iteration budget or move
        mix would silently sample a different posterior path; surface the
        mismatch instead.
        """
        if self.iterations != iterations or self.seed != seed:
            raise CheckpointError(
                f"checkpoint is for iterations={self.iterations} "
                f"seed={self.seed}, run requested iterations={iterations} "
                f"seed={seed}"
            )
        for key, value in config.items():
            stored = self.config.get(key)
            if stored is not None and stored != value:
                raise CheckpointError(
                    f"checkpoint was written with {key}={stored}, "
                    f"run requested {key}={value}"
                )

    def restore_rng(self) -> np.random.Generator:
        """Rebuild the generator exactly where the checkpoint froze it."""
        rng = np.random.default_rng()
        state = dict(self.rng_state)
        rng.bit_generator.state = state
        return rng


@dataclass
class ShardCheckpoint:
    """Durable record of completed shard results for one evaluation.

    A sharded likelihood evaluation (:class:`repro.exec.sharding.
    ShardedLikelihood`) saves one of these after every completed round so
    a crashed run resumes without recomputing finished shards. The
    ``site_logs`` map stores each finished shard's unweighted per-pattern
    log-likelihoods keyed by the shard index (as a string — JSON object
    keys are strings); ``float64`` values round-trip exactly through
    JSON's shortest-form decimal repr, so a resumed evaluation reduces
    to a bit-identical total.

    ``fingerprint`` hashes the inputs (tree, patterns, model); resuming
    against different inputs fails loudly instead of silently splicing
    results from a different problem.
    """

    n_patterns: int
    n_shards: int
    fingerprint: str
    site_logs: Dict[str, List[float]] = field(default_factory=dict)
    version: int = SHARD_CHECKPOINT_VERSION

    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        """Atomically write the shard checkpoint as JSON."""
        obs = get_recorder()
        with obs.span(
            "shard.checkpoint.save",
            category="checkpoint",
            completed=len(self.site_logs),
        ):
            atomic_write_json(path, asdict(self))
        obs.count("repro_shard_checkpoint_writes_total")

    @classmethod
    def load(cls, path: PathLike) -> "ShardCheckpoint":
        """Read and validate a shard checkpoint.

        Raises
        ------
        CheckpointError
            If the file is unreadable, truncated, or from an
            incompatible format version.
        """
        payload = load_json_checkpoint(
            path, expected_version=SHARD_CHECKPOINT_VERSION
        )
        try:
            return cls(**payload)
        except TypeError as exc:
            raise CheckpointError(
                f"shard checkpoint {path} is missing required fields: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def check_matches(
        self, *, n_patterns: int, n_shards: int, fingerprint: str
    ) -> None:
        """Refuse to resume against a different problem or shard plan."""
        if self.n_patterns != n_patterns or self.n_shards != n_shards:
            raise CheckpointError(
                f"shard checkpoint is for n_patterns={self.n_patterns} "
                f"n_shards={self.n_shards}, run requested "
                f"n_patterns={n_patterns} n_shards={n_shards}"
            )
        if self.fingerprint != fingerprint:
            raise CheckpointError(
                "shard checkpoint fingerprint does not match the current "
                "tree/patterns/model; refusing to splice results from a "
                "different problem"
            )
