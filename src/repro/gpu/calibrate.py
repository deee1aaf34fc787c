"""Calibrate a :class:`~repro.gpu.device.DeviceSpec` from measurements.

The analytical model prices a k-operation launch as

``t(k) = launch_overhead + k * per_op_overhead
       + wave_time * ceil(k * threads_per_op / concurrent_threads)``

On a CPU there is no wave machinery — every "launch" of ``k``
operations simply costs a fixed dispatch overhead plus ``k`` times the
per-operation compute — so measured ``(k, seconds)`` samples fit a
straight line ``t = a + b*k``. :func:`fit_device_spec` runs that
least-squares fit and encodes it as a :class:`DeviceSpec` whose wave
term fires exactly once per operation: ``concurrent_threads`` equals
the workload's ``threads_per_operation``, making ``ceil(k * tpo / ct)``
collapse to ``k``, with ``wave_time_s`` the fitted slope and
``launch_overhead_s`` the fitted intercept.

The payoff: a *measured* execution strategy becomes a first-class
device model — ``SimulatedDevice`` and the ``--rsrc 1``-style analyses
can then extrapolate set-size schedules for hardware-free what-if
studies, priced off real timings instead of the paper's published GP100
numbers. ``benchmarks/bench_set_executor.py`` fits one spec per set-
executor strategy and reads the per-operation/run-step cut-off off the
two lines.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .device import DeviceSpec
from .perfmodel import WorkloadDims

__all__ = ["fit_device_spec"]

# Floors keep the fitted spec inside DeviceSpec's validity domain even
# for degenerate samples (e.g. a flat or decreasing timing curve).
_MIN_SECONDS = 1e-12


def fit_device_spec(
    name: str,
    dims: WorkloadDims,
    samples: Sequence[Tuple[int, float]],
) -> DeviceSpec:
    """Least-squares fit of ``t = a + b*k`` encoded as a device spec.

    Parameters
    ----------
    name:
        Label for the resulting spec (conventionally what was measured,
        e.g. ``"measured:run"``).
    dims:
        The workload the samples were measured on. The fitted spec is
        calibrated *for this shape*: one wave is one operation, so
        re-pricing a different pattern count requires refitting.
    samples:
        ``(set_size, seconds)`` pairs — the measured cost of one launch
        of ``set_size`` operations. At least two distinct set sizes.

    Returns
    -------
    DeviceSpec
        With ``wave_time_s`` the fitted per-operation slope and
        ``launch_overhead_s`` the fitted intercept (both floored to
        stay positive, as the spec's validation requires), and
        ``concurrent_threads == dims.threads_per_operation`` so the
        model's wave count equals the operation count exactly.
    """
    if len(samples) < 2:
        raise ValueError("need at least two (set_size, seconds) samples")
    ks = np.asarray([float(k) for k, _ in samples], dtype=np.float64)
    ts = np.asarray([float(t) for _, t in samples], dtype=np.float64)
    if np.unique(ks).size < 2:
        raise ValueError("samples must cover at least two distinct set sizes")
    if np.any(ts < 0.0):
        raise ValueError("measured seconds must be non-negative")
    design = np.stack([np.ones_like(ks), ks], axis=1)
    (intercept, slope), *_ = np.linalg.lstsq(design, ts, rcond=None)
    return DeviceSpec(
        name=name,
        cuda_cores=dims.threads_per_operation,
        threads_per_core=1,
        launch_overhead_s=max(float(intercept), _MIN_SECONDS),
        wave_time_s=max(float(slope), _MIN_SECONDS),
        per_op_overhead_s=0.0,
    )
