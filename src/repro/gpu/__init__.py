"""Simulated-GPU substrate: device specs and the analytical timing model."""

from .calibrate import fit_device_spec
from .device import GP100, QUADRO_P5000, SMALL_GPU, DeviceSpec
from .perfmodel import (
    launch_time_mixed,
    EvaluationTiming,
    LaunchTiming,
    WorkloadDims,
    launch_time,
    time_set_sizes,
)
from .streams import (
    ASYNC_ISSUE_FRACTION,
    streams_set_time,
    streams_time_set_sizes,
)
from .simulator import SimulatedDevice, simulate_tree, simulated_speedup

__all__ = [
    "DeviceSpec",
    "GP100",
    "QUADRO_P5000",
    "SMALL_GPU",
    "WorkloadDims",
    "LaunchTiming",
    "EvaluationTiming",
    "launch_time",
    "launch_time_mixed",
    "time_set_sizes",
    "ASYNC_ISSUE_FRACTION",
    "streams_set_time",
    "streams_time_set_sizes",
    "SimulatedDevice",
    "simulate_tree",
    "simulated_speedup",
    "fit_device_spec",
]
