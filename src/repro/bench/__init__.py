"""Benchmark harness and the synthetictest CLI work-alike."""

from .harness import CaseResult, build_tree, run_case, sweep_random_trees
from .asciiplot import Series, ascii_plot
from .tables import format_table, summarize_interval
from .profiling import (
    ProfileReport,
    kernel_scaling,
    profile_callable,
    profile_likelihood,
)

__all__ = [
    "CaseResult",
    "build_tree",
    "run_case",
    "sweep_random_trees",
    "Series",
    "ascii_plot",
    "format_table",
    "summarize_interval",
    "ProfileReport",
    "profile_callable",
    "profile_likelihood",
    "kernel_scaling",
]
