"""Shared infrastructure for the paper-reproduction benchmarks.

Each ``bench_*.py`` file regenerates one table or figure of the paper and
measures the computational kernel behind it with pytest-benchmark. Result
tables are echoed to stdout, so ``pytest benchmarks/ --benchmark-only -s``
shows them inline; they are written to ``bench_results/`` (markdown) only
under ``--write-results``, so a routine run leaves the tracked tables as
they are. A table re-measured for EXPERIMENTS records the median of its
runs, not the last one.

Scale: by default the sweeps run at a reduced size so the whole suite
finishes in well under a minute. Set ``REPRO_FULL=1`` to reproduce the
paper's full sample sizes (1,000 random trees, 4,096-OTU trees).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "bench_results"

#: Full-scale reproduction toggle (paper sample sizes).
FULL = os.environ.get("REPRO_FULL", "") not in ("", "0")


#: Whether :func:`emit` writes its table (``--write-results``).
WRITE_RESULTS = False


def pytest_addoption(parser):
    parser.addoption(
        "--write-results",
        action="store_true",
        help="write each result table to bench_results/ as well as echoing it",
    )


def pytest_configure(config):
    global WRITE_RESULTS
    WRITE_RESULTS = config.getoption("--write-results", default=False)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def full_scale() -> bool:
    return FULL


def emit(results_dir: Path, name: str, text: str) -> None:
    """Echo a result table; under ``--write-results`` also write it to
    ``results_dir / name``."""
    if WRITE_RESULTS:
        (results_dir / name).write_text(text)
    print()
    print(text)
