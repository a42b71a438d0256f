"""Shared benchmark helpers.

Every benchmark regenerates one table/figure of the paper via its runner in
``repro.experiments``, asserts the qualitative *shape* the paper reports
(who wins, roughly by how much, where crossovers fall), and writes the full
table to ``results/<experiment>.txt`` for inspection.

``REPRO_BENCH_SCALE`` scales workload footprints (default 0.4 — large
enough for the paper's orderings, small enough that the whole harness runs
in a couple of minutes).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments import table_filename
from repro.workloads.registry import validate_scale

#: Workload footprint scale used by all benchmarks.  Rejects garbage
#: (non-numeric, NaN/inf, <= 0) up front with a clean error instead of
#: building empty or degenerate workloads.
SCALE = validate_scale(os.environ.get("REPRO_BENCH_SCALE", "0.4"),
                       "REPRO_BENCH_SCALE")

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def save_result(result) -> None:
    """Write an ExperimentResult's table under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / table_filename(result.name)).write_text(
        result.to_table() + "\n")


def run_once(benchmark, runner, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(runner, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def scale() -> float:
    return SCALE
