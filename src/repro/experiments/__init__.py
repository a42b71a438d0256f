"""Experiment runners — one module per table/figure of the evaluation.

Every module exposes ``run(scale=..., ...) -> ExperimentResult`` returning
the rows the paper's corresponding table or figure plots, and a ``main()``
that prints them.  The benchmarks in ``benchmarks/`` wrap these runners.
"""

from .common import (
    COMBINATIONS,
    ExperimentResult,
    FailedRun,
    combo_config,
    resolve_workload_names,
    run_settings,
    run_suite_setting,
    table_filename,
)

__all__ = [
    "COMBINATIONS",
    "ExperimentResult",
    "FailedRun",
    "combo_config",
    "resolve_workload_names",
    "run_settings",
    "run_suite_setting",
    "table_filename",
]
