"""The ``tune`` workload: one ``repro tune --include-learned`` grid search
at one over-subscription level, on a cold run cache each time."""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import repro.tune as tune_api
from repro.runtime import UvmRuntime
from repro.sweep import sweep_context
from repro.sweep.cache import RunCache
from repro.workloads import registry

from calibrate import calibration_seconds, scaled

WORKLOAD = "srad"
SCALE = 0.15
PERCENT = 125.0


def request(seed: int) -> tune_api.TuneRequest:
    space = tune_api.SearchSpace(percents=(PERCENT,),
                                 pairings=tune_api.pairings_axis(True))
    return tune_api.TuneRequest(workload=WORKLOAD, scale=SCALE,
                                space=space, seed=seed)


def first_cell_ready(seed: int) -> UvmRuntime:
    """Build the runtime of the search's first candidate (set-up)."""
    cell = request(seed).space.candidates()[0].cell(
        WORKLOAD, SCALE, PERCENT, seed=seed)
    registry.make_workload(**cell.workload_spec)
    return UvmRuntime(cell.config)


@dataclass
class TuneOutcome:
    seconds: float
    card: str
    evaluations: int
    cache_hits: int
    cache_misses: int
    #: ``seconds`` at reference host speed (see calibrate.py).
    scaled: float = 0.0


class _CalibratingCache(RunCache):
    """A run cache that times the calibration loop after each store.

    The tuner stores every cell it executes, so the calibrations fall
    between cells, as they do between the cell-runs of ``steady``.
    ``marks`` holds the (start, end) of each calibration.
    """

    def __init__(self, root: Path) -> None:
        super().__init__(root)
        self.marks: list[tuple[float, float]] = []

    def store(self, key, cell, result) -> None:
        super().store(key, cell, result)
        start = time.perf_counter()
        calibration_seconds()
        self.marks.append((start, time.perf_counter()))


def tune_once(seed: int, cache_dir: Path,
              calibrate: bool = False) -> TuneOutcome:
    """One ``tune_workload`` call on an empty cache directory.

    With ``calibrate``, the calibration loop also runs before and after
    the call and after each cell; their time is left out of ``seconds``
    and each stretch between two calibrations is scaled by them.
    """
    req = request(seed)
    cache = _CalibratingCache(cache_dir) if calibrate else RunCache(cache_dir)
    before = calibration_seconds() if calibrate else 0.0
    with sweep_context(jobs=1, cache=cache):
        start = time.perf_counter()
        card = tune_api.tune_workload(req)
        end = time.perf_counter()
    evaluations = sum(level["evaluations"]
                      for level in card["recommendations"])
    outcome = TuneOutcome(end - start, tune_api.card_json(card),
                          evaluations, cache.hits, cache.misses)
    if calibrate:
        marks = cache.marks + [(end, end + calibration_seconds())]
        outcome.seconds -= sum(b - a for a, b in cache.marks)
        resumed, previous = start, before
        for mark_start, mark_end in marks:
            current = mark_end - mark_start
            outcome.scaled += scaled(mark_start - resumed, previous, current)
            resumed, previous = mark_end, current
    return outcome


def digest(card_text: str) -> str:
    return hashlib.sha256(card_text.encode("utf-8")).hexdigest()
