"""The ``steady`` and ``thrash`` workloads: simulation cells run the way
``repro run --json`` runs them (``make_workload``, then
``UvmRuntime.run_workload``, then ``SimStats.to_json``), once on each
engine.

The cell lists are frozen here rather than read from ``repro.bench`` so
that the benchmark cannot drift when the program's own cell tables do.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

from repro.config import SimulatorConfig, oversubscribed
from repro.runtime import UvmRuntime
from repro.workloads import registry
from repro.workloads.base import AddressResolver

from calibrate import calibration_seconds, scaled

ENGINES = ("reference", "fast")

#: ``SimStats`` counters reported as ``sim.*`` (summed over a workload's
#: cells).  They are simulated quantities: a change that only speeds up
#: the host must leave every one of them unchanged.
SIM_COUNTERS = ("tlb_misses", "far_faults", "fault_batches",
                "pages_migrated", "pages_evicted", "pages_written_back")


@dataclass(frozen=True)
class Cell:
    """One simulation: a workload, a policy pairing and a memory size."""

    name: str
    workload: str
    scale: float
    prefetcher: str
    eviction: str
    #: Footprint as a percentage of device memory, or None for unbounded
    #: device memory.
    oversubscription: float | None = None
    iterations: int | None = None
    #: The workload draws a random graph from ``seed`` (bfs).
    seeded: bool = False

    def workload_kwargs(self, seed: int) -> dict:
        kwargs: dict = {}
        if self.iterations is not None:
            kwargs["iterations"] = self.iterations
        if self.seeded:
            kwargs["seed"] = 12345 + seed
        return kwargs


#: Every access after the first touch hits: the SM issue loop and
#: workload generation do the work.  The pairings are those of the
#: steady cells of ``BENCH_core.json``.
STEADY = (
    Cell("hotspot", "hotspot", 0.5, "sequential-local", "lru4k",
         iterations=24),
    Cell("srad", "srad", 0.5, "tbn", "tbn", iterations=24),
    Cell("kmeans", "kmeans", 0.5, "zheng512", "lru2mb", iterations=24),
)

#: Fault-bound cells at 110-150% over-subscription.  Eviction is per 4 KB
#: page (lru4k) or per 2 MB block (tbn, lru2mb); hotspot, srad and
#: kmeans write back dirty pages while bfs mostly drops clean ones.
THRASH = (
    Cell("hotspot", "hotspot", 0.3, "tbn", "tbn", 110.0, iterations=6),
    Cell("srad", "srad", 0.3, "sequential-local", "lru4k", 125.0,
         iterations=4),
    Cell("kmeans", "kmeans", 0.3, "zheng512", "lru2mb", 150.0,
         iterations=4),
    Cell("bfs", "bfs", 0.3, "tbn", "lru4k", 130.0, seeded=True),
)

CELLS = {"steady": STEADY, "thrash": THRASH}


def build(cell: Cell, engine: str, seed: int):
    """The cell's workload and a fresh runtime for it."""
    workload = registry.make_workload(cell.workload, scale=cell.scale,
                                      **cell.workload_kwargs(seed))
    common = dict(engine=engine, prefetcher=cell.prefetcher,
                  eviction=cell.eviction, seed=seed)
    if cell.oversubscription is None:
        config = SimulatorConfig(**common)
    else:
        config = oversubscribed(workload.footprint_bytes,
                                cell.oversubscription, **common)
    return workload, UvmRuntime(config)


def run_cell(cell: Cell, engine: str, seed: int) -> str:
    """One ``repro run --json`` equivalent; returns the stats JSON."""
    workload, runtime = build(cell, engine, seed)
    return runtime.run_workload(workload).to_json()


def count_accesses(cell: Cell, seed: int) -> int:
    """Warp accesses the cell's kernels issue (generated, not run)."""
    workload, runtime = build(cell, "reference", seed)
    for spec in workload.allocations():
        runtime.malloc_managed(spec.name, spec.size_bytes)
    resolver = AddressResolver(runtime.simulator.allocator)
    return sum(len(warp.accesses)
               for kernel in workload.kernel_specs(resolver)
               for block in kernel.thread_blocks for warp in block.warps)


def digest(stats_json: str) -> str:
    return hashlib.sha256(stats_json.encode("utf-8")).hexdigest()


@dataclass
class PassResult:
    """Timings and outputs of one pass over a workload's cells."""

    seconds: dict
    outputs: dict
    errors: list
    #: Each cell-run's seconds scaled by the calibrations around it.
    scaled: dict

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    @property
    def scaled_total(self) -> float:
        return sum(self.scaled.values())

    def engine_seconds(self, engine: str) -> float:
        return sum(value for (_, eng), value in self.seconds.items()
                   if eng == engine)


def run_pass(cells, seed: int, calibrate: bool = False) -> PassResult:
    """Every cell on every engine, each timed from generation through
    serialization.

    With ``calibrate``, the calibration loop runs before each cell-run
    and after the last, and each cell-run is also reported scaled by the
    two calibrations around it.
    """
    result = PassResult({}, {}, [], {})
    after = calibration_seconds() if calibrate else 0.0
    for cell in cells:
        for engine in ENGINES:
            before = after
            start = time.perf_counter()
            try:
                output = run_cell(cell, engine, seed)
            except Exception as exc:  # a failing cell is counted, not fatal
                result.errors.append(f"{cell.name}/{engine}: "
                                     f"{type(exc).__name__}: {exc}")
                continue
            seconds = time.perf_counter() - start
            result.seconds[(cell.name, engine)] = seconds
            result.outputs[(cell.name, engine)] = output
            if calibrate:
                after = calibration_seconds()
                result.scaled[(cell.name, engine)] = \
                    scaled(seconds, before, after)
    return result


def check_pass(cells, run: PassResult, expected: dict) -> dict:
    """``{cell name: problems}`` for the cells whose output is wrong.

    Both engines must print byte-identical stats.  ``expected`` maps a
    cell name to the SHA-256 its stats must have: the digests recorded
    for the default seed, or those of the run's first pass.
    """
    problems: dict = {}
    for cell in cells:
        outputs = [run.outputs.get((cell.name, engine))
                   for engine in ENGINES]
        if None in outputs:
            continue  # already counted in run.errors
        found = []
        if outputs[0] != outputs[1]:
            found.append(f"{cell.name}: engines disagree")
        want = expected.get(cell.name)
        if want is not None and digest(outputs[0]) != want:
            found.append(f"{cell.name}: stats digest {digest(outputs[0])} "
                         f"differs from recorded {want}")
        if found:
            problems[cell.name] = found
    return problems


def sim_values(cells, run: PassResult) -> dict:
    """``sim.*`` values summed over the cells (reference outputs)."""
    totals = {f"sim.{name}": 0 for name in SIM_COUNTERS}
    totals["sim.kernel_time_ns"] = 0.0
    for cell in cells:
        output = run.outputs.get((cell.name, "reference"))
        if output is None:
            continue
        stats = json.loads(output)
        for name in SIM_COUNTERS:
            totals[f"sim.{name}"] += stats[name]
        totals["sim.kernel_time_ns"] += sum(stats["kernel_times_ns"])
    return totals
