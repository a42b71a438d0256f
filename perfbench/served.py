"""The ``served`` workload: an open-loop stream of small cells against a
``repro serve`` daemon.

Arrivals are due at a fixed rate whatever the daemon does, and each
job's latency runs from when it was due, so a stall also charges the
jobs queued behind it.  Cells are drawn from a catalog with zipf
popularity, so cache hits sit beside misses.  All load comes from this
process: the main thread submits and one waiter thread calls
``ServeClient.wait``, so at most two connections are open.  The daemon
runs two worker processes, and its run cache, journal and event log live
in a directory of its own that is removed afterwards.
"""

from __future__ import annotations

import json
import math
import os
import queue
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import BackpressureError, ServeClientError
from repro.serve.api import build_cell
from repro.serve.client import ServeClient
from repro.serve.events import ServeEventLog
from repro.sweep.executor import execute_cell

from summary import percentile

#: Daemon worker processes: two, or fewer on a smaller host.
WORKERS = min(2, os.cpu_count() or 1)
RATE = 10.0
MIN_JOBS = 110
DISTINCT = 24
ZIPF_S = 1.1
CATALOG_WORKLOADS = ("hotspot", "srad", "bfs", "backprop")
SCALE = 0.06
#: How long after the last arrival every job must have ended.
DRAIN_SECONDS = 30.0
BOOT_SECONDS = 60.0


def catalog(seed: int) -> list[dict]:
    """One job spec per popularity rank (rank 0 is the hottest)."""
    return [{"workload": {"name": CATALOG_WORKLOADS[rank % 4],
                          "scale": SCALE},
             "seed": seed * 1000 + rank}
            for rank in range(DISTINCT)]


def schedule(seed: int, seconds: float) -> list[tuple[float, int]]:
    """``(due seconds after start, catalog rank)`` for every arrival."""
    count = max(MIN_JOBS, math.ceil(RATE * seconds))
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(DISTINCT)]
    ranks = random.Random(seed).choices(range(DISTINCT), weights=weights,
                                        k=count)
    return [(index / RATE, rank) for index, rank in enumerate(ranks)]


class Daemon:
    """A ``repro serve`` process with its state under ``workdir``."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True)
        self.log_path = workdir / "serve.err"
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--jobs", str(WORKERS),
                   "--cache-dir", str(workdir / "cache"),
                   "--journal-dir", str(workdir / "journal"),
                   "--events-dir", str(workdir / "events")]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        start = time.perf_counter()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                command, cwd=root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log)
        try:
            self.port = self._await_port(start + BOOT_SECONDS)
            self.client = ServeClient(port=self.port, timeout=10.0,
                                      backpressure_retries=0)
            self._await_healthy(start + BOOT_SECONDS)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _await_port(self, deadline: float) -> int:
        while time.perf_counter() < deadline:
            match = re.search(r"listening on http://[^:]+:(\d+)",
                              self.log_path.read_text(encoding="utf-8"))
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited: {self.log_text()}")
            time.sleep(0.002)
        raise RuntimeError("daemon did not announce its port")

    def _await_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                if self.client.healthz().get("status") == "ok":
                    return
            except ServeClientError:
                pass
            time.sleep(0.002)
        raise RuntimeError("daemon never reported healthy")

    def log_text(self) -> str:
        return self.log_path.read_text(encoding="utf-8")

    def stop(self) -> bool:
        """SIGTERM drain; True if the daemon drained and exited 0."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        return self.process.returncode == 0 and "drained" in self.log_text()

    def events(self) -> list[dict]:
        return ServeEventLog.read(self.workdir / "events")


@dataclass
class Job:
    due: float
    rank: int
    late: float
    job_id: str | None = None
    latency: float | None = None
    outcome: dict | None = None
    error: str | None = None


@dataclass
class StreamResult:
    jobs: list = field(default_factory=list)
    metrics_before: dict = field(default_factory=dict)
    metrics_after: dict = field(default_factory=dict)

    @property
    def latencies(self) -> list[float]:
        return [job.latency for job in self.jobs if job.latency is not None]


def run_stream(daemon: Daemon, seed: int, seconds: float) -> StreamResult:
    """Submit the seeded schedule on time; wait for every job."""
    client = daemon.client
    specs = catalog(seed)
    arrivals = schedule(seed, seconds)
    result = StreamResult(metrics_before=client.metrics())
    pending: queue.Queue = queue.Queue()
    deadline = time.monotonic() + arrivals[-1][0] + DRAIN_SECONDS

    def waiter() -> None:
        while (job := pending.get()) is not None:
            try:
                job.outcome = client.wait(
                    job.job_id,
                    timeout=max(0.1, deadline - time.monotonic()))
                job.latency = time.monotonic() - job.due
            except ServeClientError as exc:
                job.error = f"wait: {exc}"

    thread = threading.Thread(target=waiter, name="perfbench-waiter")
    thread.start()
    try:
        start = time.monotonic()
        for at, rank in arrivals:
            due = start + at
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            job = Job(due=due, rank=rank, late=time.monotonic() - due)
            result.jobs.append(job)
            try:
                job.job_id = client.submit(**specs[rank])["id"]
            except BackpressureError as exc:
                job.error = f"refused: {exc}"
                continue
            except ServeClientError as exc:
                job.error = f"submit: {exc}"
                continue
            pending.put(job)
    finally:
        pending.put(None)
        thread.join()
    result.metrics_after = client.metrics()
    for job in result.jobs:
        if job.error is None and job.outcome.get("state") != "done":
            job.error = f"ended {job.outcome.get('state')}"
    return result


def check_results(seed: int, stream: StreamResult) -> list[str]:
    """Every job of a rank returns the same stats, equal to the stats
    the same cell gives when run in this process."""
    specs = catalog(seed)
    by_rank: dict[int, set] = {}
    for job in stream.jobs:
        if job.error is None:
            stats = job.outcome["result"].get("stats")
            by_rank.setdefault(job.rank, set()).add(
                json.dumps(stats, sort_keys=True))
    problems = []
    for rank, outputs in sorted(by_rank.items()):
        local, _ = execute_cell(build_cell(specs[rank]))
        expected = json.dumps(local.to_json_dict(), sort_keys=True)
        if outputs != {expected}:
            problems.append(f"rank {rank}: served stats differ from a "
                            f"local run")
    return problems


def phase_seconds(events: list[dict]) -> dict:
    """Per-job phase durations from the daemon's own event log."""
    stamps: dict[str, dict] = {}
    for event in events:
        job = event.get("job")
        if job is not None:
            stamps.setdefault(job, {}).setdefault(event["kind"],
                                                  event["ts"])
    phases = {"queue_wait": [], "dispatch": [], "execute": []}
    for seen in stamps.values():
        for phase, (first, last) in (("queue_wait", ("submitted", "leased")),
                                     ("dispatch", ("leased", "executing")),
                                     ("execute", ("executing", "terminal"))):
            if first in seen and last in seen:
                phases[phase].append(seen[last] - seen[first])
    return phases


def delta(stream: StreamResult, name: str) -> int:
    return int(stream.metrics_after.get(name, 0)) \
        - int(stream.metrics_before.get(name, 0))


def layer_values(stream: StreamResult, events: list[dict]) -> dict:
    """``serve.*`` metrics read from outside the daemon."""
    phases = phase_seconds(events)
    hits = delta(stream, "serve.cache_hits")
    misses = delta(stream, "serve.cache_misses")
    accepted = sum(1 for job in stream.jobs if job.job_id is not None)
    values = {
        f"serve.{phase}_s.p50": percentile(samples, 50) if samples else 0.0
        for phase, samples in phases.items()}
    values["serve.cache_hit_ratio"] = hits / (hits + misses) \
        if hits + misses else 0.0
    values["serve.coalesce_ratio"] = \
        delta(stream, "serve.jobs_coalesced") / accepted if accepted else 0.0
    values["serve.generator_late_s.max"] = max(
        (job.late for job in stream.jobs), default=0.0)
    return values
