"""The cluster-level chaos harness behind ``repro chaos --cluster``.

One run boots a real coordinator in-process and N real ``repro serve``
shard *processes* (``python -m repro serve --join ...``, thread
workers, each with its own cache and journal), pushes a deterministic
job wave through the coordinator, injects the
:class:`~repro.faultinject.cluster.ClusterFaultProfile`'s faults —
SIGKILL a shard mid-wave, stall heartbeats so a live shard gets
reaped, churn the ring with a mid-wave join — and then asserts the
cluster-wide recovery invariants:

1. **No job lost** — every job submitted through the coordinator
   reaches a terminal state before the deadline, including jobs whose
   shard was SIGKILLed while they were queued or running (failover
   must re-home and re-execute them).
2. **No duplicate terminal state** — coordinator job ids are unique
   and each reaches exactly one terminal result, however many steals
   and failovers it survived.
3. **Byte-identical results** — every served stats payload equals a
   fresh in-process ``repro run --json`` of the same cell, byte for
   byte after canonical JSON encoding.  Routing, stealing, failover,
   and re-execution on a different host must be invisible in the
   payload (simulations are deterministic, so at-least-once execution
   is safe).
4. **Warm cluster** — a second identical wave after the first
   completes must be served from shard run caches (hit rate above
   ``WARM_HIT_RATE`` when the membership did not churn; a mid-wave
   join legitimately cools the keys that re-homed onto the new shard,
   so churn profiles only report the rate).

The report's empty ``violations`` list is the definition of "the
cluster survived"; the CLI exits non-zero otherwise.
"""

from __future__ import annotations

import json
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..analysis.report import format_table
from ..config import oversubscribed
from ..errors import ClusterError, ReproError, ServeClientError
from ..faultinject.cluster import ClusterFaultProfile
from ..serve.client import ServeClient
from ..sweep import SweepCell, execute_cell
from ..workloads import make_workload
from .coordinator import ClusterCoordinator, CoordinatorServer

#: Wall deadline (seconds) for every job of a wave to go terminal.
DEFAULT_DEADLINE = 120.0
#: Required warm-wave cache-hit rate when membership did not churn.
WARM_HIT_RATE = 0.9
#: Heartbeat interval a "stalled" shard is started with: long enough
#: that the coordinator reaps it as silent while it still serves.
STALLED_INTERVAL = 3600.0


def free_port() -> int:
    """One OS-assigned free TCP port (bind-probe; tiny race window)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def build_cluster_cells(workloads: list[str], scale: float,
                        seeds: list[int],
                        oversubscription: float = 110.0
                        ) -> list[SweepCell]:
    """The deterministic job mix: workloads x seeds."""
    cells = []
    for name in workloads:
        workload = make_workload(name, scale=scale)
        for seed in seeds:
            cells.append(SweepCell(
                workload_spec={"name": name, "scale": scale},
                config=oversubscribed(
                    workload.footprint_bytes, oversubscription,
                    seed=seed,
                ),
            ))
    return cells


@dataclass
class ShardProcess:
    """One shard daemon under harness control."""

    shard_id: str
    port: int
    process: subprocess.Popen
    stderr_path: Path
    killed: bool = False
    stalled: bool = False

    @property
    def alive(self) -> bool:
        return self.process.poll() is None


@dataclass
class ClusterChaosReport:
    """What one cluster chaos run injected, observed, and concluded."""

    profile: ClusterFaultProfile
    shards: int = 0
    jobs_total: int = 0
    jobs_done: int = 0
    jobs_failed: int = 0
    shards_killed: int = 0
    shards_stalled: int = 0
    shards_joined_midwave: int = 0
    warm_jobs: int = 0
    warm_hits: int = 0
    parity_checked: int = 0
    metrics: dict = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def warm_hit_rate(self) -> float | None:
        if not self.warm_jobs:
            return None
        return self.warm_hits / self.warm_jobs

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "profile": self.profile.to_dict(),
            "shards": self.shards,
            "jobs_total": self.jobs_total,
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "shards_killed": self.shards_killed,
            "shards_stalled": self.shards_stalled,
            "shards_joined_midwave": self.shards_joined_midwave,
            "warm_jobs": self.warm_jobs,
            "warm_hits": self.warm_hits,
            "warm_hit_rate": self.warm_hit_rate,
            "parity_checked": self.parity_checked,
            "metrics": self.metrics,
            "violations": self.violations,
        }

    def to_table(self) -> str:
        rate = self.warm_hit_rate
        rows = [
            ["shards booted", self.shards],
            ["jobs submitted", self.jobs_total],
            ["jobs done", self.jobs_done],
            ["jobs failed", self.jobs_failed],
            ["shards SIGKILLed", self.shards_killed],
            ["shards heartbeat-stalled", self.shards_stalled],
            ["shards joined mid-wave", self.shards_joined_midwave],
            ["jobs routed",
             self.metrics.get("cluster.jobs_routed", 0)],
            ["jobs stolen",
             self.metrics.get("cluster.jobs_stolen", 0)],
            ["jobs failed over",
             self.metrics.get("cluster.jobs_failed_over", 0)],
            ["warm-wave hit rate",
             "n/a" if rate is None else f"{rate:.2f}"],
            ["parity checks passed",
             self.parity_checked - sum(
                 1 for v in self.violations if "parity" in v)],
            ["invariant violations", len(self.violations)],
        ]
        lines = [format_table(["cluster chaos outcome", "value"], rows,
                              title="cluster chaos run")]
        for violation in self.violations:
            lines.append(f"VIOLATION: {violation}")
        lines.append("cluster chaos: PASS — all invariants hold"
                     if self.ok else "cluster chaos: FAIL")
        return "\n".join(lines)


def _boot_shard(index: int, coordinator_url: str, root: Path,
                workers: int, stalled: bool) -> ShardProcess:
    shard_id = f"chaos-s{index}"
    port = free_port()
    shard_root = root / shard_id
    shard_root.mkdir(parents=True, exist_ok=True)
    stderr_path = shard_root / "serve.err"
    interval = STALLED_INTERVAL if stalled else 0.2
    command = [
        sys.executable, "-m", "repro", "serve",
        "--host", "127.0.0.1", "--port", str(port),
        "--jobs", str(workers), "--worker-mode", "thread",
        "--cache-dir", str(shard_root / "cache"),
        "--journal-dir", str(shard_root / "journal"),
        "--no-events",
        "--join", coordinator_url,
        "--shard-id", shard_id,
        "--heartbeat-interval", str(interval),
    ]
    process = subprocess.Popen(
        command, stdout=subprocess.DEVNULL,
        stderr=stderr_path.open("w"),
        cwd=str(Path(__file__).resolve().parents[2]))
    return ShardProcess(shard_id=shard_id, port=port, process=process,
                        stderr_path=stderr_path, stalled=stalled)


def _wait_registered(coordinator: ClusterCoordinator, want: int,
                     deadline: float) -> bool:
    """Wait until ``want`` shards have *registered* (not necessarily
    still alive: a heartbeat-stalled shard may legitimately be reaped
    before the slowest sibling finishes booting)."""
    limit = time.monotonic() + deadline
    while time.monotonic() < limit:
        if len(coordinator.registry.shards()) >= want:
            return True
        time.sleep(0.05)
    return False


def _wait_terminal(client: ServeClient, job_ids: list[str],
                   deadline: float) -> dict[str, dict]:
    """Long-poll each id until terminal; returns id -> result payload.

    Errors are tolerated until ``deadline`` seconds have passed (a
    shard death surfaces as one while the coordinator fails over); each
    id is asked at least once.
    """
    limit = time.monotonic() + deadline
    results: dict[str, dict] = {}
    for job_id in job_ids:
        while True:
            remaining = max(limit - time.monotonic(), 0.0)
            try:
                results[job_id] = client.result(
                    job_id, wait=min(remaining, client.timeout / 2))
                break
            except ServeClientError:
                if remaining == 0.0:
                    break
    return results


def run_cluster_chaos(
    workloads: list[str],
    scale: float = 0.12,
    seeds: list[int] | None = None,
    profile: ClusterFaultProfile | None = None,
    shards: int = 3,
    workers_per_shard: int = 1,
    deadline: float = DEFAULT_DEADLINE,
    root_dir: str | Path | None = None,
    verbose: bool = False,
) -> ClusterChaosReport:
    """Run the whole cluster harness once; returns the report.

    Real processes everywhere faults land: the coordinator runs
    in-process (it is the observer), the shards are subprocesses so a
    SIGKILL is a real host death, not a mock.
    """
    profile = profile or ClusterFaultProfile()
    seeds = list(seeds) if seeds else [1, 2, 3, 4]
    if shards < 2:
        raise ClusterError(
            f"cluster chaos needs >= 2 shards, got {shards}"
        )
    if profile.kill_shards >= shards:
        raise ClusterError(
            f"profile kills {profile.kill_shards} of {shards} shards; "
            "at least one must survive"
        )

    own_root = root_dir is None
    root = Path(tempfile.mkdtemp(prefix="repro-cluster-chaos-")) \
        if own_root else Path(root_dir)
    report = ClusterChaosReport(profile=profile, shards=shards)
    fleet: list[ShardProcess] = []
    coordinator = ClusterCoordinator(
        seed=profile.seed, heartbeat_timeout=1.5, steal_threshold=2,
        steal_batch=2, verbose=verbose)
    server = CoordinatorServer(coordinator, host="127.0.0.1", port=0)
    server.start_background()
    coordinator.start_maintenance(tick=0.1)
    coordinator_url = f"http://{server.host}:{server.port}"
    try:
        stalled = min(profile.stall_heartbeats, shards - 1)
        report.shards_stalled = stalled
        for index in range(shards):
            fleet.append(_boot_shard(
                index, coordinator_url, root, workers_per_shard,
                stalled=index < stalled))
        if not _wait_registered(coordinator, shards, deadline=30.0):
            raise ClusterError(
                f"only {len(coordinator.registry.shards())} of "
                f"{shards} shards registered within 30s"
            )

        client = ServeClient.from_url(coordinator_url, timeout=10.0,
                                      connect_retries=3)
        cells = build_cluster_cells(workloads, scale, seeds)

        # Deterministic victim choice: rotate the boot order by the
        # profile seed, kill from the front.  Stalled shards are not
        # SIGKILL victims — their whole point is to stay alive while
        # the coordinator reaps them.
        candidates = [shard for shard in fleet if not shard.stalled]
        rotation = profile.seed % max(len(candidates), 1)
        victims = (candidates[rotation:] + candidates[:rotation])
        victims = victims[:profile.kill_shards]

        job_ids: list[str] = []
        kill_at = max(1, min(profile.kill_after_jobs, len(cells)))
        joined_midwave = 0
        for index, cell in enumerate(cells):
            answer = client.submit(cell.workload_spec,
                                   config=cell.config.to_dict())
            job_ids.append(answer["id"])
            if index + 1 == kill_at:
                for victim in victims:
                    victim.process.send_signal(signal.SIGKILL)
                    victim.killed = True
                    report.shards_killed += 1
                    if verbose:
                        print(f"[cluster-chaos] SIGKILLed "
                              f"{victim.shard_id}", file=sys.stderr)
                for extra in range(profile.join_midwave):
                    fleet.append(_boot_shard(
                        shards + extra, coordinator_url, root,
                        workers_per_shard, stalled=False))
                    joined_midwave += 1
        report.shards_joined_midwave = joined_midwave
        report.jobs_total = len(job_ids)

        results = _wait_terminal(client, job_ids, deadline)
        for job_id in job_ids:
            if job_id not in results:
                try:
                    state = client.status(job_id).get("state")
                except ReproError:
                    state = "?"
                report.violations.append(
                    f"lost job: {job_id} not terminal within "
                    f"{deadline:g}s (state {state!r})"
                )

        # Warm wave: identical cells again.  First-wave jobs are
        # terminal, so these mint fresh coordinator jobs that must be
        # served from shard run caches.
        warm_ids = []
        for cell in cells:
            answer = client.submit(cell.workload_spec,
                                   config=cell.config.to_dict())
            warm_ids.append(answer["id"])
        warm_results = _wait_terminal(client, warm_ids, deadline)
        report.warm_jobs = len(warm_ids)
        for job_id in warm_ids:
            payload = warm_results.get(job_id)
            if payload is None:
                report.violations.append(
                    f"lost job: {job_id} (warm wave) not terminal "
                    f"within {deadline:g}s"
                )
            elif payload.get("cache_hit"):
                report.warm_hits += 1

        report.metrics = coordinator.cluster_metrics().get(
            "coordinator", {})
        _check_invariants(report, cells, job_ids, results)
    finally:
        for shard in fleet:
            if shard.alive:
                shard.process.terminate()
        for shard in fleet:
            try:
                shard.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                shard.process.kill()
                shard.process.wait(timeout=10.0)
        server.shutdown()
        server.close()
        if own_root:
            shutil.rmtree(root, ignore_errors=True)
    if verbose:
        print(f"[cluster-chaos] {report.jobs_total} jobs, "
              f"{len(report.violations)} violation(s)",
              file=sys.stderr)
    return report


def _check_invariants(report: ClusterChaosReport,
                      cells: list[SweepCell], job_ids: list[str],
                      results: dict[str, dict]) -> None:
    """Fill ``report`` with terminal counts and invariant violations."""
    if len(set(job_ids)) != len(job_ids):
        report.violations.append("duplicate coordinator job ids issued")
    by_key = {cell.cache_key(): cell for cell in cells}
    for job_id, payload in results.items():
        kind = (payload.get("result") or {}).get("kind")
        if kind == "stats":
            report.jobs_done += 1
        elif kind == "failed":
            report.jobs_failed += 1
            failed = payload["result"]["failed"]
            report.violations.append(
                f"job {job_id} failed: {failed.get('error_type')}: "
                f"{failed.get('message')}"
            )
            continue
        else:
            report.violations.append(
                f"job {job_id} ended {kind!r}, expected stats"
            )
            continue
        # Byte-identical to a fresh in-process run of the same cell.
        key = payload.get("key")
        if key is None:
            # The result payload carries no key; recover it from the
            # coordinator id suffix (c<seq>-<key12>).
            suffix = job_id.rsplit("-", 1)[-1]
            matches = [cell for cache_key, cell in by_key.items()
                       if cache_key.startswith(suffix)]
            cell = matches[0] if len(matches) == 1 else None
        else:
            cell = by_key.get(key)
        if cell is None:
            report.violations.append(
                f"job {job_id}: cannot map back to a submitted cell"
            )
            continue
        report.parity_checked += 1
        baseline, _ = execute_cell(cell, cache=None)
        served = json.dumps(payload["result"]["stats"], sort_keys=True)
        expected = json.dumps(baseline.to_json_dict(), sort_keys=True)
        if served != expected:
            report.violations.append(
                f"parity broken: job {job_id} served stats differ "
                "from a fresh in-process run"
            )

    done_and_failed = report.jobs_done + report.jobs_failed
    lost = sum(1 for v in report.violations if v.startswith("lost job"))
    if done_and_failed + lost != len(set(job_ids)):
        report.violations.append(
            f"terminal-state accounting broken: {report.jobs_done} "
            f"done + {report.jobs_failed} failed + {lost} lost != "
            f"{len(set(job_ids))} unique jobs"
        )

    rate = report.warm_hit_rate
    if rate is not None and not report.profile.join_midwave \
            and rate < WARM_HIT_RATE:
        report.violations.append(
            f"warm wave hit rate {rate:.2f} < {WARM_HIT_RATE} with no "
            "membership churn: shard caches were not reused"
        )
