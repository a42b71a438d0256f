"""The chaos harness behind ``repro chaos`` and ``repro chaos --cluster``.

One run boots a real topology, pushes a deterministic job mix through
it while the profile's faults land, and *asserts* the recovery
invariants.  The profile's type picks the topology: a
:class:`ServiceFaultProfile` gets one process-mode service in-process,
whose workers die, wedge and corrupt cache entries as told; a
:class:`ClusterFaultProfile` gets an in-process coordinator plus real
``repro serve --join`` shard subprocesses to SIGKILL, stall and join.

Both run two waves: every cell (the cluster strikes after
``kill_after_jobs`` submissions), then every non-poison cell again as
the *reuse wave*.  Each topology answers with the
``GET /v1/jobs/<id>/result`` payload, and one checker covers both
waves: no job lost; no duplicate id and exactly one terminal state per
job; every non-poison result byte-identical to a fresh fault-free run
of its cell (``repro run --json`` parity); every poison job (config
seed in ``poison_seeds``) failed with ``PoisonJobError`` after exactly
``max_attempts`` lease grants.  Each topology adds its own: the
service's journal and lease WAL are clean after the drain, planted
corrupt journal files were quarantined, and corrupting every store
tripped the cache quarantine; the cluster's reuse wave hits shard
caches unless a mid-wave join re-homed keys.  An empty ``violations``
list means the topology survived; the CLI exits non-zero otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from .analysis.report import format_table
from .cluster.coordinator import ClusterCoordinator, CoordinatorServer
from .config import oversubscribed
from .errors import ClusterError, ServeClientError, ServeError
from .faultinject import ClusterFaultProfile, ServiceFaultProfile
from .serve.api import result_payload
from .serve.client import ServeClient
from .serve.journal import JOURNAL_FORMAT, JobJournal
from .serve.queue import Job
from .serve.server import SimulationService
from .serve.supervisor import FleetOptions
from .sweep import RunCache, SweepCell, execute_cell
from .workloads import make_workload

#: Default per-wave wall deadline (seconds) for all jobs to go terminal.
DEFAULT_DEADLINE = 120.0
#: Required reuse-wave cache-hit rate of a cluster whose membership did
#: not churn.
WARM_HIT_RATE = 0.9
#: Heartbeat interval a "stalled" shard is started with: long enough
#: that the coordinator reaps it as silent while it still serves.
STALLED_INTERVAL = 3600.0
#: Seconds every booted shard gets to register with the coordinator.
BOOT_TIMEOUT = 30.0

#: Report rows each topology adds: (label, report field or metric name).
_TABLE_ROWS = {
    ServiceFaultProfile: (
        ("poison jobs quarantined", "serve.jobs_quarantined"),
        ("worker restarts", "serve.worker_restarts"),
        ("lease revocations", "serve.lease_revocations"),
        ("cache entries quarantined", "serve.cache_entries_quarantined"),
        ("journal entries quarantined",
         "serve.journal_entries_quarantined"),
    ),
    ClusterFaultProfile: (
        ("shards booted", "shards"),
        ("shards SIGKILLed", "shards_killed"),
        ("shards heartbeat-stalled", "shards_stalled"),
        ("shards joined mid-wave", "shards_joined_midwave"),
        ("jobs routed", "cluster.jobs_routed"),
        ("jobs stolen", "cluster.jobs_stolen"),
        ("jobs failed over", "cluster.jobs_failed_over"),
    ),
}


def build_chaos_cells(workloads: list[str], scale: float, seeds: list[int],
                      profile: ServiceFaultProfile | ClusterFaultProfile,
                      oversubscription: float = 110.0) -> list[SweepCell]:
    """The deterministic job mix: workloads x (seeds + poison seeds).

    A service profile's poison seeds are appended so the quarantine
    path is always exercised when the profile defines one.
    """
    poison = getattr(profile, "poison_seeds", ())
    all_seeds = list(seeds) + [s for s in poison if s not in seeds]
    cells = []
    for name in workloads:
        footprint = make_workload(name, scale=scale).footprint_bytes
        cells += [SweepCell(workload_spec={"name": name, "scale": scale},
                            config=oversubscribed(footprint, oversubscription,
                                                  seed=seed))
                  for seed in all_seeds]
    return cells


def _is_poison(profile, cell: SweepCell) -> bool:
    return cell.config.seed in getattr(profile, "poison_seeds", ())


@dataclass
class ChaosReport:
    """What one chaos run injected, observed, and concluded."""

    profile: ServiceFaultProfile | ClusterFaultProfile
    #: Jobs of both waves.
    jobs_total: int = 0
    jobs_done: int = 0
    jobs_failed: int = 0
    #: Jobs of the reuse wave, and how many of them hit the run cache.
    jobs_rerun: int = 0
    warm_hits: int = 0
    poison_jobs: int = 0
    parity_checked: int = 0
    # --- service topology ---
    planted_journal_corruption: int = 0
    # --- cluster topology ---
    shards: int = 0
    shards_killed: int = 0
    shards_stalled: int = 0
    shards_joined_midwave: int = 0
    metrics: dict = field(default_factory=dict)
    #: Invariant violations; empty means the topology survived.
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def warm_hit_rate(self) -> float | None:
        return self.warm_hits / self.jobs_rerun if self.jobs_rerun else None

    def to_json_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data.update(ok=self.ok, profile=self.profile.to_dict(),
                    warm_hit_rate=self.warm_hit_rate)
        return data

    def to_table(self) -> str:
        rate = self.warm_hit_rate
        rows = [
            ["jobs submitted", self.jobs_total],
            ["jobs done", self.jobs_done],
            ["jobs failed", self.jobs_failed],
            ["reuse-wave jobs", self.jobs_rerun],
            ["reuse-wave hit rate", "n/a" if rate is None else f"{rate:.2f}"],
        ]
        for label, source in _TABLE_ROWS[type(self.profile)]:
            rows.append([label, self.metrics.get(source, 0) if "." in source
                         else getattr(self, source)])
        broken = sum(1 for v in self.violations if "parity" in v)
        rows += [["parity checks passed", self.parity_checked - broken],
                 ["invariant violations", len(self.violations)]]
        lines = [format_table(["chaos outcome", "value"], rows,
                              title="chaos run")]
        lines += [f"VIOLATION: {violation}" for violation in self.violations]
        lines.append("chaos: PASS — all recovery invariants hold"
                     if self.ok else "chaos: FAIL")
        return "\n".join(lines)


@dataclass
class _Service:
    """One process-mode daemon, in-process."""

    profile: ServiceFaultProfile
    workers: int
    max_attempts: int
    job_timeout: float
    deadline: float
    verbose: bool
    service: SimulationService | None = None
    jobs: dict[str, Job] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.profile.stall_every_jobs and self.job_timeout <= 0:
            raise ServeError(
                "profile stalls workers; a --job-timeout > 0 is required "
                "so the supervisor can kill them"
            )

    def boot(self, root: Path, report: ChaosReport) -> None:
        journal_dir = root / "journal"
        report.planted_journal_corruption = _plant_corrupt_journal(
            journal_dir, self.profile.truncate_journal_entries)
        fleet = FleetOptions(
            max_attempts=self.max_attempts,
            job_timeout=self.job_timeout,
            heartbeat_timeout=max(5.0, self.job_timeout * 2)
            if self.job_timeout else 30.0,
            heartbeat_interval=0.1,
            backoff_base=0.01,
            backoff_cap=0.1,
            fault_profile=self.profile if self.profile.injects_anything
            else None,
        )
        self.service = SimulationService(
            jobs=self.workers, cache=RunCache(root / "cache"),
            journal=JobJournal(journal_dir), verbose=self.verbose,
            worker_mode="process", fleet=fleet)
        self.service.start()

    def submit(self, cell: SweepCell) -> str | None:
        job, coalesced = self.service.submit(cell)
        self.jobs[job.id] = job
        return None if coalesced else job.id

    def submitted(self, count: int, total: int,
                  report: ChaosReport) -> None:
        """Service faults live in the workers; nothing to inject here."""

    def result(self, job_id: str, timeout: float) -> dict | None:
        job = self.jobs[job_id]
        if not job.wait(timeout=timeout):
            return None
        return dict(result_payload(job), attempts=job.attempts)

    def check(self, report: ChaosReport) -> None:
        """Drain, then the clean-journal and self-healing invariants."""
        self.service.drain(timeout=self.deadline)
        report.metrics = metrics = self.service.metrics_snapshot()
        journal = self.service.journal
        leftover = sorted(path.name for path in journal.root.glob("*.json"))
        leases = sorted(entry["id"] for entry in journal.load_leases())
        quarantined = metrics.get("serve.journal_entries_quarantined", 0)
        planted = report.planted_journal_corruption
        if leftover:
            report.violations.append(
                f"journal not clean after drain: {leftover}")
        if leases:
            report.violations.append(
                f"lease WAL not clean after drain: {leases}")
        if quarantined < planted:
            report.violations.append(
                f"only {quarantined} of {planted} planted corrupt "
                "journal entries were quarantined")
        # With every store corrupted, the reuse wave must have tripped
        # the quarantine-and-reexecute path at least once (the parity
        # check proves the healed results are right).
        if self.profile.corrupt_cache_every == 1 and report.jobs_rerun \
                and not metrics.get("serve.cache_entries_quarantined", 0):
            report.violations.append(
                "profile corrupts every cache store, the reuse wave ran, "
                "but no cache entry was quarantined")

    def close(self) -> None:
        if self.service is not None:
            self.service.drain(timeout=self.deadline)


def _plant_corrupt_journal(journal_dir: Path, count: int) -> int:
    """Drop ``count`` torn/garbage journal files for boot to survive."""
    journal_dir.mkdir(parents=True, exist_ok=True)
    for index in range(count):
        path = journal_dir / f"zz-corrupt-{index:02d}.json"
        if index % 2 == 0:
            # Torn write: valid prefix, truncated mid-document.
            document = json.dumps({"format": JOURNAL_FORMAT,
                                   "id": f"torn-{index}", "seq": 10**6})
            path.write_text(document[:len(document) // 2])
        else:
            path.write_text("not json at all\x00")
    return count


@dataclass
class _Cluster:
    """An in-process coordinator in front of shard subprocesses."""

    profile: ClusterFaultProfile
    shards: int
    workers_per_shard: int
    verbose: bool
    #: Shard daemons in boot order; shard ``i`` is ``chaos-s<i>``.
    fleet: list[subprocess.Popen] = field(default_factory=list)
    server: CoordinatorServer | None = None

    def __post_init__(self) -> None:
        if self.shards < 2:
            raise ClusterError(
                f"cluster chaos needs >= 2 shards, got {self.shards}")
        if self.profile.kill_shards >= self.shards:
            raise ClusterError(
                f"profile kills {self.profile.kill_shards} of "
                f"{self.shards} shards; at least one must survive")

    def boot(self, root: Path, report: ChaosReport) -> None:
        self.root = root
        self.coordinator = ClusterCoordinator(
            seed=self.profile.seed, heartbeat_timeout=1.5,
            steal_threshold=2, steal_batch=2, verbose=self.verbose)
        self.server = CoordinatorServer(self.coordinator, host="127.0.0.1",
                                        port=0)
        self.server.start_background()
        self.coordinator.start_maintenance(tick=0.1)
        self.url = f"http://{self.server.host}:{self.server.port}"
        report.shards = self.shards
        report.shards_stalled = min(self.profile.stall_heartbeats,
                                    self.shards - 1)
        for index in range(self.shards):
            self._boot_shard(stalled=index < report.shards_stalled)
        self._wait_registered()
        self.client = ServeClient.from_url(self.url, timeout=10.0,
                                           connect_retries=3)

    def _boot_shard(self, stalled: bool) -> None:
        shard_id = f"chaos-s{len(self.fleet)}"
        shard_root = self.root / shard_id
        shard_root.mkdir(parents=True, exist_ok=True)
        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",  # registers its real port
            "--jobs", str(self.workers_per_shard), "--worker-mode", "thread",
            "--cache-dir", str(shard_root / "cache"),
            "--journal-dir", str(shard_root / "journal"), "--no-events",
            "--join", self.url, "--shard-id", shard_id,
            "--heartbeat-interval", str(STALLED_INTERVAL if stalled else 0.2),
        ]
        with (shard_root / "serve.err").open("w") as stderr:
            self.fleet.append(subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=stderr,
                cwd=str(Path(__file__).resolve().parents[1])))

    def _wait_registered(self) -> None:
        """Wait until every shard has *registered* (a heartbeat-stalled
        shard may already be reaped again); a shard that exits instead
        fails the boot at once."""
        limit = time.monotonic() + BOOT_TIMEOUT
        while len(self.coordinator.registry.shards()) < self.shards:
            for index, process in enumerate(self.fleet):
                if process.poll() is not None:
                    err = self.root / f"chaos-s{index}" / "serve.err"
                    tail = err.read_text(errors="replace").splitlines()[-5:]
                    raise ClusterError(
                        f"shard chaos-s{index} exited with code "
                        f"{process.returncode} during boot: "
                        + " | ".join(tail))
            if time.monotonic() >= limit:
                raise ClusterError(
                    f"only {len(self.coordinator.registry.shards())} of "
                    f"{self.shards} shards registered within "
                    f"{BOOT_TIMEOUT:g}s")
            time.sleep(0.05)

    def submit(self, cell: SweepCell) -> str | None:
        answer = self.client.submit(cell.workload_spec,
                                    config=cell.config.to_dict())
        return None if answer.get("coalesced") else answer["id"]

    def submitted(self, count: int, total: int,
                  report: ChaosReport) -> None:
        """SIGKILL the victims and boot the joiners at the kill point."""
        if count != max(1, min(self.profile.kill_after_jobs, total)):
            return
        # Deterministic victims: the boot order rotated by the seed.
        # Stalled shards (booted first) are spared — their whole point
        # is to stay alive while the coordinator reaps them.
        candidates = list(range(report.shards_stalled, len(self.fleet)))
        rotation = self.profile.seed % max(len(candidates), 1)
        victims = candidates[rotation:] + candidates[:rotation]
        for index in victims[:self.profile.kill_shards]:
            self.fleet[index].send_signal(signal.SIGKILL)
            report.shards_killed += 1
            if self.verbose:
                print(f"[chaos] SIGKILLed chaos-s{index}", file=sys.stderr)
        for _ in range(self.profile.join_midwave):
            self._boot_shard(stalled=False)
            report.shards_joined_midwave += 1

    def result(self, job_id: str, timeout: float) -> dict | None:
        """Long-poll until terminal.  A shard death can surface as an
        error while the coordinator fails over, so errors are retried
        until the timeout (the job is asked at least once)."""
        limit = time.monotonic() + timeout
        while True:
            remaining = max(limit - time.monotonic(), 0.0)
            try:
                return self.client.result(
                    job_id, wait=min(remaining, self.client.timeout / 2))
            except ServeClientError:
                if remaining == 0.0:
                    return None

    def check(self, report: ChaosReport) -> None:
        """The warm-cluster invariant."""
        report.metrics = self.coordinator.cluster_metrics().get(
            "coordinator", {})
        rate = report.warm_hit_rate
        if rate is not None and rate < WARM_HIT_RATE \
                and not self.profile.join_midwave:
            report.violations.append(
                f"reuse wave hit rate {rate:.2f} < {WARM_HIT_RATE} with "
                "no membership churn: shard caches were not reused")

    def close(self) -> None:
        for process in self.fleet:
            if process.poll() is None:
                process.terminate()
        for process in self.fleet:
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10.0)
        if self.server is not None:
            self.server.shutdown()
            self.server.close()


def run_chaos(
    workloads: list[str], scale: float = 0.12,
    seeds: list[int] | None = None,
    profile: ServiceFaultProfile | ClusterFaultProfile | None = None,
    workers: int = 2, max_attempts: int = 3, job_timeout: float = 0.0,
    shards: int = 3, workers_per_shard: int = 1,
    deadline: float = DEFAULT_DEADLINE,
    root_dir: str | Path | None = None, verbose: bool = False,
) -> ChaosReport:
    """Run the whole harness once and return the invariant report.

    A :class:`ClusterFaultProfile` runs the cluster topology (``shards``
    daemons of ``workers_per_shard`` workers); anything else runs the
    service topology (``workers`` processes, ``max_attempts`` lease
    grants, and a ``job_timeout`` that must be > 0 when the profile
    stalls workers).  ``root_dir`` holds every cache and journal (a
    temp dir is created and removed when None).
    """
    profile = profile or ServiceFaultProfile()
    if isinstance(profile, ClusterFaultProfile):
        topology = _Cluster(profile, shards, workers_per_shard, verbose)
    else:
        topology = _Service(profile, workers, max_attempts, job_timeout,
                            deadline, verbose)
    cells = build_chaos_cells(workloads, scale, seeds or [1, 2], profile)
    root = Path(root_dir) if root_dir is not None \
        else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    report = ChaosReport(profile=profile)
    try:
        topology.boot(root, report)
        run_waves(topology, cells, report, deadline, max_attempts)
    finally:
        topology.close()
        if root_dir is None:
            shutil.rmtree(root, ignore_errors=True)
    if verbose:
        print(f"[chaos] {report.jobs_total} jobs, "
              f"{len(report.violations)} violation(s)", file=sys.stderr)
    return report


def run_waves(topology, cells: list[SweepCell], report: ChaosReport,
              deadline: float, max_attempts: int) -> None:
    """Both waves through a booted ``topology``, then every check.

    A topology ``submit``s a cell (its job id, or None when the
    submission coalesced), hears ``submitted`` after each first-wave
    submission (its chance to inject faults), answers ``result`` within
    a timeout (the result payload, or None when not terminal), and
    ``check``s its own invariants.
    """
    results: dict[str, dict] = {}

    def wave(cells: list[SweepCell], first: bool) -> list[tuple]:
        submitted = []  # ids map to their cells at submit time
        for count, cell in enumerate(cells, 1):
            job_id = topology.submit(cell)
            if job_id is not None:
                submitted.append((job_id, cell))
            if first:
                topology.submitted(count, len(cells), report)
        label = "" if first else " (reuse wave)"
        limit = time.monotonic() + deadline
        for job_id, _ in submitted:
            payload = topology.result(job_id,
                                      max(limit - time.monotonic(), 0))
            if payload is None:
                report.violations.append(f"lost job: {job_id}{label} not "
                                         f"terminal within {deadline:g}s")
            else:
                results[job_id] = payload
        return submitted

    first = wave(cells, first=True)
    second = wave([cell for cell in cells
                   if not _is_poison(report.profile, cell)], first=False)
    report.jobs_total = len(first) + len(second)
    report.jobs_rerun = len(second)
    report.warm_hits = sum(1 for job_id, _ in second
                           if results.get(job_id, {}).get("cache_hit"))
    report.poison_jobs = sum(1 for _, cell in first
                             if _is_poison(report.profile, cell))
    topology.check(report)
    _check_invariants(report, first + second, results, max_attempts)


def _check_invariants(report: ChaosReport,
                      submitted: list[tuple[str, SweepCell]],
                      results: dict[str, dict], max_attempts: int) -> None:
    """Fill ``report`` with terminal counts and invariant violations."""
    unique = dict(submitted)
    if len(unique) != len(submitted):
        report.violations.append("duplicate job ids issued")
    baselines: dict[str, str] = {}
    for job_id, cell in unique.items():
        payload = results.get(job_id)
        if payload is None:  # lost, already flagged
            continue
        kind = payload["result"]["kind"]
        failed = payload["result"].get("failed") or {}
        if kind == "stats":
            report.jobs_done += 1
        elif kind == "failed":
            report.jobs_failed += 1
        if _is_poison(report.profile, cell):
            if failed.get("error_type") != "PoisonJobError":
                report.violations.append(
                    f"poison job {job_id} not quarantined: ended {kind!r}")
            elif payload.get("attempts") != max_attempts:
                report.violations.append(
                    f"poison job {job_id} quarantined after "
                    f"{payload.get('attempts')} attempt(s), expected "
                    f"{max_attempts}")
            continue
        if kind != "stats":
            detail = f": {failed.get('error_type')}: " \
                f"{failed.get('message')}" if failed else ""
            report.violations.append(
                f"job {job_id} ended {kind!r}, expected stats{detail}")
            continue
        # Byte-identical to a fresh fault-free in-process run; one
        # baseline per distinct cell serves both waves.
        report.parity_checked += 1
        key = cell.cache_key()
        if key not in baselines:
            baseline, _ = execute_cell(cell, cache=None)
            baselines[key] = json.dumps(baseline.to_json_dict(),
                                        sort_keys=True)
        if json.dumps(payload["result"]["stats"],
                      sort_keys=True) != baselines[key]:
            report.violations.append(
                f"parity broken: job {job_id} served stats differ from "
                "a fresh fault-free run")
    lost = sum(1 for job_id in unique if job_id not in results)
    if report.jobs_done + report.jobs_failed + lost != len(unique):
        report.violations.append(
            f"terminal-state accounting broken: {report.jobs_done} done "
            f"+ {report.jobs_failed} failed + {lost} lost != "
            f"{len(unique)} unique jobs")
