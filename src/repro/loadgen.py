"""``repro loadgen``: seeded load generation against a live daemon.

The ROADMAP's production-traffic story made measurable: replay a
synthetic "millions of users" submission trace against ``repro serve``
and report what the service actually delivered.  The trace is **open
loop** (arrivals are scheduled at a fixed rate from a seed, not gated
on responses — a slow server faces a growing queue, exactly like real
traffic) and **zipf-distributed** over a small catalog of distinct
configs, so repeated submissions hammer the coalescing and run-cache
paths the way a popularity-skewed workload would.

Everything the generator *plans* is a pure function of the seed
(:meth:`LoadgenPlan.arrivals`): same seed, same catalog, same arrival
schedule, same ranks.  Everything *measured* — latency quantiles,
throughput, cache-hit/coalesce rates — is wall-clock and goes into the
report's ``measured`` block, which is declared volatile; the rest of
``BENCH_serve.json`` is byte-stable across runs, and the tests compare
it that way.

Latency is measured client-side per submission (submit → terminal,
long-polled by a waiter pool), so the quantiles are exact over the run, not
histogram-bucketed like the server's own ``serve.service_latency_ns``.

``repro top`` (:func:`render_top`) shares this module: it renders a
terminal snapshot of queue depth, per-worker state, and latency
quantiles from one ``/v1/metrics`` + ``/v1/healthz`` round trip.
"""

from __future__ import annotations

import json
import math
import queue as queue_module
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Literal

from .errors import BackpressureError, ConfigurationError, ServeClientError
from .options import Options
from .serve.client import DEFAULT_PORT, ServeClient

#: BENCH_serve.json schema version.
BENCH_FORMAT = 1

#: Report keys that may differ between two same-seed runs (wall-clock
#: measurements and whatever depends on them).
VOLATILE_REPORT_FIELDS = ("measured",)


@dataclass(frozen=True)
class LoadgenPlan(Options):
    """The deterministic half of a load test.

    ``pattern="zipf"`` draws each arrival's config rank from a zipf
    distribution with exponent ``zipf_s`` (rank 0 hottest) — the
    production-shaped default.  ``pattern="unique"`` walks the catalog
    round-robin instead, which makes every job's cache disposition
    deterministic (no coalesce/hit races); the determinism tests use
    it.
    """

    seed: int = 7
    duration: float = 10.0
    rate: float = 4.0
    concurrency: int = 8
    workload: str = "hotspot"
    scale: float = 0.08
    distinct: int = 8
    zipf_s: float = 1.1
    pattern: Literal["zipf", "unique"] = "zipf"
    prefetcher: str | None = None
    eviction: str | None = None
    timeout: float = 120.0

    kind: ClassVar[str] = "load plan"

    def validate(self) -> None:
        super().validate()
        for name in ("duration", "rate", "concurrency", "distinct"):
            if not getattr(self, name):
                raise ConfigurationError(f"{name} must be > 0")

    # --- the deterministic trace -------------------------------------------
    def weights(self) -> list[float]:
        """Normalized zipf popularity per catalog rank."""
        raw = [1.0 / (rank + 1) ** self.zipf_s
               for rank in range(self.distinct)]
        total = sum(raw)
        return [w / total for w in raw]

    def catalog(self) -> list[dict]:
        """One submittable job spec per rank (rank 0 is the hottest)."""
        specs = []
        for rank in range(self.distinct):
            config: dict = {}
            if self.prefetcher is not None:
                config["prefetcher"] = self.prefetcher
            if self.eviction is not None:
                config["eviction"] = self.eviction
            specs.append({
                "workload": {"name": self.workload, "scale": self.scale},
                "config": config,
                "seed": self.seed * 1000 + rank,
            })
        return specs

    def arrival_count(self) -> int:
        return max(1, int(round(self.rate * self.duration)))

    def arrivals(self) -> list[tuple[int, float, int]]:
        """The full schedule: ``(index, at_seconds, rank)`` triples.

        Open-loop: ``at_seconds`` is relative to the run start and does
        not depend on any response.  Same seed, same schedule.
        """
        count = self.arrival_count()
        if self.pattern == "unique":
            ranks = [index % self.distinct for index in range(count)]
        else:
            rng = random.Random(self.seed)
            ranks = rng.choices(range(self.distinct),
                                weights=self.weights(), k=count)
        return [(index, index / self.rate, ranks[index])
                for index in range(count)]

    def rank_arrival_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for _, _, rank in self.arrivals():
            counts[rank] = counts.get(rank, 0) + 1
        return counts


@dataclass
class _Submission:
    index: int
    rank: int
    job_id: str
    submitted_at: float
    coalesced: bool
    latency: float | None = None
    state: str | None = None
    cache_hit: bool | None = None
    error: str | None = None


def _quantile(sorted_values: list[float], q: float) -> float:
    """Exact nearest-rank quantile of a non-empty sorted list."""
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[min(index, len(sorted_values) - 1)]


def run_loadgen(plan: LoadgenPlan, host: str = "127.0.0.1",
                port: int = DEFAULT_PORT,
                client: ServeClient | None = None,
                cluster: bool = False) -> dict:
    """Execute one plan against a live daemon; returns the report dict.

    Raises :class:`~repro.errors.ServeClientError` if the daemon is
    unreachable at the start.  Individual submissions rejected with 429
    are counted (open loop drops, it does not retry); individual waits
    that time out are counted as errors, not fatal.

    With ``cluster=True`` the target is a ``repro cluster``
    coordinator: server-side deltas come from the coordinator's
    *merged* shard metrics (so cache-hit rate is cluster-wide), and the
    report's ``measured`` block grows a ``cluster`` section with
    routing/steal/failover counts and the per-shard submission spread.
    """
    if client is None:
        with ServeClient(host=host, port=port, timeout=plan.timeout,
                         backpressure_retries=0) as owned:
            return run_loadgen(plan, client=owned, cluster=cluster)
    health = client.healthz()
    cluster_before = cluster_after = None
    if cluster:
        cluster_before = client.cluster_metrics()
        metrics_before = cluster_before["merged"]
    else:
        metrics_before = client.metrics()

    catalog = plan.catalog()
    schedule = plan.arrivals()
    submissions: list[_Submission] = []
    rejected = 0
    submit_errors = 0

    pending: queue_module.Queue = queue_module.Queue()
    done_lock = threading.Lock()

    def _waiter() -> None:
        while True:
            item = pending.get()
            if item is None:
                return
            submission = item
            try:
                outcome = client.wait(submission.job_id,
                                      timeout=plan.timeout)
                finished_at = time.monotonic()
                with done_lock:
                    submission.latency = \
                        finished_at - submission.submitted_at
                    submission.state = outcome["state"]
                    submission.cache_hit = outcome.get("cache_hit")
            except ServeClientError as exc:
                with done_lock:
                    submission.error = str(exc)

    waiters = [threading.Thread(target=_waiter, daemon=True,
                                name=f"loadgen-wait-{i}")
               for i in range(plan.concurrency)]
    for thread in waiters:
        thread.start()

    started = time.monotonic()
    for index, at_seconds, rank in schedule:
        delay = (started + at_seconds) - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        submitted_at = time.monotonic()
        try:
            status = client.submit(**_spec_kwargs(catalog[rank]))
        except BackpressureError:
            rejected += 1
            continue
        except ServeClientError:
            submit_errors += 1
            continue
        submission = _Submission(
            index=index, rank=rank, job_id=status["id"],
            submitted_at=submitted_at,
            coalesced=bool(status.get("coalesced")))
        submissions.append(submission)
        pending.put(submission)

    for _ in waiters:
        pending.put(None)
    for thread in waiters:
        thread.join(timeout=plan.timeout + 30.0)
    elapsed = time.monotonic() - started

    if cluster:
        cluster_after = client.cluster_metrics()
        metrics_after = cluster_after["merged"]
    else:
        metrics_after = client.metrics()
    return build_report(plan, health, submissions, rejected,
                        submit_errors, elapsed, metrics_before,
                        metrics_after, cluster_before=cluster_before,
                        cluster_after=cluster_after)


def _spec_kwargs(spec: dict) -> dict:
    return {"workload": spec["workload"],
            "config": spec["config"] or None, "seed": spec["seed"]}


def _metric_delta(before: dict, after: dict, name: str) -> int:
    return int(after.get(name, 0)) - int(before.get(name, 0))


def build_report(plan: LoadgenPlan, health: dict,
                 submissions: list[_Submission], rejected: int,
                 submit_errors: int, elapsed: float,
                 metrics_before: dict, metrics_after: dict,
                 cluster_before: dict | None = None,
                 cluster_after: dict | None = None) -> dict:
    """Assemble ``BENCH_serve.json``: deterministic plan + mix sections
    and one ``measured`` block named in ``volatile``."""
    latencies = sorted(s.latency for s in submissions
                       if s.latency is not None)
    completed = len(latencies)
    failed_jobs = sum(1 for s in submissions if s.state == "failed")
    cancelled = sum(1 for s in submissions if s.state == "cancelled")
    wait_errors = sum(1 for s in submissions if s.error is not None)
    coalesced_client = sum(1 for s in submissions if s.coalesced)

    latency: dict = {"count": completed}
    if latencies:
        latency.update({
            "p50": _quantile(latencies, 0.50),
            "p95": _quantile(latencies, 0.95),
            "p99": _quantile(latencies, 0.99),
            "mean": sum(latencies) / completed,
            "max": latencies[-1],
        })

    hits = _metric_delta(metrics_before, metrics_after,
                         "serve.cache_hits")
    misses = _metric_delta(metrics_before, metrics_after,
                           "serve.cache_misses")
    accepted = len(submissions)
    measured = {
        "accepted": accepted,
        "rejected_backpressure": rejected,
        "submit_errors": submit_errors,
        "completed": completed,
        "failed_jobs": failed_jobs,
        "cancelled_jobs": cancelled,
        "wait_errors": wait_errors,
        "elapsed_seconds": elapsed,
        "throughput_jobs_per_second":
            completed / elapsed if elapsed > 0 else 0.0,
        "latency_seconds": latency,
        "coalesce_rate":
            coalesced_client / accepted if accepted else 0.0,
        "cache_hit_rate":
            hits / (hits + misses) if (hits + misses) else 0.0,
        "server_delta": {
            "cache_hits": hits,
            "cache_misses": misses,
            "jobs_submitted": _metric_delta(
                metrics_before, metrics_after, "serve.jobs_submitted"),
            "jobs_coalesced": _metric_delta(
                metrics_before, metrics_after, "serve.jobs_coalesced"),
            "jobs_done": _metric_delta(
                metrics_before, metrics_after, "serve.jobs_done"),
            "jobs_failed": _metric_delta(
                metrics_before, metrics_after, "serve.jobs_failed"),
        },
        "server": {
            "worker_mode": health.get("worker_mode"),
            "workers": health.get("workers"),
        },
    }
    if cluster_after is not None:
        measured["cluster"] = _cluster_section(
            cluster_before or {}, cluster_after)
    return {
        "format": BENCH_FORMAT,
        "harness": "repro.loadgen",
        "plan": plan.to_dict(),
        "arrivals": plan.arrival_count(),
        "workload_mix": _workload_mix(plan),
        "volatile": list(VOLATILE_REPORT_FIELDS),
        "measured": measured,
    }


def _cluster_section(cluster_before: dict, cluster_after: dict) -> dict:
    """The ``measured.cluster`` block: coordinator counter deltas over
    the run plus the per-shard submission spread."""
    coord_before = cluster_before.get("coordinator", {})
    coord_after = cluster_after.get("coordinator", {})
    shards_before = cluster_before.get("shards", {})
    spread = {}
    for shard_id, flat in sorted(cluster_after.get("shards",
                                                   {}).items()):
        spread[shard_id] = _metric_delta(
            shards_before.get(shard_id, {}), flat,
            "serve.jobs_submitted")
    section = {
        "shards_alive": int(coord_after.get("cluster.shards_alive", 0)),
        "shard_jobs_submitted": spread,
    }
    for short in ("jobs_routed", "jobs_coalesced", "jobs_stolen",
                  "jobs_failed_over", "shards_dead"):
        section[short] = _metric_delta(coord_before, coord_after,
                                       f"cluster.{short}")
    return section


def _workload_mix(plan: LoadgenPlan) -> list[dict]:
    """Deterministic per-rank popularity: zipf share and the exact
    arrival count the seeded schedule assigns."""
    counts = plan.rank_arrival_counts()
    return [
        {"rank": rank, "share": share,
         "arrivals": counts.get(rank, 0),
         "seed": plan.seed * 1000 + rank}
        for rank, share in enumerate(plan.weights())
    ]


def stable_report_fields(report: dict) -> dict:
    """The report minus its declared-volatile keys — the part two
    same-seed runs must agree on byte for byte."""
    volatile = set(report.get("volatile", VOLATILE_REPORT_FIELDS))
    return {key: value for key, value in report.items()
            if key not in volatile}


def report_to_json(report: dict) -> str:
    """Byte-stable serialization (fixed separators, sorted keys)."""
    return json.dumps(report, indent=1, sort_keys=True,
                      separators=(",", ": "))


def write_report(report: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report_to_json(report) + "\n")
    return path


def _format_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def summarize_report(report: dict) -> str:
    """The human-facing summary ``repro loadgen`` prints."""
    plan = report["plan"]
    measured = report["measured"]
    latency = measured["latency_seconds"]
    lines = [
        f"loadgen seed={plan['seed']} pattern={plan['pattern']} "
        f"rate={plan['rate']:g}/s duration={plan['duration']:g}s "
        f"distinct={plan['distinct']}",
        f"  submissions: accepted {measured['accepted']}, rejected "
        f"{measured['rejected_backpressure']}, completed "
        f"{measured['completed']}, failed {measured['failed_jobs']}",
        f"  throughput: "
        f"{measured['throughput_jobs_per_second']:.2f} jobs/s over "
        f"{measured['elapsed_seconds']:.2f}s",
        f"  latency: p50 {_format_seconds(latency.get('p50'))}  "
        f"p95 {_format_seconds(latency.get('p95'))}  "
        f"p99 {_format_seconds(latency.get('p99'))}  "
        f"(n={latency['count']})",
        f"  cache: hit rate {measured['cache_hit_rate']:.2f}  "
        f"coalesce rate {measured['coalesce_rate']:.2f}",
    ]
    cluster = measured.get("cluster")
    if cluster is not None:
        lines.append(
            f"  cluster: {cluster['shards_alive']} shard(s)  "
            f"routed {cluster['jobs_routed']}  "
            f"stolen {cluster['jobs_stolen']}  "
            f"failed over {cluster['jobs_failed_over']}")
    return "\n".join(lines)


# --- repro top ---------------------------------------------------------------

def _worker_rows(metrics: dict) -> list[dict]:
    """Collect ``serve.worker.*{worker="i"}`` samples into rows."""
    rows: dict[int, dict] = {}
    for key, value in metrics.items():
        if not key.startswith("serve.worker."):
            continue
        head, _, label = key.partition("{")
        if not label or not label.startswith('worker="'):
            continue
        raw_slot = label[len('worker="'):].split('"', 1)[0]
        # Gauges snapshot _min/_max/_samples variants; keep the live
        # value only (its key ends right after the label suffix).
        if not key.endswith('"}'):
            continue
        try:
            slot = int(raw_slot)
        except ValueError:
            continue
        field_name = head.rsplit(".", 1)[-1]
        rows.setdefault(slot, {})[field_name] = value
    return [{"worker": slot, **rows[slot]} for slot in sorted(rows)]


def render_top(health: dict, metrics: dict,
               host: str = "127.0.0.1",
               port: int = DEFAULT_PORT) -> str:
    """One ``repro top`` frame from a healthz + metrics round trip."""
    lines = [
        f"repro serve @ {host}:{port} — status "
        f"{health.get('status', '?')}, mode "
        f"{health.get('worker_mode', '?')}, workers "
        f"{health.get('workers', '?')}, version "
        f"{health.get('version', '?')}",
        f"queue: depth {metrics.get('serve.queue_depth', 0):g} | "
        f"running {metrics.get('serve.running_jobs', 0):g} | "
        f"limit {health.get('queue_limit', '?')}",
        f"jobs: submitted {metrics.get('serve.jobs_submitted', 0)} "
        f"coalesced {metrics.get('serve.jobs_coalesced', 0)} "
        f"done {metrics.get('serve.jobs_done', 0)} "
        f"failed {metrics.get('serve.jobs_failed', 0)} "
        f"cancelled {metrics.get('serve.jobs_cancelled', 0)} "
        f"rejected {metrics.get('serve.jobs_rejected_backpressure', 0)}",
        f"fleet: restarts {metrics.get('serve.worker_restarts', 0)} "
        f"revocations {metrics.get('serve.lease_revocations', 0)} "
        f"quarantined {metrics.get('serve.jobs_quarantined', 0)}",
    ]
    hits = metrics.get("serve.cache_hits", 0)
    misses = metrics.get("serve.cache_misses", 0)
    rate = hits / (hits + misses) if (hits + misses) else 0.0
    lines.append(f"cache: hits {hits} misses {misses} "
                 f"(hit rate {rate:.2f})")
    quantiles = []
    for suffix in ("p50", "p95", "p99"):
        value = metrics.get(f"serve.service_latency_ns_{suffix}")
        quantiles.append(
            f"{suffix} " + (_format_seconds(value / 1e9)
                            if value is not None else "-"))
    count = metrics.get("serve.service_latency_ns_count", 0)
    lines.append(f"latency: {'  '.join(quantiles)}  (n={count})")

    rows = _worker_rows(metrics)
    if rows:
        lines.append("worker  inflight  leases  restarts  heartbeat")
        for row in rows:
            heartbeat = row.get("heartbeat_age_seconds")
            heartbeat_text = f"{heartbeat:.1f}s" \
                if isinstance(heartbeat, (int, float)) else "-"
            lines.append(
                f"{row['worker']:>6}  {row.get('inflight', 0):>8g}  "
                f"{row.get('leases', 0):>6}  "
                f"{row.get('restarts', 0):>8}  {heartbeat_text:>9}")
    return "\n".join(lines)


def fetch_top(host: str = "127.0.0.1", port: int = DEFAULT_PORT,
              timeout: float = 10.0) -> str:
    """One rendered frame from a live daemon."""
    with ServeClient(host=host, port=port, timeout=timeout) as client:
        return render_top(client.healthz(), client.metrics(),
                          host=host, port=port)


def render_cluster_top(url: str, health: dict, shards: dict,
                       metrics: dict) -> str:
    """One ``repro top --cluster`` frame: coordinator header, merged
    cluster-wide counters/quantiles, and the shard table."""
    merged = metrics.get("merged", {})
    coordinator = metrics.get("coordinator", {})
    lines = [
        f"repro cluster @ {url} — status {health.get('status', '?')}, "
        f"shards {health.get('shards_alive', '?')}/"
        f"{health.get('shards_known', '?')} alive, generation "
        f"{shards.get('generation', '?')}",
        f"routing: routed "
        f"{coordinator.get('cluster.jobs_routed', 0)} "
        f"coalesced {coordinator.get('cluster.jobs_coalesced', 0)} "
        f"stolen {coordinator.get('cluster.jobs_stolen', 0)} "
        f"failed over "
        f"{coordinator.get('cluster.jobs_failed_over', 0)} "
        f"shards dead {coordinator.get('cluster.shards_dead', 0)}",
        f"jobs (all shards): submitted "
        f"{merged.get('serve.jobs_submitted', 0)} "
        f"done {merged.get('serve.jobs_done', 0)} "
        f"failed {merged.get('serve.jobs_failed', 0)} "
        f"cancelled {merged.get('serve.jobs_cancelled', 0)}",
    ]
    hits = merged.get("serve.cache_hits", 0)
    misses = merged.get("serve.cache_misses", 0)
    rate = merged.get("serve.cache_hit_rate",
                      hits / (hits + misses) if (hits + misses) else 0.0)
    lines.append(f"cache (all shards): hits {hits} misses {misses} "
                 f"(hit rate {rate:.2f})")
    quantiles = []
    for suffix in ("p50", "p95", "p99"):
        value = merged.get(f"serve.service_latency_ns_{suffix}")
        quantiles.append(
            f"{suffix} " + (_format_seconds(value / 1e9)
                            if value is not None else "-"))
    count = merged.get("serve.service_latency_ns_count", 0)
    lines.append(f"latency (merged histogram): "
                 f"{'  '.join(quantiles)}  (n={count})")
    rows = shards.get("shards", [])
    if rows:
        lines.append("shard                     state  depth  running  "
                     "workers  heartbeats")
        for shard in rows:
            lines.append(
                f"{shard['id']:<25} {shard['state']:>5}  "
                f"{shard['queue_depth']:>5}  {shard['running']:>7}  "
                f"{shard['workers']:>7}  {shard['heartbeats']:>10}")
    return "\n".join(lines)


def fetch_cluster_top(url: str, timeout: float = 10.0) -> str:
    """One rendered cluster frame from a live coordinator."""
    with ServeClient.from_url(url, timeout=timeout) as client:
        return render_cluster_top(url, client.healthz(),
                                  client.cluster_shards(),
                                  client.cluster_metrics())
