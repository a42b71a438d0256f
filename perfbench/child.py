"""One benchmark run in a fresh interpreter (started by ``run.py``).

Prints ``READY`` once set-up is done (for ``served``: ``READY <s>`` with
the daemon's start-to-healthy time), then, unless ``--setup-only``, runs
the workload and prints one JSON line of raw measurements:

* ``ops``: seconds of each user-visible operation, untraced;
* ``attempted`` / ``failed`` / ``problems``: the output checks;
* ``peak_rss_mb``: peak resident memory of the process that ran it;
* ``report``: the workload's own figures (``accesses_per_s.*``,
  ``job_latency_s.*``, ``tune_s``...), from the untraced operations;
* ``layers`` (``--trace 1`` only): figures of the traced segment.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

import repro  # noqa: F401  (set-up time includes importing the package)

import layers
from summary import percentile, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).resolve().parent / "recorded.json"
TRACE_DIR = ROOT / ".perfbench_out"

#: Untraced passes or calls per untraced run, at least.
MIN_OPS = 3


def recorded(seed: int) -> dict:
    """Digests recorded for the default seed (empty for other seeds)."""
    if seed != 0:
        return {}
    return json.loads(RECORDED.read_text(encoding="utf-8"))


def ready(value: float | None = None) -> None:
    print("READY" if value is None else f"READY {value!r}", flush=True)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def repeat(op, seconds: float, minimum: int) -> list:
    """Call ``op(i)`` until ``seconds`` have passed and ``minimum`` calls
    were made."""
    results = []
    start = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - start < seconds:
        results.append(op(len(results)))
    return results


def traced(op, args) -> tuple:
    """Run ``op`` once with every layer wrapped.

    Writes the spans as Chrome trace JSON; returns (op's result, its
    seconds, span aggregates, problems found in the trace).
    """
    from repro.obs.export import validate_chrome_trace

    recorder = layers.SpanRecorder()
    recorder.install()
    try:
        start = time.perf_counter()
        with recorder.span(f"perfbench.{args.workload}"):
            result = op()
        seconds = time.perf_counter() - start
    finally:
        recorder.uninstall()
    trace = layers.chrome_trace(recorder)
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{args.workload}-seed{args.seed}.trace.json"
    path.write_text(json.dumps(trace), encoding="utf-8")
    problems = [f"trace: {problem}"
                for problem in validate_chrome_trace(trace)[:5]]
    return result, seconds, layers.aggregate(recorder), problems


def budget(args) -> tuple[float, int]:
    """Seconds and minimum operations of the untraced segment; a traced
    run gives half its time to the traced segment."""
    return (args.seconds / 2, 1) if args.trace else (args.seconds, MIN_OPS)


# --- steady / thrash ---------------------------------------------------------

def run_sim(args, workdir: Path) -> dict:
    import cells as sim

    cell_list = sim.CELLS[args.workload]
    sim.build(cell_list[0], "reference", args.seed)
    ready()
    if args.setup_only:
        return {}
    accesses = sum(sim.count_accesses(cell, args.seed) for cell in cell_list)
    expected = recorded(args.seed).get(args.workload, {})
    problems: list[str] = []
    failed = 0

    def one_pass(index: int) -> sim.PassResult:
        nonlocal expected, failed
        run = sim.run_pass(cell_list, args.seed, calibrate=True)
        found = sim.check_pass(cell_list, run, expected)
        if not expected:
            expected = {name: sim.digest(output)
                        for (name, engine), output in run.outputs.items()
                        if engine == "reference"}
        problems.extend(f"pass {index}: {p}"
                        for p in run.errors + sum(found.values(), []))
        # A cell whose output is wrong fails on both engines.
        failed += len(run.errors) + len(sim.ENGINES) * len(found)
        return run

    passes = repeat(one_pass, *budget(args))
    report = {f"accesses_per_s.{engine}": median(
        [accesses / run.engine_seconds(engine) for run in passes])
        for engine in sim.ENGINES}
    for cell in cell_list:
        ratios = [run.seconds[(cell.name, "reference")]
                  / run.seconds[(cell.name, "fast")] for run in passes
                  if (cell.name, "reference") in run.seconds
                  and (cell.name, "fast") in run.seconds]
        report[f"cell.{args.workload}.{cell.name}.fast_over_reference"] = \
            median(ratios) if ratios else 0.0
    raw = {"ops": [run.total for run in passes],
           "scaled_ops": [run.scaled_total for run in passes],
           "attempted": len(passes) * len(cell_list) * len(sim.ENGINES),
           "failed": failed, "problems": problems,
           "peak_rss_mb": peak_rss_mb(), "report": report}
    if args.trace:
        run, seconds, spans, found = traced(
            lambda: sim.run_pass(cell_list, args.seed), args)
        if run.outputs != passes[0].outputs or run.errors:
            found.append("traced pass output differs from untraced")
        problems.extend(found)
        raw["failed"] += len(found)
        values = layers.layer_metrics(spans)
        values.update(sim.sim_values(cell_list, passes[0]))
        values["trace.overhead_ratio"] = seconds / median(raw["ops"])
        raw["layers"] = values
    return raw


# --- tune --------------------------------------------------------------------

def run_tune(args, workdir: Path) -> dict:
    import tuning

    tuning.first_cell_ready(args.seed)
    ready()
    if args.setup_only:
        return {}
    expected = recorded(args.seed).get("tune_card")
    problems: list[str] = []

    def one_call(index: int):
        nonlocal expected
        cache_dir = workdir / f"cache-{index}"
        try:
            outcome = tuning.tune_once(args.seed, cache_dir, calibrate=True)
        except Exception as exc:  # a failing call is counted, not fatal
            problems.append(f"call {index}: {type(exc).__name__}: {exc}")
            return None
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        card = tuning.digest(outcome.card)
        if expected is None:
            expected = card
        elif card != expected:
            problems.append(f"call {index}: card {card} differs from "
                            f"{expected}")
        return outcome

    attempts = repeat(one_call, *budget(args))
    calls = [call for call in attempts if call is not None]
    done = [call.seconds for call in calls]
    raw = {"ops": done, "scaled_ops": [call.scaled for call in calls],
           "attempted": len(attempts), "failed": len(problems),
           "problems": problems, "peak_rss_mb": peak_rss_mb(),
           "report": {"tune_s": median(done) if done else 0.0}}
    if args.trace:
        cache_dir = workdir / "cache-traced"
        outcome, _, spans, found = traced(
            lambda: tuning.tune_once(args.seed, cache_dir), args)
        shutil.rmtree(cache_dir, ignore_errors=True)
        if tuning.digest(outcome.card) != expected:
            found.append("traced tune card differs")
        problems.extend(found)
        raw["failed"] += len(found)
        values = layers.layer_metrics(spans)
        loads = outcome.cache_hits + outcome.cache_misses
        values["sweep.cache.hit_ratio"] = \
            outcome.cache_hits / loads if loads else 0.0
        values["tune.evaluations"] = outcome.evaluations
        values["trace.overhead_ratio"] = outcome.seconds / median(done) \
            if done else 0.0
        raw["layers"] = values
    return raw


# --- served ------------------------------------------------------------------

def run_served(args, workdir: Path) -> dict:
    import served

    daemon = served.Daemon(ROOT, workdir / "daemon")
    ready(daemon.setup_s)
    if args.setup_only:
        daemon.stop()
        return {}
    try:
        stream = served.run_stream(daemon, args.seed, args.seconds)
    finally:
        drained = daemon.stop()
    problems = [f"job {job.rank}: {job.error}" for job in stream.jobs
                if job.error is not None]
    if not drained:
        problems.append("daemon did not drain on SIGTERM")
    problems.extend(served.check_results(args.seed, stream))
    latencies = stream.latencies
    tail = tail_percentile(latencies) if latencies else None
    report = {
        "job_latency_s.p50": percentile(latencies, 50) if latencies else 0.0,
        # Reported only when at least ten samples lie beyond it.
        "job_latency_s.p90": percentile(latencies, 90)
        if tail and tail[0] >= 90.0 else 0.0,
        "job_latency_s.samples": len(latencies),
    }
    raw = {"ops": latencies, "attempted": len(stream.jobs),
           "failed": len(problems), "problems": problems, "report": report}
    if args.trace:
        traced_daemon = served.Daemon(ROOT, workdir / "daemon-traced")
        try:
            traced_stream, _, spans, found = traced(
                lambda: served.run_stream(traced_daemon, args.seed,
                                          args.seconds), args)
        finally:
            traced_daemon.stop()
        problems.extend(found)
        raw["failed"] += len(found)
        values = layers.layer_metrics(spans)
        values.update(served.layer_values(stream, daemon.events()))
        values["serve.client.status_calls_per_job"] = \
            spans.get("serve.client.status", (0, 0))[0] \
            / max(1, len(traced_stream.jobs))
        values["trace.overhead_ratio"] = \
            percentile(traced_stream.latencies, 50) \
            / report["job_latency_s.p50"]
        raw["layers"] = values
    # Every daemon has been waited for, so the children's peak is that of
    # the largest daemon or worker process.
    raw["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    return raw


RUNNERS = {"steady": run_sim, "thrash": run_sim, "tune": run_tune,
           "served": run_served}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    raw = RUNNERS[args.workload](args, args.workdir)
    if not args.setup_only:
        print(json.dumps(raw), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
