"""The repository's benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload steady --seed 0 --seconds 12 --trace 0

Run from the repository root.  Workloads (see README.md):

* ``steady``: iterative cells that hit in device memory, on both engines;
* ``thrash``: fault-bound cells at 110-150% over-subscription;
* ``served``: an open-loop zipf stream of small jobs to ``repro serve``;
* ``tune``: a ``tune --include-learned`` grid search on a cold cache.

Each run happens in fresh interpreters so that import and set-up costs
show.  With ``--trace 0`` the last line of stdout is the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it is the per-layer
metrics of a traced run.  A table of every figure goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("steady", "thrash", "served", "tune")

#: Fresh interpreters started only to time set-up, besides the one that
#: runs the workload; ``setup_s`` is the median over all of them.
SETUP_PROBES = {"steady": 8, "thrash": 8, "tune": 8, "served": 3}

#: Wall-clock limit of the whole run.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The run could not produce a result."""


def spawn(args, workdir: Path, setup_only: bool) -> subprocess.Popen:
    command = [sys.executable, str(CHILD), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # A session of its own, so that a child that overruns can be killed
    # together with the daemon and workers it started.
    return subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            start_new_session=True)


def run_child(args, workdir: Path, deadline: float,
              setup_only: bool) -> tuple[float, str]:
    """Start one child; returns (set-up seconds, the rest of its stdout).

    Set-up runs from the spawn to the child's ``READY`` line, unless the
    line carries its own figure (the served daemon's boot time).
    """
    started = time.perf_counter()
    process = spawn(args, workdir, setup_only)
    try:
        readable, _, _ = select.select(
            [process.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = process.stdout.readline() if readable else ""
        setup = time.perf_counter() - started
        if not line.startswith("READY"):
            raise BenchError(f"{args.workload} set-up failed: {line!r}")
        if line.split()[1:]:
            setup = float(line.split()[1])
        output, _ = process.communicate(
            timeout=max(0.0, deadline - time.monotonic()))
    except (BenchError, subprocess.TimeoutExpired):
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    if process.returncode != 0:
        raise BenchError(f"{args.workload} run exited "
                         f"{process.returncode}")
    return setup, output


def measure(args, definition: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".perfbench_tmp" / \
        f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = [run_child(args, workdir / f"probe-{index}", deadline,
                            True)[0]
                  for index in range(SETUP_PROBES[args.workload])]
        setup, output = run_child(args, workdir / "run", deadline, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    setups.append(setup)
    raw = json.loads(output.strip().splitlines()[-1])
    if not raw["ops"]:
        raise BenchError(f"no {args.workload} operation completed: "
                         f"{raw['problems'][:3]}")
    figures = {
        "setup_s": median(setups),
        "peak_rss_mb": raw["peak_rss_mb"],
        # CPU-bound operations are scaled to the reference host speed;
        # served jobs mostly wait, so they are not.
        "wait_s.p50": median(raw.get("scaled_ops") or raw["ops"]),
        "wait_raw_s.p50": median(raw["ops"]),
    }
    figures.update(raw["report"])
    figures["failed_ratio"] = raw["failed"] / raw["attempted"]
    figures.update(raw.get("layers", {}))
    for problem in raw["problems"][:20]:
        print(f"[perfbench] {args.workload}: {problem}", file=sys.stderr)
    units = {metric["name"]: metric["unit"] for metric in
             definition["end_to_end"] + definition["per_layer"]}
    units["failed_ratio"] = "ratio"
    for name, value in figures.items():
        print(f"[perfbench] {args.workload:7s} {name:48s} {value:<12.6g} "
              f"{units.get(name, '')}", file=sys.stderr)
    wanted = definition["per_layer" if args.trace else "end_to_end"]
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        # A layer that does not run on this workload reads 0.
        "metrics": {metric["name"]: {"value": figures.get(metric["name"],
                                                          0),
                                     "unit": metric["unit"]}
                    for metric in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources under src/; run from a full "
              "checkout", file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        result = measure(args, definition)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
