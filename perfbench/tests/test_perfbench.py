"""Self-tests of the benchmark: span arithmetic, the tail-percentile
helper, the layer wrappers, the definition file, and a tiny run of each
workload.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import cells
import layers
import served
import tuning
from summary import beyond, percentile, tail_percentile
from repro.obs.export import validate_chrome_trace

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())


# --- self time ---------------------------------------------------------

def test_self_time_of_a_synthetic_span_tree():
    #    0: root      [0, 100]
    #    1: child     [10, 30]   with grandchild 4 [12, 15]
    #    2: child     [20, 50]   overlaps child 1: [20, 30] counts once
    #    3: child     [90, 120]  only [90, 100] lies inside the root
    #    5: root      [200, 210] with no children
    start = [0, 10, 20, 90, 12, 200]
    end = [100, 30, 50, 120, 15, 210]
    parent = [-1, 0, 0, 0, 1, -1]
    assert list(layers.self_times(start, end, parent)) == \
        [100 - 40 - 10, 20 - 3, 30, 30, 3, 10]


def test_self_time_does_not_depend_on_span_order():
    start = [0, 10, 20, 90, 12, 200]
    end = [100, 30, 50, 120, 15, 210]
    parent = [-1, 0, 0, 0, 1, -1]
    order = [5, 3, 4, 1, 0, 2]
    where = {old: new for new, old in enumerate(order)}
    shuffled = layers.self_times(
        [start[i] for i in order], [end[i] for i in order],
        [where[parent[i]] if parent[i] >= 0 else -1 for i in order])
    expected = layers.self_times(start, end, parent)
    assert [shuffled[where[i]] for i in range(6)] == list(expected)


def test_sibling_coverage_does_not_leak_between_parents():
    # Parent 0 is covered up to 90 by its child; parent 3's child starts
    # earlier than that and must still count in full.
    start = [0, 0, 95, 100, 100]
    end = [100, 90, 96, 200, 150]
    parent = [-1, 0, 0, -1, 3]
    assert list(layers.self_times(start, end, parent)) == \
        [100 - 91, 90, 1, 50, 50]


# --- tail percentile ---------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(20))) == (50.0, 9)
    assert tail_percentile(list(range(99)))[0] == 75.0
    assert tail_percentile(list(range(100))) == (90.0, 89)
    assert tail_percentile(list(range(1000)))[0] == 99.0
    for count in (20, 57, 100, 1000, 12345):
        pct, _ = tail_percentile(list(range(count)))
        assert beyond(count, pct) >= 10


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 3], 50) == 3
    assert percentile([1, 2, 3, 4], 50) == 2
    assert percentile([1, 2, 3, 4], 100) == 4


# --- recorder ------------------------------------------------------------

class _Leaf:
    def work(self):
        return 1


class _Node:
    def __init__(self):
        self.leaf = _Leaf()

    def run(self, n):
        return sum(self.leaf.work() for _ in range(n))

    def items(self, n):
        for i in range(n):
            yield self.leaf.work() + i


def test_recorder_counts_calls_and_nesting():
    recorder = layers.SpanRecorder()
    layers_spec = (("node", [(__name__, "_Node", "public")]),
                   ("leaf", [(__name__, "_Leaf", "public")]))
    original = _Node.run
    recorder.install(layers_spec)
    try:
        assert _Node().run(3) == 3
        assert list(_Node().items(2)) == [1, 2]
    finally:
        recorder.uninstall()
    assert _Node.run is original
    spans = layers.aggregate(recorder)
    assert spans["node.run"][0] == 1
    # One span per item produced, plus the final exhausted ``next``.
    assert spans["node.items"][0] == 3
    assert spans["leaf.work"][0] == 5
    parents = {recorder.names[recorder.name[i]]: recorder.parent[i]
               for i in range(len(recorder))
               if recorder.names[recorder.name[i]] == "leaf.work"}
    assert parents["leaf.work"] >= 0


def test_chrome_trace_validates_with_two_threads():
    recorder = layers.SpanRecorder()
    work = recorder.wrap("t.work", lambda: sum(range(1000)))

    def body():
        with recorder.span("t.outer"):
            for _ in range(50):
                work()

    threads = [threading.Thread(target=body) for _ in range(2)]
    for thread in threads:
        thread.start()
    body()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    trace = layers.chrome_trace(recorder, max_events=1000)
    assert validate_chrome_trace(trace) == []
    assert trace["otherData"]["spans"] == 153
    assert layers.aggregate(recorder)["t.work"][0] == 150
    small = layers.chrome_trace(recorder, max_events=5)
    assert small["otherData"]["spans_written"] == 3


def test_layer_table_names_real_functions():
    recorder = layers.SpanRecorder()
    recorder.install()
    try:
        names = set(recorder.names)
    finally:
        recorder.uninstall()
    for name in ("core.engine.launch_kernel", "gpu.sm.next_ready_warp",
                 "memory.tlb.invalidate", "memory.lru.touch",
                 "memory.lru.victim_block", "core.driver.on_new_fault",
                 "core.driver._service", "core.events.pop",
                 "interconnect.pcie.schedule", "stats.to_json",
                 "sweep.cache.load", "sweep.execute_cell",
                 "tune.tune_workload", "workloads.kernel_specs",
                 "serve.client.status"):
        assert name in names
    assert any(name.startswith("policy.") for name in names)


# --- definition ----------------------------------------------------------

def test_definition_is_consistent():
    assert set(DEFINITION) == {"command", "paths", "run_seconds",
                               "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in DEFINITION["end_to_end"]
             + DEFINITION["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in DEFINITION["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    bounds = {m["name"]: m["bound"] for m in DEFINITION["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    workloads = [w["name"] for w in DEFINITION["workloads"]]
    assert workloads == ["steady", "thrash", "served", "tune"]
    assert all(len(w["why"]) <= 200 for w in DEFINITION["workloads"])


# --- tiny runs -----------------------------------------------------------

def test_sim_cells_agree_across_engines_and_catch_a_wrong_digest():
    tiny = (cells.Cell("hotspot", "hotspot", 0.05, "tbn", "tbn", 110.0,
                       iterations=2),
            cells.Cell("bfs", "bfs", 0.05, "tbn", "lru4k", 130.0,
                       seeded=True))
    run = cells.run_pass(tiny, seed=3)
    assert run.errors == []
    assert cells.check_pass(tiny, run, {}) == {}
    wrong = {"bfs": "0" * 64}
    assert cells.check_pass(tiny, run, wrong) == {"bfs": [
        f"bfs: stats digest "
        f"{cells.digest(run.outputs[('bfs', 'reference')])} differs "
        f"from recorded {'0' * 64}"]}
    run.outputs[("hotspot", "fast")] += " "
    assert list(cells.check_pass(tiny, run, {})) == ["hotspot"]
    values = cells.sim_values(tiny, run)
    assert values["sim.far_faults"] > 0


def test_tune_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.setattr(tuning, "SCALE", 0.05)
    first = tuning.tune_once(1, tmp_path / "a")
    second = tuning.tune_once(1, tmp_path / "b")
    assert first.card == second.card
    assert first.evaluations == second.evaluations > 0
    assert first.cache_hits == 0


def test_served_stream(tmp_path, monkeypatch):
    monkeypatch.setattr(served, "MIN_JOBS", 12)
    monkeypatch.setattr(served, "RATE", 20.0)
    monkeypatch.setattr(served, "DISTINCT", 4)
    monkeypatch.setattr(served, "SCALE", 0.03)
    daemon = served.Daemon(ROOT, tmp_path / "daemon")
    try:
        stream = served.run_stream(daemon, seed=2, seconds=0.1)
    finally:
        assert daemon.stop()
    assert [job.error for job in stream.jobs] == [None] * 12
    assert served.check_results(2, stream) == []
    values = served.layer_values(stream, daemon.events())
    assert values["serve.execute_s.p50"] > 0
    assert 0 < values["serve.cache_hit_ratio"] < 1


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_one_result_line(trace):
    result = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "tune",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert result.returncode == 0, result.stderr
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    wanted = DEFINITION["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    if trace:
        assert line["metrics"]["tune.evaluations"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert result.returncode != 0
    assert result.stdout == ""
