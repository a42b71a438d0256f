"""Tests for the CLI, ASCII charts, and trace export/replay."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis.charts import grouped_bars, horizontal_bars
from repro.cli import EXPERIMENTS, build_parser, main
from repro.config import SimulatorConfig
from repro.errors import WorkloadError
from repro.experiments.common import ExperimentResult, table_filename
from repro.memory.allocator import ManagedAllocator
from repro.runtime import run_workload
from repro.workloads.base import AddressResolver
from repro.workloads.registry import make_workload
from repro.workloads.synthetic import StreamingWorkload
from repro.workloads.trace import TraceWorkload, export_trace


class TestCharts:
    def test_horizontal_bars_scaled_to_peak(self):
        art = horizontal_bars(["a", "bb"], [1.0, 2.0], width=10)
        lines = art.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_horizontal_bars_empty(self):
        assert horizontal_bars([], []) == "(no data)"

    def test_horizontal_bars_mismatch_raises(self):
        with pytest.raises(ValueError):
            horizontal_bars(["a"], [1.0, 2.0])

    def test_grouped_bars_renders_all_series(self):
        result = ExperimentResult("F", "d", ["w", "x", "y"])
        result.add_row("alpha", 1.0, 3.0)
        result.add_row("beta", 2.0, 0.5)
        art = grouped_bars(result, width=12)
        assert "alpha:" in art and "beta:" in art
        assert art.count("|") == 8  # 4 bars x 2 delimiters

    def test_grouped_bars_empty(self):
        result = ExperimentResult("F", "d", ["w", "x"])
        assert grouped_bars(result) == "(no data)"


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "tbn" in out and "hotspot" in out
        assert "learned   : bandit, logistic, ngram" in out

    def test_run_prints_counters(self, capsys):
        assert main(["run", "pathfinder", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "far_faults" in out
        assert "pathfinder" in out

    def test_run_oversubscribed(self, capsys):
        code = main(["run", "hotspot", "--scale", "0.1",
                     "--oversubscription", "110", "--eviction", "tbn",
                     "--keep-prefetching"])
        assert code == 0
        assert "pages_evicted" in capsys.readouterr().out

    def test_run_with_fault_profile_prints_resilience(self, capsys):
        assert main(["run", "bfs", "--scale", "0.1",
                     "--oversubscription", "110", "--eviction", "tbn",
                     "--fault-profile", "moderate"]) == 0
        assert "resilience counter" in capsys.readouterr().out

    def test_faults_sweeps_the_injection_rates(self, capsys):
        assert main(["faults", "bfs", "--scale", "0.1",
                     "--rates", "0", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "0.00" in out and "0.20" in out
        assert "FAILED" not in out

    def test_experiment_table1(self, capsys, tmp_path):
        code = main(["experiment", "table1", "--out", str(tmp_path),
                     "--chart"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        # Named like the committed tables, from the title, not the key.
        assert [p.name for p in tmp_path.iterdir()] == \
            [table_filename("Table 1")]

    def test_sweep(self, capsys):
        code = main(["sweep", "pathfinder", "--scale", "0.1",
                     "--percents", "110"])
        assert code == 0
        assert "sweep" in capsys.readouterr().out

    def test_every_registered_experiment_has_runner(self):
        parser = build_parser()
        assert parser is not None
        for name, runner in EXPERIMENTS.items():
            assert callable(runner), name

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nonexistent"])


RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
EXPERIMENTS_SRC = Path(__file__).resolve().parent.parent / "src" / "repro" \
    / "experiments"

#: ``ExperimentResult.name`` of every registered experiment.
EXPERIMENT_TITLES = {
    "table1": "Table 1",
    "fig2": "Figure 2",
    "fig3": "Figure 3",
    "fig4": "Figure 4",
    "fig5": "Figure 5",
    "fig6": "Figure 6",
    "fig7": "Figure 7",
    "fig9": "Figure 9",
    "fig10": "Figure 10",
    "fig11": "Figure 11",
    "fig12": "Figure 12",
    "fig13": "Figure 13",
    "fig14": "Figure 14",
    "fig15": "Figure 15",
    "fig16": "Figure 16",
    "ablation-batching": "Ablation: fault batching",
    "ablation-threshold": "Ablation: TBN threshold",
    "ablation-lru": "Ablation: LRU insertion",
    "ablation-walk": "Ablation: page-walk model",
    "ablation-buffer": "Ablation: fault buffer",
    "ablation-latency": "Ablation: fault latency",
    "ext-adaptive": "Extension: adaptive pre-eviction",
    "ext-autotune": "Extension: autotune",
    "ext-colocation": "Extension: co-location",
    "ext-learned": "Extension: learned policies",
    "ext-resilience": "Extension: resilience",
}
#: Experiments that have no committed table under results/ yet.
UNCOMMITTED_TABLES = {"ablation-latency", "ext-learned", "ext-resilience"}


class TestResultTables:
    """The refresh script and the benchmarks name tables the same way."""

    def test_titles_cover_registry(self):
        assert set(EXPERIMENT_TITLES) == set(EXPERIMENTS)
        source = "".join(p.read_text()
                         for p in EXPERIMENTS_SRC.glob("*.py"))
        for key, title in EXPERIMENT_TITLES.items():
            assert f'"{title}"' in source, key

    def test_every_experiment_maps_to_committed_table(self):
        committed = {p.name for p in RESULTS_DIR.glob("*.txt")}
        for key, title in EXPERIMENT_TITLES.items():
            filename = table_filename(title)
            if key in UNCOMMITTED_TABLES:
                assert filename not in committed, key
                continue
            assert filename in committed, key
            first = (RESULTS_DIR / filename).read_text().splitlines()[0]
            assert first.startswith(f"{title}: "), key

    def test_refresh_script_writes_committed_names(self, tmp_path,
                                                   monkeypatch):
        path = RESULTS_DIR.parent / "scripts" / "regenerate_results.py"
        spec = importlib.util.spec_from_file_location("regenerate", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "EXPERIMENTS",
                            {"table1": EXPERIMENTS["table1"]})
        monkeypatch.setattr("sys.argv", ["regenerate_results.py",
                                         "--out", str(tmp_path),
                                         "--no-cache"])
        assert script.main() == 0
        assert [p.name for p in tmp_path.iterdir()] == ["table_1.txt"]


class TestTrace:
    def test_roundtrip_preserves_kernels(self, tmp_path):
        source = StreamingWorkload(pages=32, iterations=2)
        path = tmp_path / "trace.jsonl"
        count = export_trace(source, path)
        assert count == 2

        replay = TraceWorkload(path)
        assert replay.source_workload == source.name
        assert replay.footprint_bytes == source.footprint_bytes

        def kernel_shapes(workload):
            allocator = ManagedAllocator()
            for spec in workload.allocations():
                allocator.malloc_managed(spec.name, spec.size_bytes)
            resolver = AddressResolver(allocator)
            shapes = []
            for kernel in workload.kernel_specs(resolver):
                base = allocator.get("data").page_range[0]
                shapes.append(sorted(
                    page - base for page in kernel.touched_pages()
                ))
            return shapes

        assert kernel_shapes(source) == kernel_shapes(replay)

    def test_replayed_trace_runs_identically(self, tmp_path):
        source = make_workload("pathfinder", scale=0.1)
        path = tmp_path / "pf.jsonl"
        export_trace(source, path)
        config = SimulatorConfig(num_sms=2, prefetcher="tbn")
        original = run_workload(make_workload("pathfinder", scale=0.1),
                                config)
        replayed = run_workload(TraceWorkload(path), config)
        assert replayed.far_faults == original.far_faults
        assert replayed.pages_migrated == original.pages_migrated
        assert replayed.total_kernel_time_ns \
            == pytest.approx(original.total_kernel_time_ns)

    def test_write_flags_preserved(self, tmp_path):
        source = StreamingWorkload(pages=16, write_fraction=1.0)
        path = tmp_path / "w.jsonl"
        export_trace(source, path)
        with open(path) as fh:
            fh.readline()
            record = json.loads(fh.readline())
        flags = [access[2] for tb in record["thread_blocks"]
                 for warp in tb for access in warp]
        assert all(flag == 1 for flag in flags)

    def test_bad_traces_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(WorkloadError):
            TraceWorkload(empty)
        bad_version = tmp_path / "bad.jsonl"
        bad_version.write_text(json.dumps({"version": 99,
                                           "allocations": [["a", 1]]})
                               + "\n")
        with pytest.raises(WorkloadError):
            TraceWorkload(bad_version)
