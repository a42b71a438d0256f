"""Tests for the runtime facade, configuration, and stats."""

import pytest

from repro import constants
from repro.config import SimulatorConfig, oversubscribed, pascal_gtx1080ti
from repro.errors import ConfigurationError, SimulationError
from repro.runtime import UvmRuntime, run_workload
from repro.stats import SimStats, TransferLog
from repro.workloads.microbench import MicrobenchWorkload
from repro.workloads.synthetic import StreamingWorkload

MIB = constants.MIB


class TestConfig:
    def test_defaults_match_table2(self):
        config = pascal_gtx1080ti()
        assert config.num_sms == 28
        assert config.page_size == 4096
        assert config.fault_handling_latency_ns == 45_000.0
        assert config.page_table_walk_cycles == 100

    def test_oversubscribed_capacity(self):
        config = oversubscribed(11 * MIB, 110.0)
        assert config.device_memory_bytes == pytest.approx(10 * MIB,
                                                           abs=4096)
        assert config.device_memory_bytes % 4096 == 0

    def test_oversubscribed_rejects_below_100(self):
        with pytest.raises(ConfigurationError):
            oversubscribed(MIB, 90.0)

    @pytest.mark.parametrize("field,value", [
        ("num_sms", 0),
        ("page_size", 1000),
        ("tlb_entries", -1),
        ("free_page_buffer_fraction", 1.5),
        ("lru_reservation_fraction", -0.1),
        ("tbn_threshold", 0.0),
        ("device_memory_bytes", 100),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            SimulatorConfig(**{field: value})

    def test_block_geometry_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            SimulatorConfig(large_page_size=3 * 64 * 1024)

    def test_replace_returns_validated_copy(self):
        config = SimulatorConfig()
        other = config.replace(num_sms=2)
        assert other.num_sms == 2
        assert config.num_sms == 28
        with pytest.raises(ConfigurationError):
            config.replace(num_sms=0)

    def test_config_is_frozen(self):
        import dataclasses
        config = SimulatorConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.num_sms = 2

    def test_fields_are_checked_against_their_annotations(self):
        from repro.faultinject import FaultProfile
        config = SimulatorConfig(fault_profile={"transfer_fault_rate": 0.1})
        assert config.fault_profile == FaultProfile(transfer_fault_rate=0.1)
        for bad in ({"engine": "turbo"}, {"page_walk_model": "hashed"},
                    {"check_invariants_on_completion": "yes"},
                    {"fault_profile": "moderate"}, {"prefetcher": 3}):
            with pytest.raises(ConfigurationError, match=next(iter(bad))):
                SimulatorConfig(**bad)

    def test_derived_properties(self):
        config = SimulatorConfig(device_memory_bytes=2 * MIB)
        assert config.pages_per_block == 16
        assert config.blocks_per_large_page == 32
        assert config.device_memory_pages == 512
        assert SimulatorConfig().device_memory_pages is None


class TestStats:
    def test_transfer_log_bandwidth(self):
        log = TransferLog()
        log.record(4096, 1000.0)
        log.record(4096, 1000.0)
        assert log.total_bytes == 8192
        assert log.average_bandwidth_gbps == pytest.approx(4.096)
        assert log.transfers_of_size(4096) == 2
        assert log.transfers_of_size(8192) == 0

    def test_empty_log_bandwidth_zero(self):
        assert TransferLog().average_bandwidth_gbps == 0.0

    def test_simstats_summary(self):
        stats = SimStats()
        stats.kernel_times_ns.extend([1000.0, 2000.0])
        stats.tlb_hits = 3
        stats.tlb_misses = 1
        summary = stats.as_dict()
        assert summary["total_kernel_time_ns"] == 3000.0
        assert summary["tlb_hit_rate"] == 0.75

    def test_hit_rate_no_lookups(self):
        assert SimStats().tlb_hit_rate == 0.0


class TestRuntime:
    def test_run_workload_end_to_end(self):
        stats = run_workload(
            StreamingWorkload(pages=64, iterations=2),
            SimulatorConfig(num_sms=2, prefetcher="tbn"),
            check_invariants=True,
        )
        assert stats.pages_migrated == 64
        assert len(stats.kernel_times_ns) == 2

    def test_microbench_figure2a_migrates_whole_region(self):
        """The five probes pull the full 512KB region (Figure 2a)."""
        stats = run_workload(
            MicrobenchWorkload.figure2a(),
            SimulatorConfig(num_sms=1, prefetcher="tbn"),
        )
        assert stats.far_faults == 5
        assert stats.pages_migrated == 128  # 8 blocks x 16 pages

    def test_microbench_on_demand_migrates_only_probes(self):
        stats = run_workload(
            MicrobenchWorkload.figure2a(),
            SimulatorConfig(num_sms=1, prefetcher="none"),
        )
        assert stats.pages_migrated == 5

    def test_manual_api_flow(self):
        runtime = UvmRuntime(SimulatorConfig(num_sms=1))
        alloc = runtime.malloc_managed("buf", MIB)
        runtime.mem_prefetch_async("buf", first_page=0, num_pages=10)
        runtime.device_synchronize()
        valid = [p for p in alloc.page_range[:10]
                 if runtime.simulator.page_table.is_valid(p)]
        assert len(valid) == 10

    def test_sequential_launch_enforced(self):
        runtime = UvmRuntime(SimulatorConfig(num_sms=1))
        # launch_kernel runs to completion, so a second launch works; the
        # engine enforces the invariant internally.
        workload = StreamingWorkload(pages=8, iterations=1)
        runtime.run_workload(workload)
        assert runtime.stats.pages_migrated == 8
