"""Tests for the worker-process fleet and the chaos harness.

Unmarked tests are pure in-process unit tests — fault-profile
validation and parsing, run-cache self-healing, fleet-option policy,
the harness's wave loop and invariant checker against a fake
topology — and run in the tier-1 suite.  The ``chaos``-marked classes
spawn real worker processes and exercise the supervisor's recovery
machinery: crash detection, lease revocation and requeue, poison-job
quarantine, hang kills, and ``repro chaos --json`` end to end.
"""

import json

import pytest

from repro.chaos import ChaosReport, build_chaos_cells, run_chaos, run_waves
from repro.cli import main
from repro.config import SimulatorConfig
from repro.errors import ConfigurationError, ServeError
from repro.faultinject import SERVICE_PROFILES, ServiceFaultProfile
from repro.serve import FleetOptions, JobJournal, SimulationService
from repro.serve.queue import DONE, FAILED
from repro.stats import FailedRun, SimStats
from repro.sweep import RunCache, SweepCell, execute_cell

SCALE = 0.12


def cell(seed: int = 0, name: str = "hotspot") -> SweepCell:
    return SweepCell(
        workload_spec={"name": name, "scale": SCALE},
        config=SimulatorConfig(prefetcher="tbn", eviction="lru4k",
                               seed=seed),
    )


class TestServiceFaultProfile:
    def test_defaults_inject_nothing(self):
        profile = ServiceFaultProfile()
        assert not profile.injects_anything
        assert not profile.should_kill(1, 0)
        assert not profile.should_stall(1)
        assert not profile.should_corrupt_store(1)

    def test_counter_based_decisions_are_deterministic(self):
        profile = ServiceFaultProfile(kill_every_jobs=2,
                                      stall_every_jobs=3,
                                      corrupt_cache_every=2)
        assert [profile.should_kill(i, 0) for i in (1, 2, 3, 4)] == \
            [False, True, False, True]
        assert [profile.should_stall(i) for i in (1, 2, 3)] == \
            [False, False, True]
        assert [profile.should_corrupt_store(i) for i in (1, 2)] == \
            [False, True]

    def test_poison_seed_kills_regardless_of_counter(self):
        profile = ServiceFaultProfile(poison_seeds=(1097,))
        assert profile.should_kill(1, 1097)
        assert not profile.should_kill(1, 0)

    def test_validation_rejects_nonsense(self):
        for bad in (
            {"kill_every_jobs": -1},
            {"stall_seconds": -2.0},
            {"poison_seeds": (1, "x")},
            {"seed": "abc"},
        ):
            with pytest.raises(ConfigurationError):
                ServiceFaultProfile(**bad)
        with pytest.raises(ConfigurationError):
            ServiceFaultProfile.from_dict({"bogus_field": 1})

    def test_round_trip_through_dict(self):
        profile = ServiceFaultProfile(kill_every_jobs=3,
                                      poison_seeds=(7, 9),
                                      corrupt_cache_every=2, seed=4)
        clone = ServiceFaultProfile.from_dict(
            json.loads(json.dumps(profile.to_dict())))
        assert clone == profile

    def test_load_named_kv_file_and_seed_override(self, tmp_path):
        assert ServiceFaultProfile.load("worker-kill") is \
            SERVICE_PROFILES["worker-kill"]
        parsed = ServiceFaultProfile.load(
            "kill_every_jobs=2,poison_seeds=5+6,stall_seconds=1.5")
        assert parsed.kill_every_jobs == 2
        assert parsed.poison_seeds == (5, 6)
        assert parsed.stall_seconds == 1.5
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"corrupt_cache_every": 4}))
        assert ServiceFaultProfile.load(str(path)).corrupt_cache_every == 4
        assert ServiceFaultProfile.load("poison-job", seed=9).seed == 9
        with pytest.raises(ConfigurationError):
            ServiceFaultProfile.load("no-such-profile")


class TestFleetOptions:
    def test_backoff_is_capped_exponential(self):
        options = FleetOptions(backoff_base=0.1, backoff_multiplier=2.0,
                               backoff_cap=0.3)
        assert options.backoff_for(1) == pytest.approx(0.1)
        assert options.backoff_for(2) == pytest.approx(0.2)
        assert options.backoff_for(5) == pytest.approx(0.3)  # capped

    def test_validation(self):
        with pytest.raises(ServeError):
            FleetOptions(max_attempts=0).validate()
        with pytest.raises(ServeError):
            FleetOptions(job_timeout=-1.0).validate()
        with pytest.raises(ServeError):
            FleetOptions(backoff_multiplier=0.5).validate()

    def test_injected_runner_forces_thread_mode(self):
        with pytest.raises(ServeError):
            SimulationService(jobs=1, runner=lambda c: None,
                              worker_mode="process")
        with pytest.raises(ServeError):
            SimulationService(jobs=1, worker_mode="fibers")


class TestRunCacheSelfHealing:
    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        assert cache.load("0" * 64) is None
        assert cache.misses == 1 and cache.quarantined == 0

    def test_corrupt_entry_quarantined_and_healed(self, tmp_path,
                                                  capsys):
        cache = RunCache(tmp_path / "cache")
        target = cell(1)
        key = target.cache_key()
        cache.store(key, target, SimStats())
        assert isinstance(cache.load(key), SimStats)

        # Tear the file in half: the next load must quarantine it and
        # report a miss, never raise or serve garbage.
        path = cache.path_for(key)
        raw = path.read_text()
        path.write_text(raw[:len(raw) // 2])
        assert cache.load(key) is None
        assert cache.quarantined == 1
        assert "quarantined corrupt entry" in capsys.readouterr().err
        assert (cache.quarantine_dir / path.name).is_file()

        # Self-healing: a fresh store lands in the now-empty slot.
        cache.store(key, target, SimStats())
        assert isinstance(cache.load(key), SimStats)

    def test_stale_format_and_bad_payloads_quarantine(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        for bad in (
            json.dumps({"format": -1}),        # stale schema
            json.dumps([1, 2, 3]),             # not even an object
            json.dumps({"format": 1, "result": {"kind": "bogus"}}),
        ):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(bad)
            assert cache.load(key) is None
        assert cache.quarantined == 3


class TestChaosCells:
    def test_poison_seeds_are_appended_once(self):
        profile = ServiceFaultProfile(poison_seeds=(1097,))
        cells = build_chaos_cells(["hotspot"], SCALE, [1, 1097],
                                  profile)
        assert [c.config.seed for c in cells] == [1, 1097]
        assert len({c.cache_key() for c in cells}) == 2


class FakeTopology:
    """Answers every job with a fresh fault-free run of its cell; the
    reuse wave's answers (jobs submitted after the first wave) pass
    through ``tamper`` first."""

    def __init__(self, tamper):
        self.tamper = tamper
        self.cells: dict[str, SweepCell] = {}
        self.first_wave: set[str] = set()

    def submit(self, cell):
        job_id = f"job-{len(self.cells)}"
        self.cells[job_id] = cell
        return job_id

    def submitted(self, count, total, report):
        self.first_wave = set(self.cells)

    def result(self, job_id, timeout):
        stats, _ = execute_cell(self.cells[job_id], cache=None)
        payload = {"id": job_id, "state": "done", "cache_hit": True,
                   "result": {"kind": "stats",
                              "stats": stats.to_json_dict()}}
        if job_id in self.first_wave:
            return payload
        return self.tamper(payload)

    def state(self, job_id):
        return "done"

    def check(self, report):
        pass


def _alter_stats(payload):
    payload["result"]["stats"]["far_faults"] += 1
    return payload


def _fail(payload):
    payload.update(state="failed", result={"kind": "failed", "failed": {
        "error_type": "SimulationError", "message": "boom"}})
    return payload


class TestWaveChecker:
    """Both waves go through the same checker."""

    @pytest.mark.parametrize("tamper, violation", [
        (_alter_stats, "parity broken: job job-1"),
        (_fail, "job job-1 ended 'failed', expected stats: "
                "SimulationError: boom"),
    ], ids=["altered-stats", "failed"])
    def test_reuse_wave_is_checked(self, tamper, violation):
        profile = ServiceFaultProfile()
        report = ChaosReport(profile=profile)
        cells = build_chaos_cells(["hotspot"], SCALE, [1], profile)
        run_waves(FakeTopology(tamper), cells, report, deadline=10.0,
                  max_attempts=3)
        assert len(report.violations) == 1
        assert report.violations[0].startswith(violation)
        assert report.jobs_total == 2 and report.jobs_rerun == 1
        assert "chaos: FAIL" in report.to_table()

    def test_untampered_waves_pass(self):
        profile = ServiceFaultProfile()
        report = ChaosReport(profile=profile)
        cells = build_chaos_cells(["hotspot"], SCALE, [1, 2], profile)
        run_waves(FakeTopology(lambda payload: payload), cells, report,
                  deadline=10.0, max_attempts=3)
        assert report.violations == []
        assert report.parity_checked == 4
        assert report.warm_hit_rate == 1.0
        assert "chaos: PASS" in report.to_table()


def process_service(tmp_path, profile=None, workers=1, **fleet_kwargs):
    """A process-mode service with fast supervision knobs for tests."""
    fleet_kwargs.setdefault("max_attempts", 3)
    fleet = FleetOptions(
        heartbeat_interval=0.1,
        backoff_base=0.01,
        backoff_cap=0.05,
        fault_profile=profile,
        **fleet_kwargs,
    )
    service = SimulationService(
        jobs=workers,
        cache=RunCache(tmp_path / "cache"),
        journal=JobJournal(tmp_path / "journal"),
        worker_mode="process",
        fleet=fleet,
    )
    service.start()
    return service


@pytest.mark.chaos
class TestProcessFleet:
    """Real worker processes under injected faults."""

    def test_plain_job_runs_and_matches_in_process_result(
            self, tmp_path):
        from repro.sweep import execute_cell

        service = process_service(tmp_path)
        try:
            job, _ = service.submit(cell(1))
            assert job.wait(timeout=120)
            assert job.state == DONE
            direct, _ = execute_cell(cell(1))
            assert job.result == direct
            assert service.health()["worker_mode"] == "process"
        finally:
            service.drain(timeout=60)

    def test_worker_crash_revokes_lease_and_job_still_completes(
            self, tmp_path):
        # Every worker dies on its 1st job, then the respawn (job
        # counter reset) would die again — so use kill_every_jobs=2:
        # worker survives job 1, dies on job 2, respawn finishes it.
        profile = ServiceFaultProfile(kill_every_jobs=2)
        service = process_service(tmp_path, profile=profile)
        try:
            first, _ = service.submit(cell(1))
            second, _ = service.submit(cell(2))
            assert first.wait(timeout=120) and second.wait(timeout=120)
            assert first.state == DONE and second.state == DONE
            assert second.attempts == 2  # one revoked lease
            snapshot = service.metrics_snapshot()
            assert snapshot["serve.worker_restarts"] >= 1
            assert snapshot["serve.lease_revocations"] >= 1
            assert snapshot["serve.jobs_done"] == 2
            # Nothing owed: journal and lease WALs are clean.
            assert service.journal.load_leases() == []
        finally:
            service.drain(timeout=60)

    def test_poison_job_is_quarantined_after_max_attempts(
            self, tmp_path):
        profile = ServiceFaultProfile(poison_seeds=(1097,))
        service = process_service(tmp_path, profile=profile,
                                  max_attempts=2)
        try:
            poison, _ = service.submit(cell(1097))
            healthy, _ = service.submit(cell(1))
            assert poison.wait(timeout=120)
            assert healthy.wait(timeout=120)
            assert healthy.state == DONE
            assert poison.state == FAILED
            assert isinstance(poison.result, FailedRun)
            assert poison.result.error_type == "PoisonJobError"
            assert poison.attempts == 2
            snapshot = service.metrics_snapshot()
            assert snapshot["serve.jobs_quarantined"] == 1
            assert snapshot["serve.worker_restarts"] == 2
        finally:
            service.drain(timeout=60)

    def test_wedged_worker_is_killed_by_the_job_deadline(
            self, tmp_path):
        # The worker stalls 30s on its 2nd job; a 2s deadline kills it
        # and the respawned worker (counter reset) finishes the job.
        profile = ServiceFaultProfile(stall_every_jobs=2,
                                      stall_seconds=30.0)
        service = process_service(tmp_path, profile=profile,
                                  job_timeout=2.0,
                                  heartbeat_timeout=10.0)
        try:
            first, _ = service.submit(cell(1))
            second, _ = service.submit(cell(2))
            assert first.wait(timeout=120) and second.wait(timeout=120)
            assert first.state == DONE and second.state == DONE
            assert service.metrics_snapshot()[
                "serve.worker_restarts"] >= 1
        finally:
            service.drain(timeout=60)


@pytest.mark.chaos
class TestChaosHarness:
    @pytest.mark.parametrize("profile, seeds, exact, least", [
        pytest.param(
            "kill_every_jobs=3,poison_seeds=1097,corrupt_cache_every=1,"
            "truncate_journal_entries=2", [1, 2],
            # 3 first wave + 2 reuse wave; the poison job fails once
            {"jobs_total": 5, "poison_jobs": 1, "jobs_failed": 1,
             "serve.jobs_quarantined": 1,
             "serve.journal_entries_quarantined": 2},
            {"serve.cache_entries_quarantined": 1},
            id="mixed"),
        pytest.param(
            "worker-kill", [1, 2, 3], {"jobs_total": 6, "jobs_failed": 0},
            {"serve.worker_restarts": 1}, id="worker-kill"),
        pytest.param(
            "cache-corrupt", [1, 2], {"jobs_total": 4, "jobs_failed": 0},
            {"serve.cache_entries_quarantined": 1,
             "serve.journal_entries_quarantined": 2},
            id="cache-corrupt"),
    ])
    def test_profile_invariants_hold(self, tmp_path, capsys, profile,
                                     seeds, exact, least):
        code = main(["chaos", "--workloads", "hotspot",
                     "--scale", str(SCALE),
                     "--seeds", *map(str, seeds), "--profile", profile,
                     "--workers", "2", "--max-attempts", "3",
                     "--dir", str(tmp_path / "chaos"), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == []
        assert code == 0 and report["ok"]
        # Keys with a dot are metrics; the rest are report fields.
        assert {key: (report["metrics"] if "." in key else report)[key]
                for key in exact} == exact
        for metric, floor in least.items():
            assert report["metrics"][metric] >= floor, metric

    def test_stalling_profile_requires_job_timeout(self):
        with pytest.raises(ServeError):
            run_chaos(workloads=["hotspot"],
                      profile=ServiceFaultProfile(stall_every_jobs=1))
