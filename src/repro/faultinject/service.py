"""Service-layer fault injection: kill, wedge, and corrupt the fleet.

:mod:`repro.faultinject` so far injected faults *inside* one simulated
run (PCI-e transfer failures, dropped far-fault notifications).  A
:class:`ServiceFaultProfile` lifts the same idea one layer up, to the
serving system itself: worker processes of the :mod:`repro.serve`
fleet consult the profile and deterministically misbehave —

* **SIGKILL at a given per-worker job count** (``kill_every_jobs``):
  the worker dies *before* producing a result, exercising the
  supervisor's crash detection, lease revocation, and requeue path;
* **poison jobs** (``poison_seeds``): any cell whose config seed is
  listed kills every worker that touches it, exercising the
  poison-quarantine path (fail cleanly after K attempts instead of
  crash-looping the fleet);
* **wedged workers** (``stall_every_jobs``/``stall_seconds``): the
  worker sleeps mid-job, exercising the job-deadline/heartbeat kill;
* **cache-entry corruption** (``corrupt_cache_every``): the worker
  truncates the entry it just stored, exercising the run cache's
  quarantine-and-reexecute self-healing on the next read;
* **journal truncation** (``truncate_journal_entries``): the chaos
  harness plants that many corrupt journal files before boot,
  exercising the journal's quarantine-on-replay path.

Everything is counter- or membership-based (plus a ``seed`` for the
harness's own draws), so a given profile produces the *same* fault
sequence on every run — chaos tests are reproducible, exactly like the
hardware-level profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..options import Options


@dataclass(frozen=True)
class ServiceFaultProfile(Options):
    """What goes wrong at the service layer, deterministically."""

    #: Kill the worker (SIGKILL, no cleanup) when its per-lifetime job
    #: counter reaches this value; the counter resets on respawn, so a
    #: fleet under this fault keeps dying every N jobs.  0 disables.
    kill_every_jobs: int = 0
    #: Config seeds whose cells kill any worker executing them — the
    #: deterministic "poison job".
    poison_seeds: tuple[int, ...] = ()
    #: Sleep ``stall_seconds`` before executing every Nth job per
    #: worker (0 disables) — a wedged worker the supervisor must kill
    #: via its job deadline.
    stall_every_jobs: int = 0
    stall_seconds: float = 30.0
    #: Truncate the cache entry the worker just stored, on every Nth
    #: store per worker (0 disables).
    corrupt_cache_every: int = 0
    #: Corrupt journal files the chaos harness plants before booting
    #: the service (harness-level fault; workers ignore it).
    truncate_journal_entries: int = 0
    #: Seed for any randomized harness-side draws.
    seed: int = 0

    kind: ClassVar[str] = "service fault profile"

    @property
    def injects_anything(self) -> bool:
        return bool(self.kill_every_jobs or self.poison_seeds
                    or self.stall_every_jobs or self.corrupt_cache_every
                    or self.truncate_journal_entries)

    # --- worker-side decisions (all pure functions of counters) -------------
    def should_kill(self, job_index: int, config_seed: int) -> bool:
        """Die before executing this job?  ``job_index`` is 1-based and
        per worker lifetime."""
        if config_seed in self.poison_seeds:
            return True
        return bool(self.kill_every_jobs) \
            and job_index % self.kill_every_jobs == 0

    def should_stall(self, job_index: int) -> bool:
        return bool(self.stall_every_jobs) \
            and job_index % self.stall_every_jobs == 0

    def should_corrupt_store(self, store_index: int) -> bool:
        """Corrupt the entry just written?  ``store_index`` is 1-based
        and counts executed (non-cache-hit) stores per worker."""
        return bool(self.corrupt_cache_every) \
            and store_index % self.corrupt_cache_every == 0


#: Named profiles for `repro chaos`, graded by scope.
SERVICE_PROFILES: dict[str, ServiceFaultProfile] = {
    "worker-kill": ServiceFaultProfile(kill_every_jobs=2),
    "poison-job": ServiceFaultProfile(poison_seeds=(1097,)),
    "slow-worker": ServiceFaultProfile(stall_every_jobs=2,
                                       stall_seconds=30.0),
    "cache-corrupt": ServiceFaultProfile(corrupt_cache_every=1,
                                         truncate_journal_entries=2),
    "mixed": ServiceFaultProfile(kill_every_jobs=3,
                                 poison_seeds=(1097,),
                                 corrupt_cache_every=2,
                                 truncate_journal_entries=1),
}

ServiceFaultProfile.named = SERVICE_PROFILES
