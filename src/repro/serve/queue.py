"""Job state machine and the bounded, coalescing job queue.

A :class:`Job` wraps one :class:`~repro.sweep.cells.SweepCell` with a
request lifecycle::

    queued --> running --> done | failed
       \\--> cancelled       \\--> queued   (lease revoked: worker died)

Transitions outside those edges raise
:class:`~repro.errors.JobStateError` — a running job cannot be
cancelled (the simulator has no preemption point) and a terminal job
never changes again.  The ``running -> queued`` back-edge exists only
for the supervisor's lease-revocation path: a job whose worker process
died is requeued (ahead of the line) and retried under its original id.

The :class:`JobQueue` is the admission-control heart of the service:

* **bounded** — at most ``capacity`` jobs may wait; one more submission
  raises :class:`~repro.errors.QueueFullError`, which the HTTP layer
  maps to 429 + ``Retry-After`` (explicit backpressure instead of an
  unbounded memory balloon).
* **coalescing** — two submissions whose cells share a content hash
  (:meth:`SweepCell.cache_key`) are *the same simulation*; the second
  returns the first's live job instead of enqueueing a duplicate, so a
  thundering herd of identical what-if cells costs one execution.
* **cache answers** — a submission that brings its run-cache result is
  admitted already terminal, outside the bound.
* **thread-safe** — the HTTP handler threads submit/cancel while worker
  threads :meth:`take`; one condition variable serializes every state
  change, and every change notifies *all* its waiters, because workers
  and long-polling result requests (:meth:`JobQueue.await_terminal`)
  park on it side by side.

Everything here is in-memory policy; persistence lives in
:mod:`repro.serve.journal` and execution in :mod:`repro.serve.server`.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from ..errors import (
    DrainingError,
    JobNotFoundError,
    JobStateError,
    QueueFullError,
)
from ..stats import FailedRun, SimStats
from ..sweep import SweepCell

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Legal state-machine edges; anything else is a JobStateError.  The
#: RUNNING -> QUEUED back-edge is the supervisor's lease-revocation
#: path (worker death), never a client-visible operation.
_TRANSITIONS = {
    QUEUED: {RUNNING, CANCELLED},
    RUNNING: {DONE, FAILED, QUEUED},
    DONE: set(),
    FAILED: set(),
    CANCELLED: set(),
}

#: States in which a job still owns (or will own) an execution slot.
ACTIVE_STATES = (QUEUED, RUNNING)
#: States a job can never leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


@dataclass
class Job:
    """One submitted simulation request and its lifecycle record."""

    id: str
    cell: SweepCell
    #: Monotonic submission sequence number (journal replay order).
    seq: int
    state: str = QUEUED
    #: Set once terminal: the run's stats, or the failure row.
    result: SimStats | FailedRun | None = None
    #: Whether the result came from the run cache without executing.
    cache_hit: bool | None = None
    #: Worker-process lease grants this job has consumed (0 until the
    #: supervisor first leases it; survives restarts via the lease WAL).
    attempts: int = 0
    #: ``time.monotonic()`` timestamps for service-latency metrics.
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None
    #: Signalled on any terminal transition; waiters poll this, never
    #: the wall clock.
    _terminal: threading.Event = field(default_factory=threading.Event,
                                       repr=False)

    @property
    def key(self) -> str:
        """Content hash identifying the simulation (coalescing key)."""
        return self.cell.cache_key()

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def advance(self, state: str) -> None:
        """Move to ``state`` or raise :class:`JobStateError`.

        Callers must hold the owning queue's lock; the method only
        enforces the edge set and stamps timestamps.  An illegal
        transition — including any attempt to leave a terminal state —
        is refused with an error naming both states and the legal
        edges, never applied silently.
        """
        if state not in _TRANSITIONS:
            raise JobStateError(
                f"job {self.id}: unknown target state {state!r} "
                f"(known: {', '.join(sorted(_TRANSITIONS))})"
            )
        if state not in _TRANSITIONS[self.state]:
            allowed = ", ".join(sorted(_TRANSITIONS[self.state])) \
                or "none (terminal)"
            raise JobStateError(
                f"illegal transition for job {self.id}: "
                f"{self.state!r} -> {state!r} (legal from "
                f"{self.state!r}: {allowed})"
            )
        self.state = state
        if state == RUNNING:
            self.started_at = time.monotonic()
        if state in TERMINAL_STATES:
            self.finished_at = time.monotonic()
            self._terminal.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; True if it is."""
        return self._terminal.wait(timeout)

    def service_latency_ns(self) -> float:
        """Submit-to-terminal wall latency in ns (0 until terminal)."""
        if self.finished_at is None:
            return 0.0
        return (self.finished_at - self.submitted_at) * 1e9

    def status_dict(self) -> dict:
        """JSON-able status summary (the ``GET /v1/jobs/<id>`` body)."""
        out = {
            "id": self.id,
            "state": self.state,
            "workload": self.cell.workload_spec.get("name", "?"),
            "workload_spec": self.cell.workload_spec,
            "seq": self.seq,
            "key": self.key,
            "cache_hit": self.cache_hit,
            "attempts": self.attempts,
        }
        if isinstance(self.result, FailedRun):
            out["error"] = {"type": self.result.error_type,
                            "message": self.result.message}
        return out


class JobQueue:
    """Bounded FIFO of jobs with content-hash coalescing.

    ``capacity`` bounds *waiting* jobs only: running jobs have already
    been admitted, and terminal jobs are kept (up to ``history``) for
    result polling without holding queue slots.
    """

    def __init__(self, capacity: int = 64, history: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.history = history
        self._cond = threading.Condition()
        self._waiting: deque[Job] = deque()
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        #: cell key -> active (queued/running) job, the coalescing map.
        self._active_by_key: dict[str, Job] = {}
        self._seq = itertools.count(1)
        self._closed = False

    # --- submission --------------------------------------------------------
    def submit(self, cell: SweepCell, job_id: str | None = None,
               cached: SimStats | FailedRun | None = None,
               ) -> tuple[Job, bool]:
        """Admit one cell; returns ``(job, coalesced)``.

        An identical active cell coalesces (``coalesced=True``, the
        existing job comes back); a full queue raises
        :class:`QueueFullError`; a closed (draining) queue raises
        :class:`DrainingError`.  ``job_id`` pins the id during journal
        replay so clients can keep polling across a restart.

        With a ``cached`` result the job is admitted already terminal
        (``queued -> running -> done|failed`` under this one lock, as a
        cache hit): it takes no queue slot, so a full queue never
        refuses it, and it never coalesces.
        """
        with self._cond:
            if self._closed:
                raise DrainingError("server is draining; not accepting "
                                    "new jobs")
            if cached is None:
                existing = self._active_by_key.get(cell.cache_key())
                if existing is not None:
                    return existing, True
                if len(self._waiting) >= self.capacity:
                    raise QueueFullError(
                        f"job queue is full ({self.capacity} waiting)",
                        retry_after=1.0,
                    )
            seq = next(self._seq)
            if job_id is None:
                job_id = f"j{seq:06d}-{cell.cache_key()[:12]}"
            job = Job(id=job_id, cell=cell, seq=seq)
            self._jobs[job.id] = job
            if cached is None:
                self._waiting.append(job)
                self._active_by_key[job.key] = job
                self._cond.notify_all()
            else:
                job.advance(RUNNING)
                self._finish(job, cached, cache_hit=True)
            self._prune_history()
            return job, False

    def _prune_history(self) -> None:
        """Drop the oldest *terminal* jobs past the history bound."""
        excess = len(self._jobs) - self.history
        if excess <= 0:
            return
        for job_id in [job_id for job_id, job in self._jobs.items()
                       if job.is_terminal][:excess]:
            del self._jobs[job_id]

    # --- worker side -------------------------------------------------------
    def take(self, timeout: float | None = None) -> Job | None:
        """Pop the oldest queued job and mark it running.

        Blocks until a job is available; returns ``None`` when the queue
        is closed (drain) or the timeout expires.  After close, queued
        jobs are deliberately *not* handed out — they stay journaled for
        the next server generation.
        """
        with self._cond:
            while not self._waiting and not self._closed:
                if not self._cond.wait(timeout):
                    return None
            if self._closed:
                return None
            job = self._waiting.popleft()
            job.advance(RUNNING)
            return job

    def requeue(self, job: Job) -> None:
        """Return a *running* job to the front of the queue.

        The supervisor's lease-revocation path: the job's worker died,
        so the job goes back to waiting — ahead of newer submissions to
        bound its latency — and will be retried under its original id.
        Deliberately ignores the capacity bound (the job was already
        admitted) and the closed flag (a crash during drain must not
        lose the job; it stays queued + journaled for the next
        generation).
        """
        with self._cond:
            job.advance(QUEUED)
            self._waiting.appendleft(job)
            self._cond.notify_all()

    def steal(self, max_jobs: int) -> list[Job]:
        """Revoke up to ``max_jobs`` *queued* jobs for another executor.

        The cluster tier's work-stealing primitive: the coordinator asks
        an overloaded shard to give back queued overflow so an idle
        shard can run it.  Jobs come off the *back* of the line — the
        newest submissions, whose latency the move hurts least — and
        leave through the legal ``queued -> cancelled`` edge (from this
        shard's point of view the job is gone; the coordinator re-leases
        the returned cells elsewhere and keeps the cluster-wide id
        mapping).  Running jobs are never stolen: the simulator has no
        preemption point.  Returns the revoked jobs, newest first.
        """
        if max_jobs < 1:
            return []
        stolen: list[Job] = []
        with self._cond:
            while self._waiting and len(stolen) < max_jobs:
                job = self._waiting.pop()
                job.advance(CANCELLED)
                self._active_by_key.pop(job.key, None)
                stolen.append(job)
            self._cond.notify_all()
        return stolen

    def complete(self, job: Job, result: SimStats | FailedRun,
                 cache_hit: bool) -> None:
        """Record a running job's outcome (``done`` or ``failed``)."""
        with self._cond:
            self._finish(job, result, cache_hit)
            self._active_by_key.pop(job.key, None)
            self._cond.notify_all()

    @staticmethod
    def _finish(job: Job, result: SimStats | FailedRun,
                cache_hit: bool) -> None:
        job.result = result
        job.cache_hit = cache_hit
        job.advance(FAILED if isinstance(result, FailedRun) else DONE)

    # --- client side -------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._cond:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no such job: {job_id}")
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a *queued* job; running/terminal jobs refuse."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobNotFoundError(f"no such job: {job_id}")
            job.advance(CANCELLED)  # raises JobStateError unless queued
            self._waiting.remove(job)
            self._active_by_key.pop(job.key, None)
            self._cond.notify_all()
            return job

    def await_terminal(self, job_id: str, timeout: float) -> Job:
        """Block up to ``timeout`` seconds until the job is terminal.

        The long-poll behind ``GET /v1/jobs/<id>/result?wait=``: the
        caller wakes as soon as the job lands.  Raises
        :class:`JobStateError` if the job is still active when the time
        is up, and :class:`DrainingError` as soon as a *queued* job's
        queue is closed: that job runs in the next generation, so the
        parked client gets an answer now instead of a dropped
        connection when the daemon exits.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobNotFoundError(f"no such job: {job_id}")
            while not job.is_terminal:
                if self._closed and job.state == QUEUED:
                    raise DrainingError(
                        f"server is draining; job {job.id} stays queued "
                        "for the next generation")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise JobStateError(
                        f"job {job.id} is {job.state}, not terminal")
                self._cond.wait(remaining)
            return job

    def jobs(self) -> list[Job]:
        """Every known job, oldest first."""
        with self._cond:
            return list(self._jobs.values())

    def pending(self) -> list[Job]:
        """Jobs still waiting for a worker, oldest first."""
        with self._cond:
            return list(self._waiting)

    @property
    def depth(self) -> int:
        """Number of queued (not yet running) jobs."""
        with self._cond:
            return len(self._waiting)

    @property
    def running(self) -> int:
        with self._cond:
            return sum(1 for job in self._jobs.values()
                       if job.state == RUNNING)

    # --- shutdown ----------------------------------------------------------
    def close(self) -> None:
        """Stop admissions and hand-outs; wakes every blocked worker."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed
