"""HTTP/1.1 JSON API of the simulation service.

Request/response bodies are JSON; errors are structured payloads
(``{"error": {"type", "message"}}``) with meaningful status codes —
simulation faults come back as ``FailedRun`` rows inside a 200 result,
never as 500s.  Routes (see docs/SERVICE.md for the full reference):

====== ============================ =======================================
POST   /v1/jobs                     submit ``{workload, config, seed}``
GET    /v1/jobs                     list known jobs
GET    /v1/jobs/<id>                job status (state machine position)
GET    /v1/jobs/<id>/result         terminal result (409 until terminal);
                                    ``?wait=<s>`` long-polls up to
                                    :data:`MAX_RESULT_WAIT` seconds
DELETE /v1/jobs/<id>                cancel a queued job
GET    /v1/healthz                  liveness + drain state
GET    /v1/metrics                  metrics snapshot incl. p50/p95/p99
GET    /v1/metrics?format=prom      Prometheus text exposition (0.0.4)
GET    /v1/metrics?format=state     raw registry live-state (cluster merge)
GET    /v1/trace                    merged service Chrome trace
POST   /v1/steal                    revoke queued jobs (cluster rebalance)
====== ============================ =======================================

The handler is deliberately thin: :func:`build_cell` validates the job
spec (workload name against the registry, config via
:meth:`SimulatorConfig.from_dict`) and every decision about admission,
coalescing, backpressure, and drain lives in
:class:`~repro.serve.server.SimulationService`.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler
from urllib.parse import parse_qs, urlsplit

from ..config import SimulatorConfig
from ..errors import (
    ConfigurationError,
    DrainingError,
    InvalidJobError,
    JobNotFoundError,
    JobStateError,
    NoShardAvailableError,
    QueueFullError,
    ReproError,
    ShardNotFoundError,
)
from ..stats import FailedRun
from ..sweep import SweepCell
from ..workloads.registry import WORKLOAD_REGISTRY
from .queue import Job

#: Largest accepted request body; a job spec is a few KB at most.
MAX_BODY_BYTES = 1 << 20
#: Longest a result request may be held open (``?wait=`` is clamped).
MAX_RESULT_WAIT = 30.0


def build_cell(spec: object) -> SweepCell:
    """Validate one submitted job spec into an executable cell.

    ``spec`` must be ``{"workload": <name or dict>, "config": <dict,
    optional>, "seed": <int, optional>}``.  The workload name must be
    registered; the config dict round-trips through
    :meth:`SimulatorConfig.from_dict` (unknown fields, fields their
    annotations do not admit and inconsistent values rejected there, by
    name); a top-level ``seed`` overrides
    ``config["seed"]``.  Raises :class:`InvalidJobError` with a message
    safe to echo back to the client.
    """
    if not isinstance(spec, dict):
        raise InvalidJobError(
            f"job spec must be a JSON object, got {type(spec).__name__}"
        )
    unknown = sorted(set(spec) - {"workload", "config", "seed"})
    if unknown:
        raise InvalidJobError(
            f"unknown job-spec fields: {', '.join(unknown)}"
        )
    workload = spec.get("workload")
    if isinstance(workload, str):
        workload = {"name": workload}
    if not isinstance(workload, dict) or "name" not in workload:
        raise InvalidJobError(
            "workload must be a name or an object with a 'name' field"
        )
    if workload["name"] not in WORKLOAD_REGISTRY:
        known = ", ".join(sorted(WORKLOAD_REGISTRY))
        raise InvalidJobError(
            f"unknown workload {workload['name']!r}; known: {known}"
        )
    config_data = spec.get("config") or {}
    try:
        config = SimulatorConfig.from_dict(config_data)
        seed = spec.get("seed")
        if seed is not None:
            config = config.replace(seed=seed)
    except ConfigurationError as exc:
        raise InvalidJobError(f"invalid config: {exc}") from None
    return SweepCell(workload_spec=dict(workload), config=config)


def result_payload(job: Job) -> dict:
    """The ``GET /v1/jobs/<id>/result`` body for a *terminal* job."""
    if isinstance(job.result, FailedRun):
        encoded = {"kind": "failed", "failed": job.result.to_json_dict()}
    elif job.result is not None:
        encoded = {"kind": "stats", "stats": job.result.to_json_dict()}
    else:  # cancelled: terminal without a result
        encoded = {"kind": "cancelled"}
    return {
        "id": job.id,
        "state": job.state,
        "cache_hit": job.cache_hit,
        "result": encoded,
    }


def error_payload(exc: Exception) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Shared JSON-over-HTTP plumbing for service-tier handlers.

    Subclasses implement ``_route(parts)``; the base maps the library's
    error family onto status codes uniformly, so a shard and the
    cluster coordinator disagree on routes but never on error shape.
    """

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    #: TCP_NODELAY on the accepted socket: a kept-alive client must not
    #: wait out Nagle's algorithm for each response.
    disable_nagle_algorithm = True
    #: Overridden per bound handler class (``make_handler``-style).
    verbose = False

    # --- plumbing ----------------------------------------------------
    def log_message(self, format: str, *args) -> None:
        if self.verbose:
            super().log_message(format, *args)

    def _send(self, code: int, payload: dict,
              headers: dict[str, str] | None = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_bytes(code, body, "application/json", headers)

    def _send_text(self, code: int, text: str,
                   content_type: str) -> None:
        self._send_bytes(code, text.encode("utf-8"), content_type)

    def _send_bytes(self, code: int, body: bytes, content_type: str,
                    headers: dict[str, str] | None = None) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        """The whole request body, read before routing so that no
        route leaves an unread body on a kept-alive connection."""
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            # The unread body would be parsed as the next request.
            self.close_connection = True
            raise InvalidJobError(
                f"request body too large ({length} bytes)"
            )
        return self.rfile.read(length) if length else b""

    def _read_json(self) -> object:
        if not self._body:
            raise InvalidJobError("request body must be JSON")
        try:
            return json.loads(self._body)
        except ValueError as exc:
            raise InvalidJobError(
                f"request body is not valid JSON: {exc}"
            ) from None

    def _job_id(self, parts: list[str]) -> str:
        return parts[2]

    def _wait_param(self) -> float:
        """The ``?wait=`` long-poll budget in seconds (0 when absent),
        clamped to :data:`MAX_RESULT_WAIT`."""
        raw = (self._query.get("wait") or ["0"])[0]
        try:
            wait = float(raw)
        except ValueError:
            wait = -1.0
        if not wait >= 0:  # negative, non-numeric or NaN
            raise InvalidJobError(
                f"wait must be a non-negative number of seconds, "
                f"got {raw!r}")
        return min(wait, MAX_RESULT_WAIT)

    def _dispatch(self) -> None:
        split = urlsplit(self.path)
        parts = [part for part in split.path.split("/") if part]
        self._query = parse_qs(split.query)
        try:
            self._body = self._read_body()
            self._route(parts)
        except InvalidJobError as exc:
            self._send(400, error_payload(exc))
        except (JobNotFoundError, ShardNotFoundError) as exc:
            self._send(404, error_payload(exc))
        except QueueFullError as exc:
            self._send(
                429, {**error_payload(exc),
                      "retry_after": exc.retry_after},
                headers={"Retry-After":
                         str(max(1, int(exc.retry_after)))},
            )
        except (DrainingError, NoShardAvailableError) as exc:
            # Temporarily unavailable, not in conflict: come back once
            # the next server generation is up or a shard (re)joins.
            self._send(503, error_payload(exc),
                       headers={"Retry-After": "5"})
        except JobStateError as exc:
            self._send(409, error_payload(exc))
        except ReproError as exc:
            self._send(400, error_payload(exc))

    def _route(self, parts: list[str]) -> None:
        raise NotImplementedError

    do_GET = _dispatch
    do_POST = _dispatch
    do_DELETE = _dispatch


def make_handler(service) -> type[BaseHTTPRequestHandler]:
    """Bind a handler class to one
    :class:`~repro.serve.server.SimulationService`."""

    class ServeHandler(JsonRequestHandler):
        verbose = service.verbose

        # --- routing -----------------------------------------------------
        def _route(self, parts: list[str]) -> None:
            method = self.command
            if parts[:1] != ["v1"]:
                raise JobNotFoundError(f"no such route: {self.path}")
            if parts[1:] == ["healthz"] and method == "GET":
                self._send(200, service.health())
                return
            if parts[1:] == ["metrics"] and method == "GET":
                fmt = (self._query.get("format") or ["json"])[0]
                if fmt == "json":
                    self._send(200, service.metrics_snapshot())
                elif fmt == "prom":
                    self._send_text(
                        200, service.prometheus_metrics(),
                        "text/plain; version=0.0.4; charset=utf-8")
                elif fmt == "state":
                    self._send(200, service.metrics_state())
                else:
                    raise InvalidJobError(
                        f"unknown metrics format {fmt!r}; "
                        "expected json, prom, or state")
                return
            if parts[1:] == ["trace"] and method == "GET":
                trace = service.trace_dict()
                if trace is None:
                    raise JobNotFoundError(
                        "service tracing is disabled; start the daemon "
                        "with --service-trace")
                self._send(200, trace)
                return
            if parts[1:] == ["steal"] and method == "POST":
                self._steal()
                return
            if parts[1:] == ["jobs"]:
                if method == "POST":
                    self._submit()
                    return
                if method == "GET":
                    self._send(200, {"jobs": [
                        job.status_dict() for job in service.queue.jobs()
                    ]})
                    return
            if len(parts) == 3 and parts[1] == "jobs":
                job_id = self._job_id(parts)
                if method == "GET":
                    self._send(200,
                               service.queue.get(job_id).status_dict())
                    return
                if method == "DELETE":
                    job = service.cancel(job_id)
                    self._send(200, job.status_dict())
                    return
            if len(parts) == 4 and parts[1] == "jobs" \
                    and parts[3] == "result" and method == "GET":
                job = service.queue.await_terminal(
                    self._job_id(parts), self._wait_param())
                self._send(200, result_payload(job))
                return
            raise JobNotFoundError(
                f"no such route: {method} {self.path}"
            )

        def _submit(self) -> None:
            job, coalesced = service.submit(
                build_cell(self._read_json()))
            payload = job.status_dict()
            payload["coalesced"] = coalesced
            self._send(202, payload)

        def _steal(self) -> None:
            body = self._read_json()
            if not isinstance(body, dict):
                raise InvalidJobError(
                    f"steal body must be a JSON object, got "
                    f"{type(body).__name__}"
                )
            max_jobs = body.get("max", 1)
            if not isinstance(max_jobs, int) or max_jobs < 1:
                raise InvalidJobError(
                    f"steal 'max' must be a positive integer, got "
                    f"{max_jobs!r}"
                )
            stolen = service.steal_jobs(max_jobs)
            self._send(200, {"stolen": [
                {"id": job.id,
                 "key": job.key,
                 "workload": job.cell.workload_spec,
                 "config": job.cell.config.to_dict()}
                for job in stolen
            ]})

    return ServeHandler
