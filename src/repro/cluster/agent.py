"""Shard-side cluster membership: the ``--join`` agent thread.

``repro serve --join http://coordinator:port`` starts one
:class:`ShardAgent` next to the HTTP listener.  The agent registers
the shard with the coordinator (with capped-backoff retries — the
coordinator may boot after its shards) and then heartbeats queue
depth and in-flight count every ``interval`` seconds, which is all
the coordinator needs for routing and work-stealing decisions.

Membership is strictly additive: a shard that never reaches its
coordinator still serves its local API; losing the coordinator
mid-run costs routing, never admission.  The agent therefore treats
every network error as retryable and never raises into the daemon.
"""

from __future__ import annotations

import sys
import threading
import uuid

from ..errors import ReproError
from ..serve.client import ServeClient

#: Default seconds between heartbeats.
DEFAULT_HEARTBEAT_INTERVAL = 1.0


def parse_coordinator_url(url: str) -> tuple[str, int]:
    """``http://host:port`` (scheme optional) -> ``(host, port)``."""
    client = ServeClient.from_url(url)
    return client.host, client.port


class ShardAgent:
    """Daemon thread registering + heartbeating one shard."""

    def __init__(self, service, coordinator_url: str,
                 advertise_host: str, advertise_port: int,
                 shard_id: str | None = None,
                 interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 client: ServeClient | None = None) -> None:
        if interval <= 0:
            raise ReproError(
                f"heartbeat interval must be > 0, got {interval}"
            )
        self.service = service
        self.coordinator_url = coordinator_url
        self.advertise_host = advertise_host
        self.advertise_port = advertise_port
        self.shard_id = shard_id or \
            f"shard-{advertise_host}-{advertise_port}-" \
            f"{uuid.uuid4().hex[:6]}"
        self.interval = interval
        if client is None:
            host, port = parse_coordinator_url(coordinator_url)
            client = ServeClient(host=host, port=port, timeout=5.0,
                                 backpressure_retries=0)
        self.client = client
        self.registered = False
        self.heartbeats_sent = 0
        self.errors = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # --- protocol ----------------------------------------------------------
    def _register_once(self) -> bool:
        try:
            self.client.register_shard({
                "id": self.shard_id,
                "host": self.advertise_host,
                "port": self.advertise_port,
                "workers": self.service.jobs,
            })
        except ReproError:
            self.errors += 1
            return False
        self.registered = True
        self.service.shard_id = self.shard_id
        self.service.coordinator_url = self.coordinator_url
        return True

    def _heartbeat_once(self) -> bool:
        try:
            self.client.heartbeat_shard({
                "id": self.shard_id,
                "queue_depth": self.service.queue.depth,
                "running": self.service.queue.running,
            })
        except ReproError:
            self.errors += 1
            # The coordinator may have restarted (or reaped us);
            # re-register on the next pass.
            self.registered = False
            return False
        self.heartbeats_sent += 1
        return True

    def _loop(self) -> None:
        while not self._stop.is_set():
            if not self.registered:
                self._register_once()
            if self.registered:
                self._heartbeat_once()
            self._stop.wait(self.interval)

    # --- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        # One synchronous attempt so the boot log can say whether the
        # cluster is reachable; failures retry in the background.
        if not self._register_once():
            print(f"[serve] coordinator {self.coordinator_url} not "
                  f"reachable yet; will keep retrying",
                  file=sys.stderr)
        self._thread = threading.Thread(
            target=self._loop, name="shard-agent", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.client.close()
