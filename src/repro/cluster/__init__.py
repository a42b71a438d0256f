"""Multi-host sharded cluster tier for ``repro serve``.

One coordinator (``repro cluster``) federates N independent
``repro serve`` daemons (*shards*) behind a single job API:

* :mod:`repro.cluster.ring` — seeded consistent-hash ring over
  simulation cache keys; identical submissions land (and coalesce) on
  the same shard, so the cluster-wide cache behaves like one cache.
* :mod:`repro.cluster.registry` — shard membership: register,
  heartbeat, dead-on-silence reaping.
* :mod:`repro.cluster.coordinator` — the routing/stealing/failover
  brain plus its HTTP server.  Speaks the same ``/v1/jobs`` API as a
  single shard, so :class:`~repro.serve.client.ServeClient` works
  unchanged against either.
* :mod:`repro.cluster.agent` — the shard-side daemon thread started by
  ``repro serve --join``; registers and heartbeats queue depth.

``repro chaos --cluster`` (:mod:`repro.chaos`) runs this tier under fault.

Everything is stdlib-only, like the rest of the service tier.
"""

from .agent import ShardAgent
from .coordinator import (
    ClusterCoordinator,
    CoordinatorServer,
    RoutedJob,
    run_coordinator,
)
from .registry import ShardInfo, ShardRegistry
from .ring import HashRing

__all__ = [
    "ClusterCoordinator",
    "CoordinatorServer",
    "HashRing",
    "RoutedJob",
    "ShardAgent",
    "ShardInfo",
    "ShardRegistry",
    "run_coordinator",
]
