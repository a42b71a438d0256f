"""Byte-identity of config serialization against history.

``SimulatorConfig.to_dict()`` is hashed into every run-cache key
(``results/.runcache``, shard caches) and named profiles are serialized
into those configs, so neither may drift silently.  The digest below
was computed before the configs and profiles shared the typed-options
base; a change to any ``to_dict()`` or ``cache_key()`` in the set fails
here until someone acknowledges it by updating the pin.
"""

import hashlib
import json

from repro.bench import cell_config, equivalence_matrix
from repro.config import SimulatorConfig
from repro.faultinject import CLUSTER_PROFILES, PROFILES, SERVICE_PROFILES
from repro.presets import PRESETS, preset_config
from repro.workloads import make_workload

HISTORY_DIGEST = \
    "28d0617e2a801b1835d469f3404f4095588da4f5ea0f1f3f99734d711ea34600"


def history_configs() -> list[SimulatorConfig]:
    """The default config, every preset, every named fault profile, a
    calibration override and every equivalence-matrix cell under both
    engines."""
    hotspot = make_workload("hotspot", scale=0.12)
    configs = [SimulatorConfig()]
    configs += [preset_config(name, hotspot) for name in sorted(PRESETS)]
    configs += [SimulatorConfig(fault_profile=profile, seed=3)
                for _, profile in sorted(PROFILES.items())]
    configs.append(SimulatorConfig(pcie_calibration={
        2097152: 1.2e10, 4096: 3_000_000_000, 65536: 6e9}))
    for cell in equivalence_matrix(scale=0.1):
        workload = make_workload(cell.workload, scale=cell.scale,
                                 **dict(cell.kwargs))
        for engine in ("reference", "fast"):
            configs.append(cell_config(cell, engine, workload))
    return configs


def test_to_dict_and_cache_keys_match_history():
    digest = hashlib.sha256()
    configs = history_configs()
    for config in configs:
        digest.update(json.dumps(config.to_dict()).encode())
        digest.update(config.cache_key().encode())
    for table in (PROFILES, SERVICE_PROFILES, CLUSTER_PROFILES):
        for name, profile in sorted(table.items()):
            digest.update(name.encode())
            digest.update(json.dumps(profile.to_dict()).encode())
    assert len(configs) == 56
    assert digest.hexdigest() == HISTORY_DIGEST

