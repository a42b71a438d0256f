"""Tests for the CLI --config-file option."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError

#: (file text, field the error must name) pairs each rejected with a
#: ConfigurationError -- exit 2 from ``python -m repro``.
REJECTED_FILES = [
    ('{"bogus_field": 1}', "bogus_field"),
    ("not json {", "not JSON"),
    ('{"batch_fault_handling": "false"}', "batch_fault_handling"),
    ('{"tlb_entries": true}', "tlb_entries"),
    ('{"fault_batch_limit": 1.5}', "fault_batch_limit"),
    ('{"l2_enabled": 1}', "l2_enabled"),
    ('{"trace": "false"}', "trace"),
    ('{"fault_handling_latency_ns": NaN}', "fault_handling_latency_ns"),
    ('{"pcie_calibration": {"4096": "x"}}', "pcie_calibration"),
]

#: (file fields, extra flags) runs the file must configure, not crash.
ACCEPTED_FILES = [
    ({"pcie_calibration": {"4096": 3.0e9, "2097152": 1.2e10}}, []),
    ({"device_memory_bytes": 4 * 2**20}, ["--oversubscription", "110"]),
]


class TestConfigFile:
    def test_file_values_override_flags(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "prefetcher": "sequential-local",
            "num_sms": 2,
        }))
        code = main(["run", "pathfinder", "--scale", "0.1",
                     "--config-file", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "prefetcher=sequential-local" in out

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(SystemExit):
            main(["run", "pathfinder", "--scale", "0.1",
                  "--config-file", str(path)])

    def test_invalid_field_surfaces_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"num_sms": 0}))
        with pytest.raises(ConfigurationError):
            main(["run", "pathfinder", "--scale", "0.1",
                  "--config-file", str(path)])

    def test_combines_with_oversubscription_flag(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"eviction": "tbn"}))
        code = main(["run", "hotspot", "--scale", "0.1",
                     "--oversubscription", "110",
                     "--keep-prefetching",
                     "--config-file", str(path)])
        assert code == 0
        assert "eviction=tbn" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, named", REJECTED_FILES,
        ids=[named.replace(" ", "-") for _, named in REJECTED_FILES])
    def test_malformed_file_is_a_configuration_error(self, tmp_path,
                                                     text, named):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=named):
            main(["run", "pathfinder", "--scale", "0.1",
                  "--config-file", str(path)])

    @pytest.mark.parametrize(
        "fields, flags", ACCEPTED_FILES,
        ids=["pcie_calibration", "device_memory_bytes-oversubscription"])
    def test_file_fields_reach_the_config(self, capsys, tmp_path,
                                          fields, flags):
        argv = ["run", "pathfinder", "--scale", "0.1", "--json", *flags]
        assert main(argv) == 0
        flags_only = capsys.readouterr().out
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(fields))
        assert main([*argv, "--config-file", str(path)]) == 0
        assert capsys.readouterr().out != flags_only
