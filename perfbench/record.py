"""Record the outputs that runs with the default seed (0) must match.

    PYTHONPATH=src python3 perfbench/record.py

Writes ``recorded.json``: the SHA-256 of ``SimStats.to_json()`` of every
``steady`` and ``thrash`` cell, and of the ``tune`` recommendation card.
Re-record only for a change that is meant to alter simulated results,
and say so in the change.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import cells
import tuning

HERE = Path(__file__).resolve().parent


def main() -> None:
    recorded: dict = {}
    for workload, cell_list in cells.CELLS.items():
        recorded[workload] = {
            cell.name: cells.digest(cells.run_cell(cell, "reference", 0))
            for cell in cell_list}
    cache_dir = HERE.parent / ".perfbench_tmp" / "record-cache"
    try:
        recorded["tune_card"] = tuning.digest(
            tuning.tune_once(0, cache_dir).card)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    (HERE / "recorded.json").write_text(
        json.dumps(recorded, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


if __name__ == "__main__":
    main()
