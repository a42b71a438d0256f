#!/usr/bin/env python3
"""Regenerate every experiment table into results/ (and optionally at the
headline scale used by EXPERIMENTS.md).

Usage:
    python scripts/regenerate_results.py [--scale 0.4] [--out results]
    python scripts/regenerate_results.py --jobs 4     # process-pool fan-out
    python scripts/regenerate_results.py --headline   # adds scale-1.0
                                                      # fig11/13/15/16

This is the one-command refresh for the numbers quoted in EXPERIMENTS.md.
Simulations go through the on-disk run cache (results/.runcache/ by
default, see docs/SWEEP.md), so an interrupted refresh resumes where it
left off; ``--no-cache`` forces everything to re-run.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import EXPERIMENTS  # noqa: E402
from repro.experiments import table_filename  # noqa: E402
from repro.sweep import (  # noqa: E402
    DEFAULT_CACHE_DIR,
    RunCache,
    sweep_context,
)

HEADLINE = ("fig11", "fig13", "fig15", "fig16")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=0.4)
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument("--headline", action="store_true",
                        help="also regenerate the scale-1.0 headline "
                             "figures into <out>_s1/")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the simulation fan-out")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk run cache")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help=f"run-cache directory (default: "
                             f"{DEFAULT_CACHE_DIR})")
    args = parser.parse_args()

    cache = None if args.no_cache else RunCache(
        args.cache_dir if args.cache_dir is not None else DEFAULT_CACHE_DIR
    )
    args.out.mkdir(parents=True, exist_ok=True)
    with sweep_context(jobs=args.jobs, cache=cache) as report:
        for name in sorted(EXPERIMENTS):
            start = time.time()
            result = EXPERIMENTS[name](args.scale)
            (args.out / table_filename(result.name)).write_text(
                result.to_table() + "\n")
            print(f"{name:20s} {time.time() - start:6.1f}s")

        if args.headline:
            headline_dir = Path(str(args.out) + "_s1")
            headline_dir.mkdir(parents=True, exist_ok=True)
            for name in HEADLINE:
                start = time.time()
                result = EXPERIMENTS[name](1.0)
                (headline_dir / table_filename(result.name)).write_text(
                    result.to_table() + "\n"
                )
                print(f"{name:20s} (scale 1.0) "
                      f"{time.time() - start:6.1f}s")
    print(f"[sweep] {report.summary()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
