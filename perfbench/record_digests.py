#!/usr/bin/env python3
"""Record the fleet digests that ``run.py`` checks each unit against.

    python3 perfbench/record_digests.py --seeds 0-15 --units 3

For every workload and seed this trains the detectors into a scratch
cache under ``.perfbench/``, runs the first ``--units`` timed units
untimed, and writes their fleet digests to ``perfbench/digests.json``.
Re-record only when a change is meant to alter the program's scores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import run


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-15")
    parser.add_argument("--units", type=int, default=3)
    args = parser.parse_args()
    run.pin_environment()
    from workloads import DIGESTS_PATH, make_workload

    table = {}
    for name in run.WORKLOAD_NAMES:
        for seed in parse_seeds(args.seeds):
            work = run.WORK_ROOT / f"record-{name}-{seed}-{os.getpid()}"
            try:
                workload = make_workload(name, seed)
                payload = workload.train(work)
                workload.cache_dir = work
                workload.prepare(payload)
                digests = [
                    workload.run_unit(index).digest for index in range(args.units)
                ]
            finally:
                shutil.rmtree(work, ignore_errors=True)
            table.setdefault(name, {})[str(seed)] = digests
            print(name, seed, [digest[:12] for digest in digests], flush=True)
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
