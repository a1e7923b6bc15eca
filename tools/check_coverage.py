#!/usr/bin/env python
"""Coverage gate: enforce per-package line-coverage floors.

Reads the JSON report produced by ``pytest --cov ...
--cov-report=json:coverage.json`` and enforces two kinds of floors:

* **gated packages** (the ``GATES`` table) — subsystems whose PRs
  landed with a hard coverage requirement must stay at or above their
  floor: ``src/repro/serve/``, ``src/repro/attacks/``,
  ``src/repro/conformance/`` and the second-modality modules
  ``src/repro/learn/contexts.py`` / ``src/repro/learn/ensemble.py``
  at **85 %** aggregate line coverage.  The event-bus control plane
  gets *per-module* floors on top of the ``serve/`` aggregate —
  ``src/repro/serve/bus.py`` and ``src/repro/serve/recalibrate.py``
  each at 85 % — so a well-covered data plane cannot mask an
  untested control plane.  The Memometer's two datapaths and the
  footprint plans they share get per-module floors too —
  ``src/repro/hw/memometer.py`` and ``src/repro/sim/kernel/footprint.py``
  each at 85 %;
* the rest of ``src/repro/`` — must never regress below the captured
  baseline in ``tools/coverage_baseline.json``.

Run ``python tools/check_coverage.py coverage.json --update-baseline``
to ratchet the baseline up after a coverage improvement (review the
diff like any other change; the baseline may only go up).

Exit codes: 0 = every gate passes, 1 = a gate failed or the report is
unreadable.  Kept dependency-free (stdlib only) so the gate itself
needs nothing beyond the JSON report.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: Package prefix -> hard aggregate line-coverage floor (percent).
GATES = {
    "src/repro/serve/": 85.0,
    "src/repro/serve/bus.py": 85.0,
    "src/repro/serve/recalibrate.py": 85.0,
    "src/repro/attacks/": 85.0,
    "src/repro/conformance/": 85.0,
    "src/repro/learn/contexts.py": 85.0,
    "src/repro/learn/ensemble.py": 85.0,
    "src/repro/hw/memometer.py": 85.0,
    "src/repro/sim/kernel/footprint.py": 85.0,
}
BASELINE_PATH = pathlib.Path(__file__).parent / "coverage_baseline.json"


def aggregate(files: dict, predicate) -> tuple:
    covered = statements = 0
    for path, entry in files.items():
        normalized = path.replace("\\", "/")
        if predicate(normalized):
            summary = entry["summary"]
            covered += summary["covered_lines"]
            statements += summary["num_statements"]
    percent = 100.0 * covered / statements if statements else 100.0
    return percent, covered, statements


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="coverage.json produced by pytest-cov")
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite tools/coverage_baseline.json from this report "
        "(only ever raises the floor)",
    )
    args = parser.parse_args(argv)

    try:
        report = json.loads(pathlib.Path(args.report).read_text())
        files = report["files"]
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"coverage gate: unreadable report {args.report}: {exc}")
        return 1

    rest_pct, rest_cov, rest_stmts = aggregate(
        files,
        lambda p: "src/repro/" in p
        and not any(prefix in p for prefix in GATES),
    )

    baseline = json.loads(BASELINE_PATH.read_text())
    rest_floor = float(baseline["rest_of_repro_percent"])

    if args.update_baseline:
        new_floor = max(rest_floor, round(rest_pct, 1))
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "comment": baseline.get("comment", ""),
                    "rest_of_repro_percent": new_floor,
                },
                indent=2,
            )
            + "\n"
        )
        print(f"baseline: rest-of-repro floor {rest_floor} -> {new_floor}")

    failed = False
    for prefix, floor in GATES.items():
        pct, cov, stmts = aggregate(files, lambda p, pre=prefix: pre in p)
        print(
            f"coverage {prefix:<30}: {pct:5.1f}% "
            f"({cov}/{stmts} lines, floor {floor}%)"
        )
        if stmts == 0:
            print(f"coverage gate: no {prefix} files in the report")
            failed = True
        elif pct < floor:
            print(f"coverage gate FAILED: {prefix} below {floor}%")
            failed = True

    print(
        f"coverage rest of src/repro: {rest_pct:5.1f}% "
        f"({rest_cov}/{rest_stmts} lines, floor {rest_floor}%)"
    )
    if rest_pct < rest_floor:
        print(f"coverage gate FAILED: rest of repro below baseline {rest_floor}%")
        failed = True
    if not failed:
        print("coverage gate passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
