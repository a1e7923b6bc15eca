#!/usr/bin/env python3
"""Fleet benchmark: device-interval throughput of ``repro serve``.

Run from the repository root::

    python3 perfbench/run.py                          # every workload
    python3 perfbench/run.py --workload fleet-steady --seed 3 --seconds 20
    python3 perfbench/run.py --workload score-replay --trace 1

Each workload runs in its own process (``--workload all`` spawns one
per workload): cold set-up into a fresh cache under ``.perfbench/``,
a warm-up unit, the timed phase, then the output checks.  The end-to-
end metrics (``--trace 0``) or the per-layer split (``--trace 1``) are
printed by name with unit and sample count; the last line of stdout is
one JSON object ``{correct, attempted, failed, metrics}``.  The exit
code is 0 only when every output check passed.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("fleet-steady", "fleet-attack", "score-replay")

#: Cold set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Timed units per run, at least, whatever ``--seconds`` says.
MIN_UNITS = 3

END_TO_END = {
    "setup_s": "s",
    "throughput_dips": "dev-intervals/s",
    "batch_p50_ms": "ms",
    "batch_p90_ms": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MiB",
}

_TIMED_COUNTS = {
    "kernels.count_cells.addresses": "count",
    "sim.bursts_per_interval": "bursts/interval",
    "serve.worker.rows_per_batch": "rows/batch",
    "kernels.pad_fill": "ratio",
    "serve.bus.block_waits": "count",
    "serve.bus.dropped": "count",
    "serve.bus.shed": "count",
    "serve.recalibrate.commits": "count",
    "serve.recalibrate.rejects": "count",
    "obs.log.records": "count",
    "obs.trace.events": "count",
}


def per_layer_units() -> dict:
    """Every ``--trace 1`` metric name and its unit, in print order."""
    from spans import SETUP_LAYERS, TIMED_LAYERS

    units = {}
    for name in TIMED_LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_pct"] = "%"
    units["other.self_pct"] = "%"
    units["timed.wall_s"] = "s"
    units["tracing.overhead_pct"] = "%"
    units.update(_TIMED_COUNTS)
    for name in SETUP_LAYERS:
        units[f"setup.{name}.calls"] = "count"
        units[f"setup.{name}.self_pct"] = "%"
    units["setup.sim.self_pct"] = "%"
    units["setup.other.self_pct"] = "%"
    units["setup.wall_s"] = "s"
    units["pipeline.cache.hits"] = "count"
    units["pipeline.cache.misses"] = "count"
    return units


#: Python seeds string hashing per process unless ``PYTHONHASHSEED`` is
#: set, and the program's speed follows that seed through its dict and
#: set orders (~8% on one replay input).  Every run uses this seed.
HASH_SEED = "0"


def pin_hash_seed() -> None:
    """Re-execute this script in place, in the same process, with
    ``HASH_SEED`` unless it already runs with it."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])


def pin_environment() -> None:
    """One BLAS thread, default kernels, no user cache — before numpy
    is imported, so the settings take effect."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in ("REPRO_KERNELS", "REPRO_KERNELS_DTYPE"):
        os.environ.pop(var, None)
    os.environ["REPRO_CACHE_DIR"] = str(WORK_ROOT / "unused-default-cache")
    for path in (HERE, SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="all", choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="inject serve.score faults at this rate (shows the checks fire)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def timed_units(workload, seconds, first, recorder=None, probe=None, speed=None):
    """Run units back to back until ``seconds`` have passed.

    With a ``probe`` recording ``score_batch`` spans, each unit keeps
    its own batch latencies; with a ``HostSpeed`` sampler, the host's
    speed while it ran.
    """
    from spans import SCORE_BATCH

    units = []
    deadline = time.perf_counter() + seconds
    while len(units) < MIN_UNITS or time.perf_counter() < deadline:
        mark = len(probe) if probe is not None else 0
        speed_mark = speed.mark() if speed is not None else 0
        unit = workload.run_unit(first + len(units), recorder)
        if speed is not None:
            unit.speed = speed.since(speed_mark)
        if probe is not None:
            unit.batch_ns = probe.durations(SCORE_BATCH.name, since=mark)
        units.append(unit)
    return units


def run_workload(args, work: Path):
    from repro import faults
    from spans import SCORE_BATCH, Instrumentation, SpanRecorder
    from stats import HostSpeed
    from workloads import WARMUP_UNIT, make_workload

    fault_plan = None
    if args.fault_rate:
        fault_plan = faults.FaultPlan(
            sites={
                "serve.score": faults.FaultSpec(
                    mode="raise", probability=args.fault_rate
                )
            },
            seed=args.seed,
        )
    workload = make_workload(args.workload, args.seed, fault_plan)
    run = {"workload": workload, "args": args}

    # Set-up: cold training, each time into an empty cache.
    setup_times = []
    if args.trace:
        recorder = SpanRecorder()
        cache = work / "cache-0"
        with Instrumentation(recorder):
            start = time.perf_counter_ns()
            payload = workload.train(cache)
            recorder.wall_ns = time.perf_counter_ns() - start
        run["setup_recorder"] = recorder
    else:
        with HostSpeed() as speed:
            for rep in range(SETUP_REPS):
                cache = work / f"cache-{rep}"
                mark = speed.mark()
                start = time.perf_counter()
                payload = workload.train(cache)
                elapsed = time.perf_counter() - start
                setup_times.append((elapsed, speed.since(mark).scale))
                if rep < SETUP_REPS - 1:
                    shutil.rmtree(cache)
    run["setup_times"] = setup_times
    workload.cache_dir = cache
    workload.prepare(payload)
    workload.run_unit(WARMUP_UNIT)

    if args.trace:
        untraced = timed_units(workload, args.seconds / 2, 0)
        recorder = SpanRecorder()
        with Instrumentation(recorder) as instrumentation:
            traced = timed_units(workload, args.seconds / 2, len(untraced), recorder)
        run.update(
            untraced=untraced,
            traced=traced,
            recorder=recorder,
            missing=instrumentation.missing,
        )
        units = untraced + traced
    else:
        probe = SpanRecorder()
        with Instrumentation(probe, [SCORE_BATCH]), HostSpeed() as speed:
            units = timed_units(workload, args.seconds, 0, probe=probe, speed=speed)
    run["units"] = units
    workload.check_sample(units[0])
    return run


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(run, lines):
    from stats import median, percentile

    workload, units = run["workload"], run["units"]
    ledger = workload.ledger
    # Every time is brought to the reference host speed with the factor
    # sampled while it ran.  Throughput is then the whole timed phase's;
    # set-up time is the median over set-ups, and each batch percentile
    # the median over units of the unit's percentile.
    setups = [elapsed * scale for elapsed, scale in run["setup_times"]]
    scored = sum(u.scored for u in units)
    measured_s = sum(u.wall_ns for u in units) / 1e9
    unit_ms = [[ns / 1e6 for ns in unit.batch_ns] for unit in units]
    p50 = median([percentile(ms, 50)[0] * u.call_scale
                  for ms, u in zip(unit_ms, units)])
    p90 = median([percentile(ms, 90)[0] * u.call_scale
                  for ms, u in zip(unit_ms, units)])
    batches = min(len(ms) for ms in unit_ms)
    pooled = [value for ms in unit_ms for value in ms]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": (median(setups),
                    f"median of {len(setups)} cold set-ups "
                    f"(as measured: {median([e for e, _ in run['setup_times']]):.4f})"),
        "throughput_dips": (scored / sum(u.adjusted_s for u in units),
                            f"{scored} over {len(units)} timed units (as "
                            f"measured: {scored / measured_s:.1f})"),
        "batch_p50_ms": (p50, f"median over {len(units)} units of the "
                              f"unit p50 (>= {batches} calls each)"),
        "batch_p90_ms": (p90, f"median over {len(units)} units of the "
                              f"unit p90 (>= {batches} calls each)"),
        "ok_frac": (1.0 - ledger.failed_frac,
                    f"{ledger.failed} failed of {ledger.attempted} "
                    "device-intervals (failed_frac "
                    f"{ledger.failed_frac:.6f})"),
        "peak_rss_mb": (rss, "this workload's process"),
    }
    metrics = {}
    for name, unit in END_TO_END.items():
        value, note = values[name]
        metrics[name] = _metric(value, unit)
        lines.append(f"  {name:24s} {value:14.4f} {unit:16s} {note}")
    lines.append(
        "  host speed (reference / measured), per set-up: "
        + " ".join(f"{scale:.3f}" for _, scale in run["setup_times"])
    )
    for q in (50, 90, 99):
        value, beyond = percentile(pooled, q)
        lines.append(
            f"  pooled batch p{q} as measured: {value:.4f} ms over {len(pooled)} calls, "
            f"{beyond} beyond"
        )
    return metrics


def detection_lines(units, lines):
    from stats import median

    attacked = sum(u.attacked for u in units)
    benign = sum(u.benign for u in units)
    if attacked:
        alarmed = sum(u.attacked_alarmed for u in units)
        latencies = [lat for u in units for lat in u.detection_latencies]
        lines.append(
            f"  detected_frac            {alarmed / attacked:14.4f} "
            f"{'fraction':16s} {alarmed} of {attacked} attacked devices"
        )
        if latencies:
            lines.append(
                f"  detect_latency_intervals {median(latencies):14.4f} "
                f"{'intervals':16s} median of {len(latencies)} detections"
            )
    if benign:
        alarmed = sum(u.benign_alarmed for u in units)
        lines.append(
            f"  false_alarm_frac         {alarmed / benign:14.4f} "
            f"{'fraction':16s} {alarmed} of {benign} unattacked devices"
        )


def per_layer_metrics(run, lines):
    from spans import SETUP_LAYERS, SIM_LAYERS, TIMED_LAYERS, format_table
    from stats import median

    units = per_layer_units()
    metrics = {}

    def put(name, value):
        metrics[name] = _metric(value, units[name])

    recorder = run["recorder"]
    table, other_ns = recorder.layers()
    wall = recorder.wall_ns
    zero = {"calls": 0, "self_ns": 0}
    for name in TIMED_LAYERS:
        entry = table.get(name, zero)
        put(f"{name}.calls", entry["calls"])
        put(f"{name}.self_pct", 100.0 * entry["self_ns"] / wall)
    put("other.self_pct", 100.0 * other_ns / wall)
    put("timed.wall_s", wall / 1e9)
    untraced = median([u.throughput for u in run["untraced"]])
    traced = median([u.throughput for u in run["traced"]])
    put("tracing.overhead_pct", 100.0 * (untraced / traced - 1.0))

    counts = dict(recorder.counts)
    for unit in run["traced"]:
        for key, value in unit.counts.items():
            counts[key] = counts.get(key, 0) + value
    for name, unit_name in _TIMED_COUNTS.items():
        if unit_name == "count":
            put(name, counts.get(name, 0))
    intervals = counts.get("sim.intervals", 0)
    bursts = table.get("hw.memometer.observe_burst", zero)["calls"]
    batches = table.get("serve.worker.score_batch", zero)["calls"]
    padded = counts.get("kernels.fleet_score.padded_rows", 0)
    put("sim.bursts_per_interval", bursts / intervals if intervals else 0.0)
    put("serve.worker.rows_per_batch",
        counts.get("serve.worker.rows", 0) / batches if batches else 0.0)
    put("kernels.pad_fill",
        counts.get("kernels.fleet_score.rows", 0) / padded if padded else 0.0)

    setup = run["setup_recorder"]
    setup_table, setup_other = setup.layers()
    for name in SETUP_LAYERS:
        entry = setup_table.get(name, zero)
        put(f"setup.{name}.calls", entry["calls"])
        put(f"setup.{name}.self_pct", 100.0 * entry["self_ns"] / setup.wall_ns)
    sim_ns = sum(setup_table.get(name, zero)["self_ns"] for name in SIM_LAYERS)
    put("setup.sim.self_pct", 100.0 * sim_ns / setup.wall_ns)
    put("setup.other.self_pct", 100.0 * setup_other / setup.wall_ns)
    put("setup.wall_s", setup.wall_ns / 1e9)
    put("pipeline.cache.hits", setup.counts.get("pipeline.cache.hits", 0))
    put("pipeline.cache.misses", setup.counts.get("pipeline.cache.misses", 0))

    lines.extend(format_table(table, other_ns, wall, "timed phase (traced)"))
    lines.extend(format_table(setup_table, setup_other, setup.wall_ns,
                              "cold set-up (traced)"))
    if run["missing"]:
        lines.append(f"  absent from the program: {', '.join(run['missing'])}")
    lines.append(
        f"  tracing overhead: untraced {untraced:.1f} vs traced {traced:.1f} "
        f"dev-intervals/s ({len(run['untraced'])} + {len(run['traced'])} units)"
    )
    for name, value in metrics.items():
        if name.endswith(".calls") or name.endswith("_pct"):
            continue
        lines.append(f"  {name:32s} {value['value']:14.4f} {value['unit']}")
    write_trace(run, table, setup_table, counts)
    return metrics


def write_trace(run, table, setup_table, counts):
    """Keep the spans and layer tables of the traced run."""
    import numpy as np

    args = run["args"]
    out = WORK_ROOT / "traces"
    out.mkdir(parents=True, exist_ok=True)
    stem = out / f"{args.workload}-seed{args.seed}"
    recorder = run["recorder"]
    np.savez_compressed(
        f"{stem}-spans.npz",
        names=np.array(recorder.names),
        name_ids=np.frombuffer(recorder.name_ids, dtype=np.int32),
        starts=np.frombuffer(recorder.starts, dtype=np.int64),
        ends=np.frombuffer(recorder.ends, dtype=np.int64),
        parents=np.frombuffer(recorder.parents, dtype=np.int64),
    )
    Path(f"{stem}-layers.json").write_text(
        json.dumps(
            {
                "timed": {"wall_ns": recorder.wall_ns, "layers": table},
                "setup": {
                    "wall_ns": run["setup_recorder"].wall_ns,
                    "layers": setup_table,
                },
                "counts": counts,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def main_one(args) -> int:
    work = WORK_ROOT / f"run-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workload, units = run["workload"], run["units"]
    lines = [
        f"{args.workload} seed {args.seed} trace {args.trace}: {len(units)} "
        f"timed units, {sum(u.scored for u in units)} device-intervals scored"
    ]
    lines.append(
        "unit throughputs as measured: "
        + " ".join(f"{unit.throughput:.1f}" for unit in units)
    )
    if not args.trace:
        lines.append(
            "unit host speed (reference / measured), mean: "
            + " ".join(f"{unit.scale:.3f}" for unit in units)
        )
        lines.append(
            "unit host speed (reference / measured), per call: "
            + " ".join(f"{unit.call_scale:.3f}" for unit in units)
        )
    lines.extend(workload.describe())
    if args.trace:
        metrics = per_layer_metrics(run, lines)
    else:
        metrics = end_to_end_metrics(run, lines)
        detection_lines(units, lines)
    ledger = workload.ledger
    for failure in ledger.failed_checks:
        lines.append(f"  CHECK FAILED: {failure}")
    print("\n".join(lines), flush=True)
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if ledger.correct else 1


# ----------------------------------------------------------------------
# Every workload, one process each
# ----------------------------------------------------------------------
def main_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--fault-rate", str(args.fault_rate),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        output = child.stdout.rstrip("\n").split("\n")
        print("\n".join(output[:-1]), flush=True)
        try:
            result = json.loads(output[-1])
        except json.JSONDecodeError:
            result = None
        if child.returncode or result is None:
            status = 1
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {SRC / 'repro'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    pin_environment()
    if args.workload == "all":
        return main_all(args)
    return main_one(args)


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
