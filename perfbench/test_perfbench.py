"""Self-tests for the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
from spans import Instrumentation, SpanRecorder, Target
from stats import REFERENCE_NS, HostSpeed, Ledger, Speed, median, percentile

HERE = Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_and_tail_count():
    values = list(range(1, 101))
    assert percentile(values, 50) == (50.0, 50)
    assert percentile(values, 99) == (99.0, 1)
    assert percentile(values, 100) == (100.0, 0)


def test_p99_has_ten_tail_samples_at_a_thousand():
    values = [float(v) for v in reversed(range(1000))]
    value, beyond = percentile(values, 99)
    assert value == 989.0
    assert beyond == 10


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    assert median([3.0, 1.0, 2.0]) == 2.0


# ----------------------------------------------------------------------
# Host-speed reference
# ----------------------------------------------------------------------
def test_speed_takes_a_slow_spell_out(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    from workloads import UnitResult

    # On a host at half speed the samples and the unit both take twice
    # as long; a pause of the whole VM lengthened one sample more.
    speed = Speed((2 * REFERENCE_NS, 2 * REFERENCE_NS, 5 * REFERENCE_NS))
    assert speed.scale == pytest.approx(1 / 3)
    assert speed.call_scale == 0.5
    unit = UnitResult(
        index=0,
        wall_ns=2_000_000_000,
        scored=800,
        digest="",
        device_digests={},
        speed=speed,
    )
    assert unit.throughput == 400.0
    assert unit.adjusted_s == pytest.approx(2 / 3)


def test_host_speed_samples_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as sampler:
        mark = sampler.mark()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        assert len(sampler.since(mark).samples) >= 3
        # A span too short for the timer is sampled on the spot.
        assert len(sampler.since(sampler.mark()).samples) >= 1
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_from_nested_spans():
    # A [0, 100] holds B [10, 30] (which holds C [12, 17]) and D [40, 45].
    recorder = SpanRecorder(clock=fake_clock([0, 10, 12, 17, 30, 40, 45, 100]))
    a = recorder.open("A")
    b = recorder.open("B")
    c = recorder.open("C")
    recorder.close(c)
    recorder.close(b)
    d = recorder.open("D")
    recorder.close(d)
    recorder.close(a)
    recorder.wall_ns = 120
    table, other = recorder.layers()
    assert table["A"] == {"calls": 1, "self_ns": 75, "total_ns": 100}
    assert table["B"]["self_ns"] == 15
    assert table["C"]["self_ns"] == 5
    assert table["D"]["self_ns"] == 5
    assert other == 20
    assert sum(entry["self_ns"] for entry in table.values()) + other == 120


def test_repeated_spans_aggregate_calls():
    recorder = SpanRecorder(clock=fake_clock([0, 4, 10, 13]))
    for _ in range(2):
        recorder.close(recorder.open("X"))
    recorder.wall_ns = 13
    table, other = recorder.layers()
    assert table["X"] == {"calls": 2, "self_ns": 7, "total_ns": 7}
    assert other == 6
    assert recorder.durations("X") == [4, 3]


@pytest.fixture
def toy_module(monkeypatch):
    module = types.ModuleType("perfbench_toy")

    class Layer:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n * 2

    def free(values):
        return len(values)

    module.Layer = Layer
    module.free = free
    monkeypatch.setitem(sys.modules, "perfbench_toy", module)
    return module


def test_instrumentation_wraps_counts_and_restores(toy_module):
    original = toy_module.Layer.__dict__["outer"]
    recorder = SpanRecorder()

    def count_items(counts, args, kwargs, result):
        counts["items"] += len(args[0])

    targets = [
        Target("toy.outer", (("perfbench_toy", "Layer.outer"),)),
        Target("toy.inner", (("perfbench_toy", "Layer.inner"),)),
        Target("toy.free", (("perfbench_toy", "free"),), count_items),
        Target("toy.gone", (("perfbench_toy", "Layer.deleted"),)),
        Target("toy.nomodule", (("perfbench_toy_absent", "f"),)),
    ]
    with Instrumentation(recorder, targets) as inst:
        layer = toy_module.Layer()
        assert layer.outer(3) == 7
        assert toy_module.free([1, 2, 3]) == 3
    assert inst.missing == ["toy.gone", "toy.nomodule"]
    assert toy_module.Layer.__dict__["outer"] is original
    table, _ = recorder.layers()
    assert table["toy.outer"]["calls"] == 1
    assert table["toy.inner"]["calls"] == 1
    assert recorder.parents[1] == 0  # inner nested under outer
    assert recorder.counts["items"] == 3


def test_instrumentation_wraps_coroutines(toy_module):
    import asyncio

    async def publish(value):
        await asyncio.sleep(0)
        return value

    toy_module.publish = publish
    recorder = SpanRecorder()
    targets = [Target("toy.publish", (("perfbench_toy", "publish"),))]
    with Instrumentation(recorder, targets):
        assert asyncio.run(toy_module.publish(5)) == 5
    assert toy_module.publish is publish
    assert recorder.layers()[0]["toy.publish"]["calls"] == 1


# ----------------------------------------------------------------------
# failed_frac accounting
# ----------------------------------------------------------------------
def test_ledger_counts_skipped_dropped_and_unaccounted():
    ledger = Ledger()
    ledger.add_device(expected=10, emitted=10, scored=10, skipped=0, dropped=0)
    assert ledger.correct and ledger.failed_frac == 0.0
    ledger.add_device(expected=10, emitted=10, scored=7, skipped=2, dropped=1)
    ledger.add_device(expected=10, emitted=9, scored=8, skipped=0, dropped=0)
    # 2 skipped + 1 dropped + (1 never emitted + 1 emitted but lost).
    assert ledger.failed == 5
    assert ledger.attempted == 30
    assert ledger.failed_frac == pytest.approx(5 / 30)
    assert not ledger.correct


def test_ledger_counts_failed_checks():
    ledger = Ledger()
    ledger.add_device(expected=4, emitted=4, scored=4, skipped=0, dropped=0)
    assert ledger.check("digest", True)
    assert not ledger.check("digest", False, "mismatch")
    assert ledger.failed == 1
    assert ledger.failed_frac == 0.25
    assert ledger.failed_checks == ["digest: mismatch"]


def test_ledger_without_attempts_is_not_correct():
    assert not Ledger().correct


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def test_reference_check_reads_the_stored_context_scores(tmp_path, monkeypatch):
    """Context scores the worker stored off by 1e-6 fail the reference
    check on an unrecorded seed, while the records, the detectors and
    the device-alone digest all agree."""
    monkeypatch.syspath_prepend(str(run.SRC))
    from repro.serve import ShardWorker
    from workloads import make_workload

    original = ShardWorker.device_report

    def skewed(self, spec, *args, **kwargs):
        scores = self.states[spec.device_id].context_scores
        scores[:] = [score + 1e-6 for score in scores]
        return original(self, spec, *args, **kwargs)

    monkeypatch.setattr(ShardWorker, "device_report", skewed)
    workload = make_workload("score-replay", 40)
    workload.cache_dir = tmp_path
    workload.prepare(workload.train(tmp_path))
    workload.check_sample(workload.run_unit(0))
    assert len(workload.ledger.failed_checks) == 1
    assert workload.ledger.failed_checks[0].startswith("reference[")


# ----------------------------------------------------------------------
# The contract with BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def _run_bench(*args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )


def test_score_faults_make_failed_frac_nonzero():
    child = _run_bench(
        "--workload", "score-replay", "--seconds", "1", "--fault-rate", "0.02",
        cwd=HERE.parent,
    )
    assert child.returncode == 1
    result = json.loads(child.stdout.strip().split("\n")[-1])
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    child = _run_bench("--workload", "fleet-steady", "--seconds", "1", cwd=tmp_path)
    assert child.returncode != 0
    assert "{" not in child.stdout
