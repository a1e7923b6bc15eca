"""Observability overhead smoke benchmark (``make bench-smoke``).

The zero-overhead claim of :mod:`repro.obs` is structural — with
observability disabled, every instrument is a shared no-op object, so
the hot snoop datapath pays a handful of bound-method calls per
*burst* (never per access).  This benchmark pins the claim down with a
number: driving one million snooped accesses through
``Memometer.observe_burst`` must cost at most 5% more than a
hand-inlined copy of the same datapath with every instrument call
deleted.  The same budget holds for ``Memometer.observe_footprint``,
the cell-domain path ``repro serve`` runs, over the synthetic kernel's
real service footprints.

Run directly (no session-scoped training involved)::

    PYTHONPATH=src python -m pytest benchmarks/test_obs_overhead.py -q
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.hw.memometer import COUNTER_MAX, ControlRegisters, Memometer
from repro.sim.kernel.layout import KERNEL_TEXT_BASE, KERNEL_TEXT_SIZE, default_layout
from repro.sim.kernel.syscalls import build_default_services
from repro.sim.trace import AccessBurst

BURSTS = 1_000
ACCESSES_PER_BURST = 1_000  # 1e6 accesses total
REPEATS = 9
MAX_OVERHEAD = 0.05

REGISTERS = ControlRegisters(
    base_address=0xC000_0000,
    region_size=0x20_0000,  # 2 MB kernel .text
    granularity=2048,
    interval_ns=10_000_000,
)

#: The paper's monitored region (Figure 1), for the footprint path.
PAPER_REGISTERS = ControlRegisters(
    base_address=KERNEL_TEXT_BASE,
    region_size=KERNEL_TEXT_SIZE,
    granularity=2048,
    interval_ns=10_000_000,
)
INVOCATIONS = 20_000


def _make_stream(seed: int = 0) -> list[AccessBurst]:
    rng = np.random.default_rng(seed)
    base, size = REGISTERS.base_address, REGISTERS.region_size
    stream = []
    for i in range(BURSTS):
        addresses = rng.integers(
            base - size // 8, base + size + size // 8, size=ACCESSES_PER_BURST
        ).astype(np.int64)
        weights = np.ones(ACCESSES_PER_BURST, dtype=np.int64)
        stream.append(AccessBurst(time_ns=i, addresses=addresses, weights=weights))
    return stream


class RawMemometer:
    """``Memometer.observe_burst`` with every instrument call deleted.

    Kept byte-for-byte in step with the real datapath (same filtering,
    same bincount, same saturating clamp) so the comparison isolates
    exactly the cost of the no-op instrument calls.
    """

    def __init__(self, registers: ControlRegisters):
        self.registers = registers
        self.spec = registers.spec
        self._buffers = [
            np.zeros(self.spec.num_cells, dtype=np.uint64) for _ in range(2)
        ]
        self._active = 0
        self.snooped_accesses = 0
        self.accepted_accesses = 0

    def observe_burst(self, burst: AccessBurst) -> None:
        total = int(burst.weights.sum())
        self.snooped_accesses += total
        indices, in_region = self.spec.cell_indices(burst.addresses)
        kept = burst.weights[in_region]
        if not kept.size:
            return
        increments = np.bincount(
            indices, weights=kept, minlength=self.spec.num_cells
        ).astype(np.uint64)
        buf = self._buffers[self._active]
        summed = buf + increments
        np.minimum(summed, COUNTER_MAX, out=buf, casting="unsafe")
        self.accepted_accesses += int(kept.sum())

    def observe_footprint(self, footprint, iters) -> None:
        plan = footprint.cell_plan(
            self.registers.base_address, self.registers.region_size, self.spec.shift
        )
        sums = iters @ plan.matrix
        total, accepted = sums[:2].tolist()
        self.snooped_accesses += total
        if accepted == 0:
            return
        buf = self._buffers[self._active]
        cells = plan.cells
        summed = buf[cells] + sums[2:].astype(np.uint64)
        buf[cells] = np.minimum(summed, COUNTER_MAX)
        self.accepted_accesses += accepted


def _make_invocations(seed: int = 0) -> list:
    """``(footprint, iters)`` pairs drawn from every default service."""
    registry, _ = build_default_services(default_layout())
    footprints = [registry.get(name).footprint for name in registry.names()]
    rng = np.random.default_rng(seed)
    return [
        (footprint, footprint.sample_iterations(rng))
        for footprint in (
            footprints[i] for i in rng.integers(0, len(footprints), INVOCATIONS)
        )
    ]


def _time_once(meter, stream) -> int:
    start = time.perf_counter_ns()
    for burst in stream:
        meter.observe_burst(burst)
    return time.perf_counter_ns() - start


def _time_footprints_once(meter, invocations) -> int:
    start = time.perf_counter_ns()
    for footprint, iters in invocations:
        meter.observe_footprint(footprint, iters)
    return time.perf_counter_ns() - start


def _paired_rounds(stream, registers=REGISTERS, timer=_time_once):
    """Per-round (raw, instrumented) wall times, measured back-to-back.

    Timing both datapaths inside the same round means they share one
    CPU-frequency/noise window; the per-round *ratio* is therefore far
    more stable than either absolute time on a busy machine.
    """
    rounds = []
    for _ in range(REPEATS):
        baseline = timer(RawMemometer(registers), stream)
        instrumented = timer(Memometer(registers), stream)
        rounds.append((baseline, instrumented))
    return rounds


def _check_overhead(report, rounds, path: str, workload: str) -> None:
    ratios = sorted(instr / base for base, instr in rounds)
    overhead = ratios[len(ratios) // 2] - 1.0  # median paired ratio
    baseline_ns = min(base for base, _ in rounds)
    report.add(
        f"Disabled-observability overhead on Memometer.{path}",
        f"(median of {REPEATS} paired rounds, {workload} each)",
        "",
    )
    report.table(
        ["quantity", "value"],
        [
            ["raw datapath (best)", f"{baseline_ns / 1e6:.1f} ms"],
            ["median paired overhead", f"{overhead:+.2%}"],
            ["spread", f"{ratios[0] - 1.0:+.2%} .. {ratios[-1] - 1.0:+.2%}"],
            ["budget", f"{MAX_OVERHEAD:.0%}"],
        ],
    )
    assert overhead < MAX_OVERHEAD, (
        f"no-op instruments cost {overhead:.2%} on {path} "
        f"(budget {MAX_OVERHEAD:.0%})"
    )


def test_obs_overhead(report):
    obs.disable()  # the claim under test is the *disabled* path
    stream = _make_stream()

    _paired_rounds(stream[:50])  # warm-up both sides
    rounds = _paired_rounds(stream)
    accesses = BURSTS * ACCESSES_PER_BURST
    _check_overhead(report, rounds, "observe_burst", f"{accesses:.0e} accesses")


def test_obs_overhead_footprint(report):
    obs.disable()
    invocations = _make_invocations()
    timer = _time_footprints_once

    _paired_rounds(invocations[:500], PAPER_REGISTERS, timer)  # warm-up
    rounds = _paired_rounds(invocations, PAPER_REGISTERS, timer)
    _check_overhead(
        report, rounds, "observe_footprint", f"{INVOCATIONS:.0e} service invocations"
    )


def test_raw_and_instrumented_agree_bit_for_bit():
    """The shadow datapath must stay in step with the real one."""
    obs.disable()
    stream = _make_stream(seed=7)[:100]
    raw, real = RawMemometer(REGISTERS), Memometer(REGISTERS)
    for burst in stream:
        raw.observe_burst(burst)
        real.observe_burst(burst)
    np.testing.assert_array_equal(raw._buffers[0], real.active_counts())
    assert raw.snooped_accesses == real.snooped_accesses
    assert raw.accepted_accesses == real.accepted_accesses


def test_raw_and_instrumented_footprints_agree_bit_for_bit():
    obs.disable()
    invocations = _make_invocations(seed=7)[:2_000]
    raw, real = RawMemometer(PAPER_REGISTERS), Memometer(PAPER_REGISTERS)
    for footprint, iters in invocations:
        raw.observe_footprint(footprint, iters)
        real.observe_footprint(footprint, iters)
    np.testing.assert_array_equal(raw._buffers[0], real.active_counts())
    assert raw.snooped_accesses == real.snooped_accesses
    assert raw.accepted_accesses == real.accepted_accesses
