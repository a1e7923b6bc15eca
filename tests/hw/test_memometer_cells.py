"""Differential suite: the cell-domain Memometer path vs the address path.

``Memometer.observe_footprint(fp, iters)`` must equal
``Memometer.observe_burst(AccessBurst(fp.addresses, repeat(iters,
step_lengths)))`` bit for bit — both MHM memories, the snoop statistics
and every ``memometer.*`` counter — for footprints that straddle the
region's start and end, hit its partial last cell or lie wholly in
module space, at granularities 2**9 .. 2**16 and iteration counts up
to near ``COUNTER_MAX``, across interval swaps and a mid-run
``reconfigure()``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.hw.memometer import COUNTER_MAX, ControlRegisters, Memometer
from repro.sim.kernel.footprint import CompiledFootprint
from repro.sim.trace import AccessBurst

COUNTERS = (
    "snooped_accesses",
    "accepted_accesses",
    "filtered_accesses",
    "saturated",
    "bursts",
)

#: Where a generated step's fetch range starts, relative to the region.
ANCHORS = ("inside", "straddle-start", "straddle-end", "last-cell", "module-space")


@st.composite
def registers(draw) -> ControlRegisters:
    granularity = 1 << draw(st.integers(min_value=9, max_value=16))
    cells = draw(st.integers(min_value=1, max_value=48))
    # A non-zero trim leaves the last cell covering a partial range.
    trim = draw(st.integers(min_value=0, max_value=granularity - 1))
    return ControlRegisters(
        base_address=draw(st.integers(min_value=1, max_value=1 << 16)) * 4096,
        region_size=max(1, cells * granularity - trim),
        granularity=granularity,
        interval_ns=10_000_000,
    )


@st.composite
def footprints(draw, regs: ControlRegisters) -> CompiledFootprint:
    base, end = regs.base_address, regs.base_address + regs.region_size
    chunks = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        anchor = draw(st.sampled_from(ANCHORS))
        stride = draw(st.sampled_from((4, 16, 64)))
        length = draw(st.integers(min_value=1, max_value=80))
        span = length * stride
        if anchor == "inside":
            start = base + draw(st.integers(min_value=0, max_value=regs.region_size - 1))
        elif anchor == "straddle-start":
            start = base - draw(st.integers(min_value=1, max_value=span))
        elif anchor == "straddle-end":
            start = end - draw(st.integers(min_value=1, max_value=span))
        elif anchor == "last-cell":
            start = end - draw(st.integers(min_value=1, max_value=regs.granularity))
        else:  # module space: wholly above the region
            start = end + draw(st.integers(min_value=0, max_value=1 << 20))
        chunks.append(np.arange(start, start + span, stride, dtype=np.int64))
    steps = len(chunks)
    return CompiledFootprint(
        addresses=np.concatenate(chunks),
        step_lengths=np.array([len(c) for c in chunks], dtype=np.int64),
        mean_iterations=np.ones(steps),
        jitters=np.zeros(steps),
    )


def iteration_counts(steps: int):
    return st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=COUNTER_MAX - 4096, max_value=COUNTER_MAX),
        ),
        min_size=steps,
        max_size=steps,
    ).map(lambda values: np.array(values, dtype=np.int64))


def burst_of(footprint: CompiledFootprint, iters: np.ndarray) -> AccessBurst:
    return AccessBurst(
        time_ns=0,
        addresses=footprint.addresses,
        weights=np.repeat(iters, footprint.step_lengths),
    )


class Pair:
    """A cell-domain and an address-domain Memometer, each with its own
    live metrics registry."""

    def __init__(self, regs: ControlRegisters):
        with obs.observed(with_tracing=False, with_logging=False) as (registry, _):
            self.cell, self.cell_metrics = Memometer(regs), registry
        with obs.observed(with_tracing=False, with_logging=False) as (registry, _):
            self.address, self.address_metrics = Memometer(regs), registry

    def observe(self, footprint: CompiledFootprint, iters: np.ndarray) -> None:
        self.cell.observe_footprint(footprint, iters)
        self.address.observe_burst(burst_of(footprint, iters))

    def boundary(self, time_ns: int) -> None:
        cell = self.cell.interval_boundary(time_ns)
        address = self.address.interval_boundary(time_ns)
        np.testing.assert_array_equal(cell.counts, address.counts)

    def reconfigure(self, regs: ControlRegisters) -> None:
        self.cell.reconfigure(regs)
        self.address.reconfigure(regs)

    def assert_identical(self) -> None:
        for cell_buf, address_buf in zip(self.cell._buffers, self.address._buffers):
            assert cell_buf.dtype == address_buf.dtype
            np.testing.assert_array_equal(cell_buf, address_buf)
        assert self.cell.snooped_accesses == self.address.snooped_accesses
        assert self.cell.accepted_accesses == self.address.accepted_accesses
        for name in COUNTERS:
            key = f"memometer.{name}"
            cell, address = self.cell_metrics.get(key), self.address_metrics.get(key)
            assert cell.value == address.value, key


@st.composite
def runs(draw):
    regs = draw(registers())
    fps = [draw(footprints(regs)) for _ in range(draw(st.integers(1, 3)))]
    calls = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        index = draw(st.integers(min_value=0, max_value=len(fps) - 1))
        calls.append((index, draw(iteration_counts(fps[index].num_steps))))
    return regs, fps, calls


class TestFootprintEqualsBurst:
    @given(run=runs(), swap_after=st.integers(min_value=0, max_value=8))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_including_counters(self, run, swap_after):
        regs, fps, calls = run
        pair = Pair(regs)
        for i, (index, iters) in enumerate(calls):
            pair.observe(fps[index], iters)
            if i == swap_after:
                pair.boundary(10_000_000)
        pair.assert_identical()
        pair.boundary(20_000_000)
        pair.assert_identical()

    @given(
        first=runs(),
        second=registers(),
        iters=st.lists(
            st.integers(min_value=0, max_value=1 << 20), min_size=6, max_size=6
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_reconfigure_mid_run_uses_the_new_geometry(self, first, second, iters):
        regs, fps, calls = first
        pair = Pair(regs)
        for index, counts in calls:
            pair.observe(fps[index], counts)
        pair.reconfigure(second)
        # The footprints were generated against the first geometry; the
        # cached plans must not leak into the second.
        for footprint in fps:
            counts = np.array(iters[: footprint.num_steps], dtype=np.int64)
            pair.observe(footprint, counts)
        pair.assert_identical()
        assert pair.cell.spec == second.spec


class TestSaturation:
    def test_repeated_near_max_bursts_clamp_and_count(self):
        regs = ControlRegisters(0x10000, 0x1000, 512, 10_000_000)
        footprint = CompiledFootprint(
            addresses=np.arange(0x10000 - 64, 0x10000 + 0x1000 + 64, 16),
            step_lengths=np.array([264]),
            mean_iterations=np.ones(1),
            jitters=np.zeros(1),
        )
        pair = Pair(regs)
        for _ in range(3):
            pair.observe(footprint, np.array([COUNTER_MAX - 1], dtype=np.int64))
        pair.assert_identical()
        assert (pair.cell.active_counts() == COUNTER_MAX).all()
        assert pair.cell_metrics.get("memometer.saturated").value > 0

    def test_module_space_only_is_all_filtered(self):
        regs = ControlRegisters(0x10000, 0x1000, 512, 10_000_000)
        footprint = CompiledFootprint(
            addresses=np.arange(0x40000, 0x40400, 16),
            step_lengths=np.array([32, 32]),
            mean_iterations=np.ones(2),
            jitters=np.zeros(2),
        )
        pair = Pair(regs)
        pair.observe(footprint, np.array([3, 5], dtype=np.int64))
        pair.assert_identical()
        assert pair.cell.accepted_accesses == 0
        assert pair.cell.snooped_accesses == 32 * 3 + 32 * 5
        assert footprint.cell_plan(0x10000, 0x1000, 9).cells.size == 0


class TestCellPlan:
    def test_plan_is_cached_per_geometry(self):
        footprint = CompiledFootprint(
            addresses=np.arange(0, 4096, 16),
            step_lengths=np.array([128, 128]),
            mean_iterations=np.ones(2),
            jitters=np.zeros(2),
        )
        plan = footprint.cell_plan(0, 4096, 9)
        assert footprint.cell_plan(0, 4096, 9) is plan
        assert footprint.cell_plan(0, 4096, 10) is not plan
        np.testing.assert_array_equal(plan.cells, np.arange(8))
        # [fetches | in-region | per-cell]: each 512 B cell holds 32
        # 16-byte fetches; step 0 covers cells 0-3, step 1 cells 4-7.
        np.testing.assert_array_equal(plan.matrix[:, :2], [[128, 128], [128, 128]])
        np.testing.assert_array_equal(plan.matrix[0, 2:], [32] * 4 + [0] * 4)
        np.testing.assert_array_equal(plan.matrix[1, 2:], [0] * 4 + [32] * 4)
        assert not plan.matrix.flags.writeable
