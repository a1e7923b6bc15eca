"""The Memometer: on-chip memory-behaviour monitoring hardware.

Section 3 of the paper.  The Memometer snoops the address line between
the monitored core and its L1 cache, filters addresses against the
configured region, computes the target cell with a logical right shift,
and increments a 32-bit counter in one of two 8 KB on-chip MHM memories.
At each monitoring-interval boundary the two memories swap roles
(double buffering): the freshly completed MHM is handed to the secure
core for analysis while the other memory starts counting the next
interval.

This model is bit-exact at the level that matters:

* the filter/shift arithmetic is the hardware formula
  (via :class:`~repro.core.spec.HeatMapSpec`);
* counters saturate at 2**32 - 1;
* an MHM may have at most ``8 KB / 4 B = 2048`` cells — the paper's
  "at most about 2,000 cells";
* monitoring is uninterrupted across the swap: accesses observed while
  the secure core analyses buffer *i* land in buffer *1-i*.

A scalar :meth:`Memometer.observe` reproduces the per-address datapath;
:meth:`Memometer.observe_burst` bins a whole address burst and
:meth:`Memometer.observe_footprint` is the cell-domain fast path the
simulator takes when nothing sits between the core and the Memometer.
The burst path routes through :func:`repro.kernels.count_cells`, so the
``REPRO_KERNELS`` switch selects between the vectorised histogram
(``np.bincount`` over the shifted offsets) and the scalar reference
oracle; the differential suite holds the two bit-identical.  The
footprint path applies a precomputed per-geometry
:class:`~repro.sim.kernel.footprint.CellPlan` instead of binning, and
is held bit-identical to the burst path (``tests/hw/test_memometer_cells.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .. import kernels, obs
from ..core.mhm import MemoryHeatMap
from ..core.spec import HeatMapSpec
from ..sim.trace import AccessBurst

if TYPE_CHECKING:
    from ..sim.kernel.footprint import CompiledFootprint

__all__ = [
    "MHM_MEMORY_BYTES",
    "COUNTER_BYTES",
    "MAX_CELLS",
    "COUNTER_MAX",
    "MemometerConfigError",
    "ControlRegisters",
    "Memometer",
]

#: Each of the two on-chip MHM memories is 8 KB (Section 5.1).
MHM_MEMORY_BYTES = 8 * 1024
#: Each cell counts "up to 2**32" — a 32-bit counter.
COUNTER_BYTES = 4
#: Maximum number of cells an MHM can have (the paper's ~2,000).
MAX_CELLS = MHM_MEMORY_BYTES // COUNTER_BYTES
#: Saturation value of a cell counter.
COUNTER_MAX = 2**32 - 1


class MemometerConfigError(ValueError):
    """Raised when control-register values are unrepresentable."""


@dataclass(frozen=True)
class ControlRegisters:
    """The secure core's view of the Memometer configuration.

    Section 3.1: "(a) the base address of the target monitoring region;
    (b) the size of the region; (c) the granularity (a power of 2) and
    (d) the monitoring interval."
    """

    base_address: int
    region_size: int
    granularity: int
    interval_ns: int

    def __post_init__(self) -> None:
        if self.interval_ns <= 0:
            raise MemometerConfigError("monitoring interval must be positive")
        spec = self.spec  # validates base/size/granularity
        if spec.num_cells > MAX_CELLS:
            raise MemometerConfigError(
                f"{spec.num_cells} cells exceed the on-chip MHM memory "
                f"({MAX_CELLS} cells = {MHM_MEMORY_BYTES} bytes); "
                f"increase the granularity"
            )

    @property
    def spec(self) -> HeatMapSpec:
        return HeatMapSpec(
            base_address=self.base_address,
            region_size=self.region_size,
            granularity=self.granularity,
        )


class Memometer:
    """The snooping counter array with double-buffered MHM memories.

    Parameters
    ----------
    registers:
        Monitoring parameters (written by the secure core).
    on_heatmap:
        Callback invoked at each interval boundary with the completed
        :class:`MemoryHeatMap` — "the controller informs the secure
        core of the creation of an MHM".
    """

    def __init__(
        self,
        registers: ControlRegisters,
        on_heatmap: Optional[Callable[[MemoryHeatMap], None]] = None,
    ):
        self.registers = registers
        self.spec = registers.spec
        self._geometry = (
            registers.base_address, registers.region_size, self.spec.shift
        )
        self.on_heatmap = on_heatmap
        # Two identical on-chip memories; uint64 backing, saturated at
        # COUNTER_MAX on every update, so overflow cannot wrap.
        self._buffers = [
            np.zeros(self.spec.num_cells, dtype=np.uint64),
            np.zeros(self.spec.num_cells, dtype=np.uint64),
        ]
        self._active = 0
        self._interval_index = 0
        self._interval_start_ns = 0
        # Snoop statistics (diagnostics only; not architectural).
        self.snooped_accesses = 0
        self.accepted_accesses = 0
        # Observability instruments (no-op singletons when disabled;
        # the burst path pays a few bound-method calls per burst, the
        # footprint path one flag test).  Cached here, so enable
        # repro.obs *before* constructing the Memometer.
        registry = obs.metrics()
        self._metric_snooped = registry.counter("memometer.snooped_accesses")
        self._metric_accepted = registry.counter("memometer.accepted_accesses")
        self._metric_filtered = registry.counter("memometer.filtered_accesses")
        self._metric_saturated = registry.counter("memometer.saturated")
        self._metric_bursts = registry.counter("memometer.bursts")
        self._metric_swaps = registry.counter("memometer.swaps")
        self._counting = registry.enabled
        self._tracer = obs.tracer()

    # ------------------------------------------------------------------
    # Snoop datapath
    # ------------------------------------------------------------------
    def observe(self, address: int, weight: int = 1) -> bool:
        """Scalar datapath: one snooped address.

        Implements the exact Section 3.1 steps: offset, bounds check,
        logical right shift, saturating increment.  Returns whether the
        address passed the filter.
        """
        self.snooped_accesses += weight
        self._metric_snooped.inc(weight)
        offset = address - self.registers.base_address
        if not 0 <= offset < self.registers.region_size:
            self._metric_filtered.inc(weight)
            return False
        idx = offset >> self.spec.shift
        buf = self._buffers[self._active]
        summed = int(buf[idx]) + weight
        if summed > COUNTER_MAX:
            self._metric_saturated.inc()
            summed = COUNTER_MAX
        buf[idx] = summed
        self.accepted_accesses += weight
        self._metric_accepted.inc(weight)
        return True

    def observe_burst(self, burst: AccessBurst) -> None:
        """Batched datapath: a burst of snooped addresses per kernel call."""
        total = int(burst.weights.sum())
        self.snooped_accesses += total
        self._metric_snooped.inc(total)
        self._metric_bursts.inc()
        increments, accepted = kernels.count_cells(
            burst.addresses,
            burst.weights,
            base_address=self.registers.base_address,
            region_size=self.registers.region_size,
            shift=self.spec.shift,
            num_cells=self.spec.num_cells,
        )
        if accepted == 0:
            self._metric_filtered.inc(total)
            return
        buf = self._buffers[self._active]
        # Counts are non-negative int64: viewing them as uint64 is the
        # same values without the copy astype would make.
        summed = buf + increments.view(np.uint64)
        if self._metric_saturated.enabled:
            over = summed > COUNTER_MAX
            if over.any():
                self._metric_saturated.inc(int(over.sum()))
        np.minimum(summed, COUNTER_MAX, out=buf, casting="unsafe")
        self.accepted_accesses += accepted
        self._metric_accepted.inc(accepted)
        self._metric_filtered.inc(total - accepted)

    def observe_footprint(
        self, footprint: CompiledFootprint, iters: np.ndarray
    ) -> None:
        """Cell-domain datapath: one kernel-service invocation.

        Equivalent, bit for bit, to :meth:`observe_burst` on the burst
        ``(footprint.addresses, footprint.weights(iters))`` — the
        footprint's :class:`~repro.sim.kernel.footprint.CellPlan` for
        this geometry turns the per-step iteration counts into the
        snooped total, the accepted total and the per-cell increments
        with one integer product.  Clamping at ``COUNTER_MAX`` commutes
        with non-negative increments, so per-invocation application is
        the same as per-address.
        """
        plan = footprint.cell_plan(*self._geometry)
        sums = iters @ plan.matrix
        total, accepted = sums[:2].tolist()
        self.snooped_accesses += total
        saturated = 0
        if accepted:
            buf = self._buffers[self._active]
            cells = plan.cells
            summed = buf[cells] + sums[2:].astype(np.uint64)
            if self._counting:
                saturated = int(np.count_nonzero(summed > COUNTER_MAX))
            buf[cells] = np.minimum(summed, COUNTER_MAX)
            self.accepted_accesses += accepted
        # A per-invocation call is a few microseconds, so the five
        # counter updates sit behind one flag rather than costing five
        # no-op calls each time.
        if self._counting:
            self._metric_snooped.inc(total)
            self._metric_bursts.inc()
            self._metric_accepted.inc(accepted)
            self._metric_filtered.inc(total - accepted)
            self._metric_saturated.inc(saturated)

    # ------------------------------------------------------------------
    # Double buffering
    # ------------------------------------------------------------------
    @property
    def active_buffer_index(self) -> int:
        return self._active

    def active_counts(self) -> np.ndarray:
        """A *copy* of the in-progress MHM (diagnostics)."""
        return self._buffers[self._active].astype(np.int64)

    def interval_boundary(self, time_ns: int) -> MemoryHeatMap:
        """Swap buffers at a monitoring-interval boundary.

        The completed MHM (from the previously active memory) is
        returned — and pushed to ``on_heatmap`` — while the other
        memory, already reset by the previous analysis phase, starts
        counting the new interval immediately.
        """
        completed_index = self._active
        self._active = 1 - self._active
        completed = self._buffers[completed_index]
        heat_map = MemoryHeatMap(
            self.spec,
            completed.astype(np.int64),
            interval_index=self._interval_index,
            start_time_ns=self._interval_start_ns,
        )
        # "Once the secure core is done with the analysis, the old MHM
        # is reset."  Analysis is instantaneous from the monitored
        # core's perspective (it runs on the other core), so the reset
        # happens before this buffer is active again.
        completed[:] = 0
        self._interval_index += 1
        self._interval_start_ns = time_ns
        self._metric_swaps.inc()
        self._tracer.instant(
            "memometer.buffer_swap",
            time_ns,
            category="hw",
            args={
                "interval_index": heat_map.interval_index,
                "completed_buffer": completed_index,
                "active_buffer": self._active,
                "total_accesses": int(heat_map.counts.sum()),
            },
        )
        if self.on_heatmap is not None:
            self.on_heatmap(heat_map)
        return heat_map

    @property
    def intervals_completed(self) -> int:
        return self._interval_index

    # ------------------------------------------------------------------
    # Runtime reconfiguration
    # ------------------------------------------------------------------
    def reconfigure(self, registers: ControlRegisters) -> None:
        """Rewrite the control registers (secure-core operation).

        Section 3.1: the monitoring parameters live in control
        registers the secure core writes — so the monitored region and
        granularity can be retargeted at run time (e.g. to sweep
        granularities, or to point a spare Memometer at module space
        after a load event).  Reconfiguration resets both MHM memories
        and the interval counter; monitoring restarts cleanly.
        """
        self.registers = registers
        self.spec = registers.spec
        self._geometry = (
            registers.base_address, registers.region_size, self.spec.shift
        )
        self._buffers = [
            np.zeros(self.spec.num_cells, dtype=np.uint64),
            np.zeros(self.spec.num_cells, dtype=np.uint64),
        ]
        self._active = 0
        self._interval_index = 0
        self._interval_start_ns = 0
        self.snooped_accesses = 0
        self.accepted_accesses = 0

    @property
    def drop_rate(self) -> float:
        """Fraction of snooped accesses filtered out (user space etc.)."""
        if self.snooped_accesses == 0:
            return 0.0
        return 1.0 - self.accepted_accesses / self.snooped_accesses
