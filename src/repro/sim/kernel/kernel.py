"""The kernel facade: the monitored core's operating system.

:class:`Kernel` ties the pieces together — layout, service registry,
syscall table, ASLR state, module loader — and is the single point
through which the simulation emits memory-access bursts.  Everything
the Memometer ever observes flows through :meth:`Kernel._emit`.

When the only attached probe is a Memometer (the paper's ``pre-l1``
placement), a kernel-service invocation goes to it in the cell domain:
the footprint's per-step iteration counts are handed to
:meth:`~repro.hw.memometer.Memometer.observe_footprint` and no address
burst is built.  Any other topology — caches in front of the Memometer
(``post-l1``/``post-l2``), a :class:`~repro.sim.trace.TraceRecorder`, an
extra watcher — gets the full :class:`~repro.sim.trace.AccessBurst`,
which keeps the address path as the differential oracle.  Both paths
make the same RNG draws, so the heat maps are identical either way.

Syscall dispatch honours hijacked table entries (Scenario 3): the
module-space wrapper's fetches are emitted (and filtered out by the
Memometer, since module space is outside the monitored region), the
original handler's fetches are emitted as normal, and the wrapper's
extra latency is added to the CPU time charged to the calling task.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..engine import Simulator
from ..trace import AccessBurst, BurstFanout, TraceProbe
from .aslr import RANDOMIZE_VA_SPACE, AslrState
from .footprint import FootprintCompiler
from .layout import default_layout
from .modules import ModuleLoader
from .syscalls import KernelService, ServiceRegistry, SyscallTable, build_default_services

__all__ = ["Kernel"]


class Kernel:
    """The simulated embedded OS kernel of the monitored core.

    Parameters
    ----------
    sim:
        The shared discrete-event simulator (provides the clock).
    rng:
        Source of all footprint/latency jitter.
    layout, registry, table:
        Optional pre-built pieces; defaults build the synthetic
        Linux-3.4-like kernel from :mod:`repro.sim.kernel.layout` and
        :mod:`repro.sim.kernel.syscalls`.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        layout: Optional[KernelLayout] = None,
        registry: Optional[ServiceRegistry] = None,
        table: Optional[SyscallTable] = None,
        jitter_scale: float = 1.0,
    ):
        if jitter_scale < 0:
            raise ValueError("jitter_scale must be non-negative")
        self.sim = sim
        self.rng = rng
        #: Scales per-invocation footprint jitter; an RTOS-like kernel
        #: (deterministic code paths) uses a value < 1 (paper, Sec. 7).
        self.jitter_scale = jitter_scale
        self.layout = layout or default_layout()
        if registry is None or table is None:
            registry, table = build_default_services(self.layout)
        self.services = registry
        self.syscall_table = table
        self.compiler = FootprintCompiler(self.layout)
        self.aslr = AslrState()
        self.modules = ModuleLoader(self)
        self._fanout = BurstFanout()
        # ``observe_footprint`` of the sole attached probe, when it has
        # one (see the module docstring); None selects the address path.
        self._cell_sink = None
        #: Invocation counts by service name (diagnostics and tests).
        self.invocation_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Probe wiring
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        return self.sim.now

    def attach_probe(self, probe: TraceProbe) -> None:
        """Attach a hardware probe (Memometer snoop port, cache, ...)."""
        self._fanout.attach(probe)
        self._route()

    def detach_probe(self, probe: TraceProbe) -> None:
        self._fanout.detach(probe)
        self._route()

    def _route(self) -> None:
        probes = self._fanout.probes
        sole = probes[0] if len(probes) == 1 else None
        self._cell_sink = getattr(sole, "observe_footprint", None)

    def _emit(
        self, service: KernelService, kind: Optional[str] = None, core: int = 0
    ) -> None:
        footprint = service.footprint
        iters = footprint.sample_iterations(self.rng, self.jitter_scale)
        name = kind or service.name
        if self._cell_sink is not None:
            self._cell_sink(footprint, iters)
        else:
            self._fanout.observe_burst(
                AccessBurst(
                    time_ns=self.now,
                    addresses=footprint.addresses,
                    weights=footprint.weights(iters),
                    kind=name,
                    core=core,
                )
            )
        self.invocation_counts[name] = self.invocation_counts.get(name, 0) + 1

    def emit_user_burst(
        self, addresses: np.ndarray, weights: np.ndarray, core: int = 0
    ) -> None:
        """Emit user-space fetches (filtered out by the Memometer)."""
        self._fanout.observe_burst(
            AccessBurst(
                time_ns=self.now,
                addresses=addresses,
                weights=weights,
                kind="user",
                core=core,
            )
        )

    # ------------------------------------------------------------------
    # Service invocation
    # ------------------------------------------------------------------
    def invoke_syscall(self, name: str, core: int = 0) -> int:
        """Dispatch a system call through the (possibly patched) table.

        Returns the CPU time (ns) the call consumed on the monitored
        core, which the scheduler charges to the calling job.
        """
        service, hijack = self.syscall_table.resolve(name)
        latency = service.sample_latency(self.rng)
        if hijack is not None:
            # Wrapper first (module space, invisible to the MHM) ...
            self._emit(hijack.wrapper, kind=f"hijack.{name}", core=core)
            latency += hijack.extra_latency_ns
        # ... then the original handler, inside the monitored region.
        self._emit(service, kind=f"syscall.{name}", core=core)
        return latency

    def run_service(self, name: str, core: int = 0) -> int:
        """Run a housekeeping kernel path (tick, context switch, ...)."""
        service = self.services.get(name)
        self._emit(service, core=core)
        return service.sample_latency(self.rng)

    # ------------------------------------------------------------------
    # Higher-level kernel operations used by scenarios
    # ------------------------------------------------------------------
    def sysctl_write(self, path: str, value: int) -> int:
        """Write a /proc/sys file: open → write → close, with effects.

        Returns the total CPU time of the three calls.
        """
        latency = self.invoke_syscall("open_procsys")
        latency += self.invoke_syscall("write_procsys")
        latency += self.invoke_syscall("close")
        if path == RANDOMIZE_VA_SPACE:
            self.aslr.sysctl_write(int(value), time_ns=self.now)
        return latency

    def invocation_count(self, name: str) -> int:
        return self.invocation_counts.get(name, 0)
