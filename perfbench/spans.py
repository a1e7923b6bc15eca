"""Outside-in span tracing for the benchmark's traced run.

The program is not edited: :class:`Instrumentation` swaps each layer's
public callable for a wrapper that records a span (name, start, end,
parent) in a :class:`SpanRecorder`, and puts the originals back on
exit.  Install it before the workload builds its objects — a platform
binds its snoop chain when it is constructed.

A span's self time is its duration minus the durations of its direct
children.  Spans nest in wall time (the workloads run one thread; the
only coroutine wrapped, ``EventBus.publish``, is awaited by a single
task), so the self times of all spans plus ``other`` — the recorded
wall time outside every top-level span — add up to that wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SpanRecorder",
    "Target",
    "Instrumentation",
    "LAYERS",
    "SCORE_BATCH",
    "TIMED_LAYERS",
    "SETUP_LAYERS",
    "SIM_LAYERS",
    "format_table",
]


class SpanRecorder:
    """Spans and counts, kept in memory until the run ends."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        #: Wall time of the recorded segments (``other`` is measured
        #: against it); the workload adds each timed unit's wall.
        self.wall_ns = 0

    def __len__(self) -> int:
        return len(self.starts)

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        else:
            self._stack.remove(index)

    def durations(self, name: str, since: int = 0) -> List[int]:
        """Durations (ns) of the spans called ``name`` from span index
        ``since`` on, in order."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            return []
        return [
            self.ends[i] - self.starts[i]
            for i in range(since, len(self.starts))
            if self.name_ids[i] == name_id
        ]

    def layers(self) -> Tuple[Dict[str, dict], int]:
        """``({name: {calls, self_ns, total_ns}}, other_ns)``."""
        count = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        child_ns = [0] * count
        top_ns = 0
        for i in range(count):
            parent = self.parents[i]
            if parent < 0:
                top_ns += durations[i]
            else:
                child_ns[parent] += durations[i]
        table: Dict[str, dict] = {}
        for i in range(count):
            entry = table.setdefault(
                self.names[self.name_ids[i]],
                {"calls": 0, "self_ns": 0, "total_ns": 0},
            )
            entry["calls"] += 1
            entry["self_ns"] += durations[i] - child_ns[i]
            entry["total_ns"] += durations[i]
        return table, self.wall_ns - top_ns


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
#: ``count(counts, args, kwargs, result)`` adds a wrapped call's counts.
CountFn = Callable[[Counter, tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    ``sites`` are ``(module, attribute path)`` pairs; a function that
    other modules import by name is patched at every site.  ``span``
    False records counts only.
    """

    name: str
    sites: Tuple[Tuple[str, str], ...]
    count: Optional[CountFn] = None
    span: bool = True


def _count_intervals(counts, args, kwargs, result):
    counts["sim.intervals"] += kwargs.get("count", args[1] if len(args) > 1 else 0)


def _count_addresses(counts, args, kwargs, result):
    counts["kernels.count_cells.addresses"] += len(
        kwargs["addresses"] if "addresses" in kwargs else args[0]
    )


def _count_padding(counts, args, kwargs, result):
    rows = len(kwargs["matrix"] if "matrix" in kwargs else args[1])
    pad_to = kwargs.get("pad_to")
    counts["kernels.fleet_score.rows"] += rows
    counts["kernels.fleet_score.padded_rows"] += (
        math.ceil(rows / pad_to) * pad_to if pad_to else rows
    )


def _count_records(counts, args, kwargs, result):
    counts["serve.worker.rows"] += len(
        kwargs["records"] if "records" in kwargs else args[1]
    )


def _count_cache(counts, args, kwargs, result):
    counts["pipeline.cache.misses" if result is None else "pipeline.cache.hits"] += 1


SCORE_BATCH = Target(
    "serve.worker.score_batch",
    (("repro.serve.worker", "ShardWorker.score_batch"),),
    _count_records,
)

#: Every layer boundary the traced run records, outermost first.
LAYERS: Tuple[Target, ...] = (
    Target("serve.registry.fleet_payload",
           (("repro.serve.registry", "DetectorRegistry.fleet_payload"),)),
    Target("pipeline.training.collect",
           (("repro.pipeline.training", "collect_training_data"),
            ("repro.pipeline.stages", "collect_training_data"))),
    Target("pipeline.cache.get",
           (("repro.pipeline.cache", "ArtifactCache.get"),),
           _count_cache, span=False),
    Target("learn.pca.fit", (("repro.learn.pca", "Eigenmemory.fit"),)),
    Target("learn.gmm.fit", (("repro.learn.gmm", "GaussianMixtureModel.fit"),)),
    Target("learn.contexts.fit",
           (("repro.learn.contexts", "ContextDetector.fit"),)),
    Target("sim.platform_build",
           (("repro.sim.fleet", "DeviceStream.__init__"),)),
    Target("sim.run_intervals",
           (("repro.sim.platform", "Platform.run_intervals"),),
           _count_intervals),
    Target("sim.footprint.sample",
           (("repro.sim.kernel.footprint", "CompiledFootprint.sample"),)),
    Target("hw.memometer.observe_burst",
           (("repro.hw.memometer", "Memometer.observe_burst"),)),
    Target("kernels.count_cells", (("repro.kernels", "count_cells"),),
           _count_addresses),
    Target("serve.router.submit", (("repro.serve.router", "StreamRouter.submit"),)),
    Target("serve.bus.publish", (("repro.serve.bus", "EventBus.publish"),)),
    Target("serve.bus.publish_sync",
           (("repro.serve.bus", "EventBus.publish_sync"),)),
    SCORE_BATCH,
    Target("kernels.fleet_score", (("repro.kernels", "FleetScorer.score"),),
           _count_padding),
    Target("serve.drift.observe", (("repro.serve.drift", "DriftMonitor.observe"),)),
    Target("serve.recalibrate.on_scored",
           (("repro.serve.recalibrate", "RecalibrationController.on_scored"),)),
    Target("serve.report.device_report",
           (("repro.serve.worker", "ShardWorker.device_report"),)),
    Target("obs.log.event", (("repro.obs.log", "StructuredLogger.event"),)),
)

#: Span names whose timed-phase calls and self-time shares are reported.
TIMED_LAYERS: Tuple[str, ...] = (
    "sim.platform_build",
    "sim.run_intervals",
    "sim.footprint.sample",
    "hw.memometer.observe_burst",
    "kernels.count_cells",
    "serve.router.submit",
    "serve.bus.publish",
    "serve.bus.publish_sync",
    "serve.worker.score_batch",
    "kernels.fleet_score",
    "serve.drift.observe",
    "serve.recalibrate.on_scored",
    "serve.report.device_report",
    "serve.registry.fleet_payload",
    "obs.log.event",
)

#: Span names whose set-up-phase calls and shares are reported.
SETUP_LAYERS: Tuple[str, ...] = (
    "serve.registry.fleet_payload",
    "pipeline.training.collect",
    "learn.pca.fit",
    "learn.gmm.fit",
    "learn.contexts.fit",
)

#: The simulator group: set-up reports their summed share as one number.
SIM_LAYERS: Tuple[str, ...] = (
    "sim.platform_build",
    "sim.run_intervals",
    "sim.footprint.sample",
    "hw.memometer.observe_burst",
    "kernels.count_cells",
)


def _resolve(module_name: str, path: str):
    """``(owner, attribute, original)`` or ``None`` when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if inspect.isclass(owner):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


def _wrap(recorder: SpanRecorder, target: Target, original):
    name, count, span = target.name, target.count, target.span
    counts = recorder.counts
    if inspect.iscoroutinefunction(original):

        @functools.wraps(original)
        async def async_wrapper(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = await original(*args, **kwargs)
            finally:
                recorder.close(index)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return async_wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not span:
            result = original(*args, **kwargs)
        else:
            index = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
        if count is not None:
            count(counts, args, kwargs, result)
        return result

    return wrapper


class Instrumentation:
    """Context manager: wrap ``targets`` into ``recorder``, then restore.

    A target whose module or attribute no longer exists is skipped and
    listed in :attr:`missing`, so deleting a layer from the program
    reads as zero calls instead of breaking the benchmark.
    """

    def __init__(self, recorder: SpanRecorder, targets: Sequence[Target] = LAYERS):
        self.recorder = recorder
        self.targets = tuple(targets)
        self.missing: List[str] = []
        self._restore: List[tuple] = []

    def __enter__(self) -> "Instrumentation":
        for target in self.targets:
            resolved = [_resolve(module, path) for module, path in target.sites]
            if resolved[0] is None:
                self.missing.append(target.name)
                continue
            wrapper = _wrap(self.recorder, target, resolved[0][2])
            for site in resolved:
                if site is None:
                    continue
                owner, attr, original = site
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def format_table(table: Dict[str, dict], other_ns: int, wall_ns: int, title: str) -> List[str]:
    """The layer-share table: calls, self time and share of the wall."""
    lines = [
        f"{title}: wall {wall_ns / 1e9:.3f} s",
        f"  {'layer':32s} {'calls':>9s} {'self_s':>9s} {'share':>7s}",
    ]
    rows = sorted(table.items(), key=lambda item: -item[1]["self_ns"])
    rows.append(("other", {"calls": 0, "self_ns": other_ns}))
    accounted = 0
    for name, entry in rows:
        accounted += entry["self_ns"]
        share = 100.0 * entry["self_ns"] / wall_ns if wall_ns else 0.0
        lines.append(
            f"  {name:32s} {entry['calls']:9d} "
            f"{entry['self_ns'] / 1e9:9.3f} {share:6.1f}%"
        )
    lines.append(
        f"  {'sum (self + other)':32s} {'':9s} {accounted / 1e9:9.3f} "
        f"{100.0 * accounted / wall_ns if wall_ns else 0.0:6.1f}%"
    )
    return lines
