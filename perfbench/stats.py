"""The benchmark's own arithmetic: percentiles, medians, the host-speed
reference and the failure ledger.

Kept free of ``repro`` imports so the self-tests can check it without
building a fleet.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

__all__ = [
    "median",
    "percentile",
    "REFERENCE_NS",
    "Speed",
    "HostSpeed",
    "Ledger",
]

#: Iterations of ``reference_loop()`` in one host-speed sample, the
#: sampling period, and the wall time of one sample on the measuring
#: host (a 2-core x86 Firecracker VM) at its fastest.  Timed metrics are
#: reported at that host speed.
SAMPLE_ITERATIONS = 2_000
SAMPLE_PERIOD_S = 0.02
REFERENCE_NS = 150_000.0


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile and its tail-sample count.

    The percentile is the sample at rank ``ceil(q/100 * n)`` of the
    sorted values; the tail count is how many samples sit at ranks
    beyond it (``n - rank``).  A percentile is worth reporting only
    while that count is at least ten.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1]), len(ordered) - rank


def reference_loop(n: int = SAMPLE_ITERATIONS) -> int:
    """Fixed pure-Python work, independent of the program."""
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


@dataclass(frozen=True)
class Speed:
    """The host's speed over one timed span, from the samples in it.

    ``scale`` compares ``REFERENCE_NS`` with the mean sample, so it
    follows the host's mean speed, pauses of the whole VM included; it
    scales throughput and set-up time.  ``call_scale`` uses the median
    sample, which leaves such pauses out; it scales the latency of
    single calls, most of which no pause hits.  A time measured over
    the span, times its factor, is the time at the reference speed.
    """

    samples: Tuple[int, ...]

    @property
    def scale(self) -> float:
        return REFERENCE_NS / statistics.fmean(self.samples)

    @property
    def call_scale(self) -> float:
        return REFERENCE_NS / statistics.median(self.samples)


class HostSpeed:
    """Samples the host's speed while the program runs.

    Every ``SAMPLE_PERIOD_S`` a SIGALRM handler times one
    ``reference_loop()``.  A slow spell of the host (neighbours
    contending for the core) lengthens that loop and the program's
    work alike, while a change to the program does not touch it.  The
    samples take ~1% of the time.
    """

    def __init__(self) -> None:
        self.samples: List[int] = []
        self._previous = None

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter_ns()
        reference_loop()
        self.samples.append(time.perf_counter_ns() - start)

    def mark(self) -> int:
        return len(self.samples)

    def since(self, mark: int) -> Speed:
        """The speed over the span that began at ``mark``.  A span too
        short to hold a sample is sampled now."""
        if len(self.samples) == mark:
            self._sample()
        return Speed(tuple(self.samples[mark:]))


@dataclass
class Ledger:
    """Device-interval accounting behind ``failed_frac``.

    Every attempted device-interval must come back scored.  A skipped,
    dropped or unaccounted one is a failure; so is every failed output
    check.  ``failed_frac = failed / attempted``.
    """

    attempted: int = 0
    skipped: int = 0
    dropped: int = 0
    unaccounted: int = 0
    failed_checks: List[str] = field(default_factory=list)

    def add_device(
        self,
        expected: int,
        emitted: int,
        scored: int,
        skipped: int,
        dropped: int,
    ) -> None:
        """Book one device's stream: ``expected`` intervals attempted.

        Unaccounted intervals are those the device never emitted plus
        those it emitted that landed in none of scored, skipped or
        dropped (the ``emitted == scored + skipped + dropped`` ledger).
        """
        self.attempted += expected
        self.skipped += skipped
        self.dropped += dropped
        self.unaccounted += abs(expected - emitted) + abs(
            emitted - (scored + skipped + dropped)
        )

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        if not ok:
            self.failed_checks.append(f"{name}: {detail}" if detail else name)
        return ok

    @property
    def failed(self) -> int:
        return (
            self.skipped + self.dropped + self.unaccounted + len(self.failed_checks)
        )

    @property
    def failed_frac(self) -> float:
        if self.attempted == 0:
            return 1.0 if self.failed else 0.0
        return min(1.0, self.failed / self.attempted)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0
