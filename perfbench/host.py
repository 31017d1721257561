"""Host-speed normalisation and the statistics every workload shares.

The benchmark host drifts: on the 2-CPU box this benchmark was tuned on,
one fixed pure-Python loop took anywhere from 87 to 155 ms over
seconds-long phases, 100 ms windows of it varied by 1.7x, and raw
keyed-flow throughput ranged from 17.7k to 25.9k ev/s over six runs of
identical code (no CPU steal: process time tracked wall time).  So every
timed call into the program is bracketed by :func:`reference_loop`, a
few milliseconds long, and its time is rescaled to the reference's
nominal time: a call that ran while the reference took 1.3x its nominal
time is credited with 1/1.3 of its wall time.  Sampling the host between
calls, rather than once per multi-second span, cut the catalog's
span-to-span spread from about 0.3-0.8 to about 0.1 (quartile distance
over median).  Raw rates are reported next to the scaled ones
(``host.raw_events_per_s``) so a reader can tell a slow host from slow
code.

``reference_loop`` and ``REF_NOMINAL_S`` are frozen: editing either
rescales every number this benchmark has ever reported.
"""

from __future__ import annotations

import resource
import statistics
import time
from typing import Callable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Nominal duration of one :func:`reference_loop` call: the speed every
#: scaled metric is reported at.  Frozen — never edit.
REF_NOMINAL_S = 0.005


def reference_loop() -> int:
    """A fixed pure-Python loop (dict, tuple, str, int ops).  Frozen."""
    table = {}
    acc = 0
    for i in range(10000):
        key = (i * 40503) & 1023
        table[key] = table.get(key, 0) + (i ^ acc) & 0xFFFF
        acc = (acc + len(str(key)) + len((key, i))) & 0xFFFFFFF
    return acc


class HostScale:
    """Interleaves the reference loop with timed calls.

    Every call runs between two reference timings; its host factor is
    their mean over :data:`REF_NOMINAL_S` (>1 means the host ran slow).
    """

    def __init__(self) -> None:
        self.refs: List[float] = []
        self._last = self.measure()

    def restart(self) -> None:
        """Take a fresh leading reference after untimed work."""
        self._last = self.measure()

    def measure(self) -> float:
        start = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - start
        self.refs.append(elapsed)
        return elapsed

    def bracket(self, fn: Callable[[], T]) -> Tuple[T, float]:
        """Run ``fn`` between reference timings: (result, host factor)."""
        before = self._last
        result = fn()
        self._last = self.measure()
        return result, (before + self._last) / 2.0 / REF_NOMINAL_S

    def ref_ms(self) -> float:
        return statistics.median(self.refs) * 1e3


def timed(fn: Callable[[], T]) -> Tuple[T, float]:
    """(result, wall seconds) of one call."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def weighted_quantile(samples: Sequence[Tuple[float, int]], q: float) -> float:
    """Quantile ``q`` of ``(value, weight)`` samples (weight = events)."""
    ordered = sorted(samples)
    total = sum(weight for _, weight in ordered)
    if total == 0:
        return 0.0
    target = q * total
    running = 0
    for value, weight in ordered:
        running += weight
        if running >= target:
            return value
    return ordered[-1][0]


def drift(rates: Sequence[float]) -> float:
    """Median rate of the second half of a run over the first half."""
    if len(rates) < 2:
        return 1.0
    half = len(rates) // 2
    return median(rates[len(rates) - half:]) / median(rates[:half])


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
