"""The closed-loop runner shared by the workloads.

A closed loop offers the next call only after the previous one returned,
so a slower program simply receives less load.  One timed span replays a
workload's fixed input in calls of :data:`CALL_EVENTS` events (serve's
default ``batch_max``) unless the workload says otherwise; an event's
verdict latency runs from the call that offered it to the return of the
call, scaled to the host's nominal speed like every closed-loop time.
Spans repeat until the run's seconds are spent; garbage is collected
before each one.

In a traced run, spans alternate between traced and untraced; the ratio
of their median rates is ``trace.overhead_ratio``.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from host import HostScale, drift, median, timed, weighted_quantile
from spans import SpanLog

#: Events per call into the program: serve's default batch size.
CALL_EVENTS = 256

#: Spans a run always measures, however short ``--seconds`` is.
MIN_SPANS = 5


@dataclass
class Span:
    """One timed replay of the workload's input."""

    events: int = 0
    raw_seconds: float = 0.0
    scaled_seconds: float = 0.0
    #: (host-scaled offer-to-verdict seconds, events) per call
    latencies: List[Tuple[float, int]] = field(default_factory=list)
    fingerprint: str = ""
    ok: bool = True
    traced: bool = False
    log: Optional[SpanLog] = None
    #: counter deltas over the span, for per-event per-layer metrics
    counters: Dict[str, int] = field(default_factory=dict)

    def add(self, events: int, seconds: float, factor: float) -> None:
        """Account one call that took ``seconds`` at host ``factor``."""
        self.events += events
        self.raw_seconds += seconds
        self.scaled_seconds += seconds / factor
        self.latencies.append((seconds / factor, events))

    @property
    def scaled_rate(self) -> float:
        return self.events / self.scaled_seconds

    @property
    def raw_rate(self) -> float:
        return self.events / self.raw_seconds


def interleaved(host: HostScale, calls: Iterable[Callable[[], int]]) -> Span:
    """Time each call (which returns its event count) between reference
    timings."""
    span = Span()
    for call in calls:
        (events, seconds), factor = host.bracket(lambda: timed(call))
        span.add(events, seconds, factor)
    return span


def run_spans(
    host: HostScale,
    prepare: Callable[[], object],
    run: Callable[[object, SpanLog], Span],
    finish: Callable[[object, Span], None],
    seconds: float,
    trace: bool,
) -> List[Span]:
    """Repeat ``prepare`` / timed ``run`` / ``finish`` for ``seconds``.

    ``prepare`` (fresh state) and ``finish`` (which sets the span's
    verdict fingerprint and counter deltas) are untimed.  Fingerprints
    are compared with the oracle's by :func:`mark` once all spans are
    done, so the oracle's own memory stays out of ``peak_rss_mb``.
    """
    spans: List[Span] = []
    deadline = time.perf_counter() + seconds
    while len(spans) < MIN_SPANS or time.perf_counter() < deadline:
        traced = trace and len(spans) % 2 == 0
        log = SpanLog(traced)
        ctx = prepare()
        gc.collect()
        host.restart()
        span = run(ctx, log)
        span.traced = traced
        span.log = log
        finish(ctx, span)
        spans.append(span)
    return spans


def mark(spans: List[Span], expected: str) -> Tuple[int, int]:
    """Check every span against the oracle's fingerprint: (events
    attempted, events in spans whose verdicts differ)."""
    for span in spans:
        span.ok = span.fingerprint == expected
    attempted = sum(s.events for s in spans)
    failed = sum(s.events for s in spans if not s.ok)
    return attempted, failed


def end_to_end(spans: List[Span]) -> Dict[str, float]:
    """Rate and latency metrics of the untraced spans.

    Latency quantiles are taken per span (over its events) and the
    median over spans is reported, so one host stall moves one span's
    figure rather than the run's.
    """
    plain = [s for s in spans if not s.traced]

    def quantile(q: float) -> float:
        return median([weighted_quantile(
            [(seconds * 1e3, n) for seconds, n in s.latencies], q)
            for s in plain])

    return {
        "events_per_s": median([s.scaled_rate for s in plain]),
        "verdict_latency_p50_ms": quantile(0.50),
        "verdict_latency_p99_ms": quantile(0.99),
    }


def harness(host: HostScale, spans: List[Span]) -> Dict[str, float]:
    """Host, steadiness and tracing-overhead figures of a run."""
    plain = [s for s in spans if not s.traced]
    traced = [s for s in spans if s.traced]
    values = {
        "host.ref_ms": host.ref_ms(),
        "host.raw_events_per_s": median([s.raw_rate for s in plain]),
        "steady.drift": drift([s.scaled_rate for s in plain]),
        "latency.samples": float(sum(n for s in plain for _, n in s.latencies)),
    }
    if traced:
        values["trace.overhead_ratio"] = (
            median([s.scaled_rate for s in plain])
            / median([s.scaled_rate for s in traced]))
    return values


def per_event(spans: List[Span]) -> Dict[str, float]:
    """Per-event ``MonitorStats`` deltas, summed over every span."""
    sums: Dict[str, float] = {}
    for span in spans:
        for name, value in span.counters.items():
            sums[name] = sums.get(name, 0.0) + value
    return counts_per_event(sums, sum(s.events for s in spans))


def counts_per_event(sums: Dict[str, float], events: int) -> Dict[str, float]:
    """The per-layer work ratios of summed ``MonitorStats`` deltas."""
    return {
        "monitor.candidates_per_event":
            sums.get("candidates_examined", 0.0) / events,
        "monitor.creates_per_event": sums.get("instances_created", 0.0) / events,
        "monitor.refreshes_per_event": sums.get("refreshes", 0.0) / events,
        "monitor.ops_per_event": sums.get("ops_applied", 0.0) / events,
        "monitor.expired_per_kevent":
            sums.get("instances_expired", 0.0) / events * 1e3,
        "monitor.violations_per_kevent":
            sums.get("violations", 0.0) / events * 1e3,
    }


def layer_self_us(host_scaled: List[Span]) -> Dict[str, float]:
    """Per-event self time (µs) of each traced span name.

    Span times are wall clock; each span's are scaled by the ratio of
    its host-scaled to its raw seconds.
    """
    totals: Dict[str, float] = {}
    events = 0
    for span in host_scaled:
        if not span.traced:
            continue
        events += span.events
        scale = span.scaled_seconds / span.raw_seconds
        for name, seconds in span.log.self_times().items():
            totals[name] = totals.get(name, 0.0) + seconds * scale
    return {name: total / events * 1e6 for name, total in totals.items()}


def setup_median(
    host: HostScale,
    build: Callable[[], Tuple[object, Dict[str, float]]],
    teardown: Callable[[object], None],
    builds: int,
) -> Tuple[float, Dict[str, float]]:
    """Median host-scaled seconds of ``builds`` cold builds.

    ``build`` returns ``(object, {part: seconds})``; the parts are the
    per-layer split of set-up (medians, host-scaled, in ms).
    """
    totals: List[float] = []
    parts: Dict[str, List[float]] = {}
    for _ in range(builds):
        host.restart()
        (obj, split), factor = host.bracket(build)
        totals.append(sum(split.values()) / factor)
        for name, seconds in split.items():
            parts.setdefault(name, []).append(seconds / factor * 1e3)
        teardown(obj)
    return median(totals), {name: median(v) for name, v in parts.items()}
