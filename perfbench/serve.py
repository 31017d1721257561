"""serve-l2: the default ``ServeDaemon`` fed a learning-switch L2 trace.

Why this workload: decode, the ingest queue, the event loop and the
per-event telemetry and tracing path dominate while matching is light
(the Table-1 catalog finds nothing to match in plain L2 frames).  The
daemon runs with its default ``ServeConfig``: tracing (``trace_buffer``
512, one span per event) and its ``MetricsRegistry`` are on.

Load: one generator process with one thread (``loadgen.py``) and one
loopback TCP connection, so sending never shares the daemon's
interpreter lock.  Two phases:

* Floods, a closed loop: :data:`FLOOD_EVENTS` events sent at once, sized
  to fit the default 4096-frame queue, the next flood only after the
  daemon's monitor has returned on the last one.  The first flood warms
  the daemon up and is not timed; the rest give ``events_per_s`` and
  the end-to-end verdict latencies (from the flood's first send to the
  return of the monitor call that processed the event), each flood
  bracketed by the host reference loop and scaled like every time.
* An open loop at the fixed absolute rate :data:`OFFERED_RATE` (well
  under the capacity of a slow host phase; never derived from the
  measured capacity): from each event's scheduled send time to the
  return of the daemon's monitor call that processed it, wall clock, not
  scaled, p50 and p99 per window of :data:`LATENCY_WINDOW` events, the
  median over windows reported as ``openloop.latency_p50_ms`` and
  ``openloop.latency_p99_ms``.

The open-loop latencies are per-layer metrics, not end-to-end ones,
because on the 2-CPU tuning box they could not be made steady: over five
seeds their quartile distance over median was 0.35 (p50) and 1.5 (p99),
the idle generator process itself ran up to 4.6 ms late at p99, and
within one run the p99 of 1000-event windows ranged from 0.5 to 21 ms.
A spinning generator lowered p50 but made p99 worse (3-14 ms).

The daemon's monitor entry points and its queue's ``take_batch`` are
wrapped from this file to see when each event's verdict is in; every
phase's processed events are checked against what was sent, in order,
and its verdicts against the interpreted matcher.  Each phase is checked
as soon as it drains and its lines are dropped, so this benchmark's own
bookkeeping does not grow with the number of floods a run fits in: kept
to the end, it moved ``peak_rss_mb`` by 6% between runs.
"""

from __future__ import annotations

import gc
import io
import json
import subprocess
import sys
import threading
import time
import urllib.request
from typing import Dict, List, Tuple

from repro.apps import LearningSwitchApp, sometimes
from repro.netsim import TraceRecorder, single_switch_network
from repro.netsim.serialize import event_to_dict, load_trace
from repro.netsim.workload import l2_pairs, send_all
from repro.serve import ServeConfig, ServeDaemon, serve_in_thread
from repro.switch.pipeline import MissPolicy

import closed
import oracle
from catalog import (
    build_monitor, catalog_props, registry_ratio, timed_build)
from codec import codec_costs
from host import HostScale, median, peak_rss_mb, timed, weighted_quantile
from spans import SpanLog

L2_HOSTS = 8
L2_PACKETS = 1000
#: Events per flood: fits the default 4096-frame ingest queue.
FLOOD_EVENTS = 3000
#: Offered rate of the latency phase, events per second.  Fixed; the
#: same figure is recorded in BENCHMARK.json.
OFFERED_RATE = 2000.0
#: Open-loop events per latency window: p99 of each window has ten
#: samples beyond it, and the median over windows is reported, so one
#: host stall moves one window's figure rather than the run's.
LATENCY_WINDOW = 1000
#: Floods a run always times, however short ``--seconds`` is.
MIN_FLOODS = 5
#: Share of ``--seconds`` spent on floods; the open loop gets the rest.
FLOOD_SHARE = 0.8
SETUP_BUILDS = 11
#: Lead time the generator gets to read a phase before its start time.
START_MARGIN_S = 0.05
#: Longest a phase may take to drain before the run is declared failed.
PHASE_TIMEOUT_S = 60.0
DWELL_METRIC = "repro_serve_ingest_latency_seconds"


def l2_trace(seed: int):
    """A learning-switch trace (the ``bench_serve_ingest`` shape)."""
    net, switch, hosts = single_switch_network(
        L2_HOSTS, switch_kwargs={"miss_policy": MissPolicy.CONTROLLER})
    switch.set_app(LearningSwitchApp(
        faults=sometimes("wrong_port", 0.1, seed=seed)))
    recorder = TraceRecorder()
    switch.add_tap(recorder)
    send_all(hosts, l2_pairs(L2_HOSTS, L2_PACKETS, seed=seed))
    net.run()
    return recorder.events


class Stream:
    """The trace repeated without end, each copy later in time."""

    def __init__(self, events) -> None:
        self._dicts = [event_to_dict(e) for e in events]
        self._period = events[-1].time + 1.0
        self._pos = 0

    def take(self, count: int) -> Tuple[List[bytes], List[float]]:
        """The next ``count`` events as JSONL lines, and their times."""
        lines, times = [], []
        for _ in range(count):
            copy, index = divmod(self._pos, len(self._dicts))
            event = dict(self._dicts[index])
            event["time"] = event["time"] + copy * self._period
            lines.append(json.dumps(event, sort_keys=True).encode() + b"\n")
            times.append(event["time"])
            self._pos += 1
        return lines, times


class Tap:
    """Wraps the daemon's monitor entry points and ``queue.take_batch``.

    Records, per processed event, when the monitor call that processed
    it returned (``time.monotonic``) and the event's own time.  With
    ``log.enabled`` it also records a span per call.
    """

    def __init__(self, daemon: ServeDaemon) -> None:
        self.done: List[Tuple[float, float]] = []
        self.batch_sizes: List[int] = []
        self.log = SpanLog(False)
        self._batch = 0
        self._target = 0
        self.reached = threading.Event()
        monitor, queue = daemon.monitor, daemon.queue
        observe, observe_batch = monitor.observe, monitor.observe_batch
        take_batch = queue.take_batch

        def tap_take_batch(max_events: int = 256):
            batch = take_batch(max_events)
            if batch and self.log.enabled:
                self._batch += 1
                self.batch_sizes.append(len(batch))
            return batch

        def tap_observe(event) -> None:
            self.log.call("monitor.observe", self._batch,
                          lambda: observe(event))
            self._record((event,))

        def tap_observe_batch(events) -> None:
            self.log.call("monitor.observe_batch", self._batch,
                          lambda: observe_batch(events))
            self._record(events)

        monitor.observe = tap_observe
        monitor.observe_batch = tap_observe_batch
        queue.take_batch = tap_take_batch

    def _record(self, events) -> None:
        now = time.monotonic()
        self.done.extend((now, event.time) for event in events)
        if len(self.done) >= self._target:
            self.reached.set()

    def expect(self, count: int) -> None:
        """Start recording a phase that sends ``count`` events."""
        self.done = []
        self._target = count
        self.reached.clear()


class Generator:
    """The load generator process (``loadgen.py``)."""

    def __init__(self, port: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "perfbench/loadgen.py"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._send({"port": port})

    def _send(self, header: dict, lines: List[bytes] = ()) -> None:
        self.proc.stdin.write(json.dumps(header).encode() + b"\n")
        self.proc.stdin.writelines(lines)
        self.proc.stdin.flush()

    def start(self, lines: List[bytes], rate: float) -> float:
        """Hand over one phase; returns its start time."""
        start = time.monotonic() + START_MARGIN_S
        self._send({"count": len(lines), "rate": rate, "start": start}, lines)
        return start

    def report(self) -> dict:
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        try:
            self._send({"count": -1})
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def dwell_buckets(port: int) -> List[Tuple[float, int]]:
    """Cumulative ``(le, count)`` of the daemon's dwell histogram, read
    from its own ``/metrics`` endpoint."""
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics",
                                timeout=10) as response:
        text = response.read().decode()
    out = []
    for line in text.splitlines():
        if line.startswith(DWELL_METRIC + "_bucket{"):
            le = line.split('le="', 1)[1].split('"', 1)[0]
            out.append((float(le), int(float(line.rsplit(" ", 1)[1]))))
    return out


def bucket_quantile(buckets: List[Tuple[float, int]], q: float) -> float:
    """Quantile of a cumulative histogram, interpolated within buckets."""
    total = buckets[-1][1]
    if total == 0:
        return 0.0
    target = q * total
    prev_le, prev_n = 0.0, 0
    for le, n in buckets:
        if n >= target:
            if le == float("inf"):
                return prev_le
            share = (target - prev_n) / (n - prev_n) if n > prev_n else 1.0
            return prev_le + share * (le - prev_le)
        prev_le, prev_n = le, n
    return prev_le


def boot():
    """One cold daemon boot, up to bound listeners."""
    handle, seconds = timed(
        lambda: serve_in_thread(ServeDaemon(ServeConfig())))
    return handle, {"boot": seconds}


def lost(daemon: ServeDaemon) -> float:
    """Frames the daemon shed or failed to parse, so far."""
    return daemon.queue.shed + daemon.registry.counter(
        "repro_serve_frame_errors_total").value


class Daemon:
    """The measured daemon, its tap, its load generator and the
    interpreted reference its verdicts are checked against."""

    def __init__(self, props) -> None:
        self.daemon = ServeDaemon(ServeConfig())
        self.handle = serve_in_thread(self.daemon)
        self.monitor = self.daemon.monitor
        self.tap = Tap(self.daemon)
        self.gen = Generator(self.daemon.ingest_ports[0])
        self.reference = build_monitor(props, match_strategy="interpreted")
        self.attempted = 0
        self.failed = 0

    def phase(self, lines: List[bytes], rate: float) -> dict:
        """Send one phase and wait until the daemon has processed it, or
        lost what it did not process, or :data:`PHASE_TIMEOUT_S` passed."""
        monitor, tap = self.monitor, self.tap
        start = oracle.mark(monitor)
        lost_before = lost(self.daemon)
        tap.expect(len(lines))
        info = {"start": self.gen.start(lines, rate)}
        deadline = time.monotonic() + PHASE_TIMEOUT_S
        while not tap.reached.wait(0.25):
            if (len(tap.done) + lost(self.daemon) - lost_before >= len(lines)
                    or time.monotonic() > deadline):
                break
        info["report"] = self.gen.report()
        info["done"] = tap.done
        info["fingerprint"], info["counters"] = oracle.since(monitor, start)
        return info

    def verify(self, info: dict, lines: List[bytes],
               times: List[float]) -> None:
        """Check one phase, in order, against the interpreted matcher:
        all its events fail if any was lost or reordered, or if its
        verdicts differ."""
        reference = self.reference
        events = load_trace(io.StringIO(b"".join(lines).decode()))
        start = oracle.mark(reference)
        reference.observe_batch(events)
        expected = oracle.since(reference, start)[0]
        self.attempted += len(events)
        if (info["fingerprint"] != expected
                or [t for _, t in info["done"]] != times):
            self.failed += len(events)

    def close(self) -> None:
        try:
            self.gen.close()
        finally:
            self.report = self.handle.stop()


def run(seed: int, seconds: float, trace: bool) -> Dict:
    props = catalog_props()
    base = l2_trace(seed)
    stream = Stream(base)
    host = HostScale()
    setup_s, _ = closed.setup_median(host, boot, lambda h: h.stop(),
                                     SETUP_BUILDS)

    served = Daemon(props)
    floods: List[closed.Span] = []
    batch_sizes: List[int] = []  # take_batch sizes in traced floods
    flood_counts: Dict[str, float] = {}
    try:
        lines, times = stream.take(FLOOD_EVENTS)
        served.verify(served.phase(lines, 0.0), lines, times)  # warm-up
        deadline = time.perf_counter() + seconds * FLOOD_SHARE
        while len(floods) < MIN_FLOODS or time.perf_counter() < deadline:
            lines, times = stream.take(FLOOD_EVENTS)
            served.tap.log = SpanLog(trace and len(floods) % 2 == 0)
            served.tap.batch_sizes = []
            gc.collect()
            host.restart()
            info, factor = host.bracket(lambda: served.phase(lines, 0.0))
            floods.append(flood_span(info, factor, served.tap.log))
            batch_sizes.extend(served.tap.batch_sizes)
            for name, moved in info["counters"].items():
                flood_counts[name] = flood_counts.get(name, 0.0) + moved
            served.verify(info, lines, times)
        served.tap.log = SpanLog(False)
        gc.collect()
        dwell_before = dwell_buckets(served.daemon.http_port)
        lines, times = stream.take(
            round(OFFERED_RATE * seconds * (1 - FLOOD_SHARE)))
        open_loop = served.phase(lines, OFFERED_RATE)
        dwell_after = dwell_buckets(served.daemon.http_port)
        rss = peak_rss_mb()
        depth_max = served.daemon.registry.histogram(
            "repro_serve_queue_depth_at_enqueue").max or 0.0
        served.verify(open_loop, lines, times)
    finally:
        served.close()
    attempted, failed = served.attempted, served.failed

    windows = open_loop_windows(open_loop)
    harness = closed.harness(host, floods)
    harness.update({
        "openloop.latency_p50_ms": median(
            [weighted_quantile(w, 0.50) for w in windows]),
        "openloop.latency_p99_ms": median(
            [weighted_quantile(w, 0.99) for w in windows]),
        "openloop.samples": float(sum(len(w) for w in windows)),
        "loadgen.late_p99_ms": open_loop["report"]["late_p99_ms"],
        "ingest.shed": float(served.report.events_shed),
    })
    if not trace:
        values = closed.end_to_end(floods)
        values.update(setup_s=setup_s, peak_rss_mb=rss,
                      delivered_ratio=(attempted - failed) / attempted)
        return {"values": values, "attempted": attempted, "failed": failed,
                "harness": harness}

    values = dict(harness)
    traced = [span for span in floods if span.traced]
    busy = sum(sum(end - start for _, start, end, _, _ in span.log.spans)
               * span.scaled_seconds / span.raw_seconds for span in traced)
    values["daemon.monitor_busy_share"] = busy / sum(
        s.scaled_seconds for s in traced)
    values["daemon.batch_events_mean"] = sum(batch_sizes) / len(batch_sizes)
    values["monitor.observe_us"] = busy / sum(s.events for s in traced) * 1e6
    dwell = [(le, n - n0)
             for (le, n), (_, n0) in zip(dwell_after, dwell_before)]
    values["ingest.queue_dwell_p50_ms"] = bucket_quantile(dwell, 0.50) * 1e3
    values["ingest.queue_dwell_p99_ms"] = bucket_quantile(dwell, 0.99) * 1e3
    values["ingest.queue_depth_max"] = float(depth_max)
    values.update(closed.counts_per_event(
        flood_counts, sum(s.events for s in floods)))
    values.update(codec_costs(host, base))
    live = {prop.name: served.monitor.store(prop.name).live_count
            for prop in props}
    values["instances.live"] = float(sum(live.values()))
    values.update({f"instances.live.{p}": float(n) for p, n in live.items()})
    _, parts = closed.setup_median(host, lambda: timed_build(props),
                                   lambda m: None, SETUP_BUILDS)
    values.update(parts)
    values["telemetry.registry_ratio"] = registry_ratio(
        host, lambda **kwargs: build_monitor(props, **kwargs), base)
    return {"values": values, "attempted": attempted, "failed": failed,
            "logs": [span.log for span in traced]}


def flood_span(info: dict, factor: float, log: SpanLog) -> closed.Span:
    """One timed flood as a closed-loop span: every event is offered at
    the flood's first send, and its verdict is in when the monitor call
    that processed it returned."""
    first = info["report"]["first"]
    raw = info["done"][-1][0] - first
    return closed.Span(
        events=len(info["done"]), raw_seconds=raw,
        scaled_seconds=raw / factor,
        latencies=[((done - first) / factor, 1) for done, _ in info["done"]],
        traced=log.enabled, log=log)


def open_loop_windows(info: dict) -> List[List[Tuple[float, int]]]:
    """Open-loop latencies in ms (scheduled send to verdict), in windows
    of :data:`LATENCY_WINDOW` events."""
    latencies = [((done - (info["start"] + i / OFFERED_RATE)) * 1e3, 1)
                 for i, (done, _) in enumerate(info["done"])]
    return [latencies[i:i + LATENCY_WINDOW]
            for i in range(0, len(latencies) - LATENCY_WINDOW + 1,
                           LATENCY_WINDOW)]
