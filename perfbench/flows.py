"""keyed-flows: keyed, timer-free flow properties at steady state.

The input is the shape of ``benchmarks/bench_shard_scaling.py``, kept
here so the benchmark's workload cannot drift with that file: six
two-stage properties keyed on ``(ipv4.src, tcp.src)`` over 8192 flows,
one stationary batch of 16384 events (60% arrivals) that is fed once
untimed to create the instances and then re-fed, unchanged, by every
timed span.  No property uses timers, so a re-fed batch is the same
stream of refreshes and probes every time: the workload is at steady
state from the first span.

Why this workload: state writes (create, refresh and reindex ops)
dominate and matching is trivial.  It is the write-heavy twin of
catalog-steady's read-heavy scans over the same ``core.monitor`` /
``core.instances`` code, so a state-op gain that costs scans shows up.
Loop: closed, one caller (this process, one thread), calls of
:data:`CALL_EVENTS` events into a default ``Monitor()``.

The multiprocess fabric is measured here as a layer, in the traced run
only: the same batch through ``ShardedMonitor(mode="mp")`` with
``nproc - 1`` shards (at most four, at least one), so the router and its
workers fit the cores; with two shards on two CPUs it was
scheduler-bound (4.6k vs 5.9k ev/s on identical code).  Its pass feeds
a quarter of the batch after a warm feed, and its counters are checked
against a plain ``Monitor()`` fed the same events.  Its times are wall
clock, not host-scaled.

keyed-flows-mp, the fabric as an end-to-end workload of its own, was
dropped because it could not be made steady on the 2-CPU tuning box.
At the default ``SupervisorPolicy`` each worker checkpoints its whole
state (49k instances here) every 2048 events; the checkpointing calls
took 1.0-1.7 s each and dominate, holding the fabric near 1.1k ev/s
(9.4k with checkpoints off).  Over five seeds its host-scaled rate
spread 0.28 (quartile distance over median) with the reference timed
around whole spans, and still 0.24 with a ``sync()`` after every
256-event call and the reference between calls; raw, it spread 0.06
over runs that all fell in slow host phases, and raw rates are not
host-normalised, while the host's speed moved 1.8x between runs minutes
apart.
"""

from __future__ import annotations

import gc
import os
import random
from typing import Dict, List, Tuple

from repro.core.refs import Bind, Const, EventKind, EventPattern, FieldEq, Var
from repro.core.spec import Observe, PropertySpec
from repro.fabric import ShardedMonitor
from repro.packet import tcp_packet
from repro.switch.events import EgressAction, PacketArrival, PacketEgress

import closed
import oracle
from catalog import build_monitor, timed_build
from codec import codec_costs
from host import HostScale, peak_rss_mb, timed
from metrics import MAX_SHARDS
from spans import SpanLog

NUM_FLOWS = 8192
BATCH_EVENTS = 16384
ARRIVAL_SHARE = 0.6
PROPERTIES = 6
SETUP_BUILDS = 15
#: Events per call, as in ``bench_shard_scaling``: calls of 256 (about
#: 11 ms) or 1024 events were short enough that a few-ms host stall in
#: one call set the run's p99 (spread 0.13 and 0.11 over five and ten
#: seeds).
CALL_EVENTS = 4096
#: Events in the fabric's timed pass: a quarter of the batch, which
#: holds exactly two of a worker's default 2048-event checkpoints.
MP_SPAN_EVENTS = 4096
SETTLE_S = 60.0


def flow_properties(count: int = PROPERTIES) -> List[PropertySpec]:
    """``count`` keyed, timer-free two-stage properties.

    Stage 0 creates on any flow arrival; stage 1 waits for an egress of
    the same flow on a port that never occurs, so instances park at
    stage 1 and every later arrival of the key costs a probe plus a
    refresh op.  Identical key fields mean the fabric router sends each
    event to exactly one shard.
    """
    return [PropertySpec(
        name=f"bench-flow-{i}",
        description="per-flow parked obligation (bench workload)",
        stages=(
            Observe("seen", EventPattern(
                kind=EventKind.ARRIVAL,
                binds=(Bind("src", "ipv4.src"), Bind("sport", "tcp.src")))),
            Observe("never", EventPattern(
                kind=EventKind.EGRESS,
                guards=(FieldEq("ipv4.src", Var("src")),
                        FieldEq("tcp.src", Var("sport")),
                        FieldEq("tcp.dst", Const(1 + i))))),
        ),
        key_vars=("src", "sport"),
    ) for i in range(count)]


def flow_batch(seed: int) -> list:
    """One reusable batch: arrivals and egresses over ``NUM_FLOWS``."""
    rng = random.Random(seed)
    packets = [
        tcp_packet(i % 8, (i + 1) % 8,
                   f"10.{(i >> 8) & 255}.{i & 255}.1",
                   f"198.51.{(i >> 8) & 255}.{i & 255}",
                   1024 + (i % 16384), 80)
        for i in range(NUM_FLOWS)
    ]
    events = []
    t = 0.0
    for _ in range(BATCH_EVENTS):
        t += 1e-4
        packet = packets[rng.randrange(NUM_FLOWS)]
        if rng.random() < ARRIVAL_SHARE:
            events.append(PacketArrival(
                switch_id="s", time=t, packet=packet, in_port=1))
        else:
            events.append(PacketEgress(
                switch_id="s", time=t, packet=packet, in_port=1,
                out_port=2, action=EgressAction.UNICAST))
    return events


def chunked(events, size: int) -> List[list]:
    return [events[i:i + size] for i in range(0, len(events), size)]


def refeed_fingerprint(monitor, batch, part) -> str:
    """Fingerprint of feeding ``part`` after ``batch`` was fed once:
    what a timed span must reproduce."""
    monitor.observe_batch(batch)
    start = oracle.mark(monitor)
    monitor.observe_batch(part)
    return oracle.since(monitor, start)[0]


def shard_count() -> int:
    return max(1, min((os.cpu_count() or 1) - 1, MAX_SHARDS))


def run(seed: int, seconds: float, trace: bool) -> Dict:
    props = flow_properties()
    batch = flow_batch(seed)
    calls = chunked(batch, CALL_EVENTS)
    host = HostScale()
    setup_s, setup_parts = closed.setup_median(
        host, lambda: timed_build(props), lambda m: None, SETUP_BUILDS)
    monitor = build_monitor(props)
    monitor.observe_batch(batch)

    def prepare():
        return oracle.mark(monitor)

    def run_span(ctx, log):
        def call(index, events):
            log.call("monitor.observe_batch", index,
                     lambda: monitor.observe_batch(events))
            return len(events)

        return closed.interleaved(host, [
            (lambda i=i, c=c: call(i, c)) for i, c in enumerate(calls)])

    def finish(start, span):
        span.fingerprint, span.counters = oracle.since(monitor, start)

    spans = closed.run_spans(host, prepare, run_span, finish, seconds, trace)
    rss = peak_rss_mb()
    expected = oracle.cached(
        f"keyed-flows:{seed}",
        lambda: refeed_fingerprint(
            build_monitor(props, match_strategy="interpreted"),
            batch, batch))
    attempted, failed = closed.mark(spans, expected)
    harness = closed.harness(host, spans)

    if not trace:
        values = closed.end_to_end(spans)
        values.update(setup_s=setup_s, peak_rss_mb=rss,
                      delivered_ratio=(attempted - failed) / attempted)
        return {"values": values, "attempted": attempted, "failed": failed,
                "harness": harness}

    values = dict(harness)
    values.update(setup_parts)
    values.update(closed.per_event(spans))
    values["monitor.observe_us"] = closed.layer_self_us(spans)[
        "monitor.observe_batch"]
    values["instances.live"] = float(monitor.live_instances())
    horizon = batch[-1].time + SETTLE_S
    host.restart()
    (_, settle_s), factor = host.bracket(
        lambda: timed(lambda: monitor.advance_to(horizon)))
    values["monitor.advance_to_us"] = settle_s / factor * 1e6
    values.update(codec_costs(host, batch))
    fabric_values, fabric_failed = fabric_layers(props, batch)
    values.update(fabric_values)
    return {"values": values, "attempted": attempted + MP_SPAN_EVENTS,
            "failed": failed + fabric_failed,
            "logs": [s.log for s in spans if s.traced]}


def fabric_layers(props, batch) -> Tuple[Dict[str, float], int]:
    """One timed quarter-batch through the mp fabric, after a warm feed:
    (per-layer values, its events if its counters differ from a plain
    monitor's, else 0)."""
    shards = shard_count()
    part = batch[:MP_SPAN_EVENTS]
    log = SpanLog(True)
    fabric = ShardedMonitor(props, num_shards=shards, mode="mp")
    try:
        for events in chunked(batch, MP_SPAN_EVENTS):
            fabric.observe_batch(events)
        fabric.sync()
        start = oracle.mark(fabric)
        gc.collect()
        for index, events in enumerate(chunked(part, closed.CALL_EVENTS)):
            log.call("fabric.observe_batch", index,
                     lambda: fabric.observe_batch(events))
        log.call("fabric.sync", -1, fabric.sync)
        got = oracle.since(fabric, start)[0]
    finally:
        fabric.stop()
    expected = refeed_fingerprint(build_monitor(props), batch, part)
    selfs = log.self_times()
    values = {
        "fabric.observe_us": selfs["fabric.observe_batch"] / len(part) * 1e6,
        "fabric.sync_ms": selfs["fabric.sync"] * 1e3,
    }
    router = ShardedMonitor(props, num_shards=shards, mode="inprocess").router
    for k, routed in enumerate(router.split(part)):
        values[f"fabric.shard_events.{k}"] = float(len(routed))
    return values, 0 if got == expected else len(part)
