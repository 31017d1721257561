"""catalog-steady: the 13-property Table-1 catalog at its plateau.

Why this workload: matching dominates.  Measured alone at the plateau
(traced runs, host-scaled), ``no-unfounded-reply`` costs about 225-245
µs/event, the three ``lb-*`` properties 80-145 µs/event each and the
other nine under 10 µs/event each; JSONL decoding (about 23 µs/event)
is about 4% of the cost.  It should move when the opaque predicates are
lowered or codegen becomes the only fast path, and barely move for a
codec change.

Why a plateau: from a fresh monitor, throughput falls from 7.8k to about
1.8k ev/s (compiled matcher) as live instances climb from 400 to about
1,650; they level off only after about 36k events of ``catalog_trace``.
A run timed from a fresh monitor measures that ramp, so its result
depends on run length.  Here the first :data:`WARM_EVENTS` events are
fed untimed (through the codegen matcher, only because it gets there in
a third of the time), the state is exported, and every timed span
restores it into a fresh default ``Monitor()`` and replays the same
:data:`SLICE_EVENTS` post-plateau events.  Every span does identical
work, and the oracle only has to check one slice.

Loop: closed, one caller (this process, one thread), calls of 256
events, each call decoding its JSONL lines and calling ``observe_batch``
(the ``repro replay`` path).
"""

from __future__ import annotations

import gc
import io
from typing import Callable, Dict, List, Tuple

from repro.core import Monitor
from repro.core.monitor import MonitorState
from repro.netsim.serialize import dump_trace, load_trace
from repro.props import build_table1
from repro.resilience import catalog_trace
from repro.telemetry import MetricsRegistry

import closed
import oracle
from codec import codec_costs
from host import HostScale, median, peak_rss_mb, timed

WARM_EVENTS = 36000
SLICE_EVENTS = 1024
SETUP_BUILDS = 15
#: Virtual seconds ``repro replay`` settles for after its last event.
SETTLE_S = 60.0


def catalog_props():
    return [entry.prop for entry in build_table1()]


def timed_build(props, **kwargs) -> Tuple[Monitor, Dict[str, float]]:
    """A cold monitor up to the first event it can accept, and the
    seconds spent in ``Monitor()`` plus ``add_property`` and in the
    ``observe_batch([])`` that forces any lazy program build."""
    def add() -> Monitor:
        monitor = Monitor(**kwargs)
        for prop in props:
            monitor.add_property(prop)
        return monitor

    monitor, add_s = timed(add)
    _, first_s = timed(lambda: monitor.observe_batch([]))
    return monitor, {"monitor.add_property_ms": add_s,
                     "monitor.first_batch_ms": first_s}


def build_monitor(props, **kwargs) -> Monitor:
    return timed_build(props, **kwargs)[0]


def restored(props, state: MonitorState, **kwargs) -> Monitor:
    monitor = build_monitor(props, **kwargs)
    monitor.restore_state(state)
    return monitor


def jsonl_chunks(events, size: int) -> List[str]:
    """The events as JSONL text, ``size`` lines per chunk."""
    chunks = []
    for start in range(0, len(events), size):
        buf = io.StringIO()
        dump_trace(events[start:start + size], buf)
        chunks.append(buf.getvalue())
    return chunks


def run(seed: int, seconds: float, trace: bool) -> Dict:
    props = catalog_props()
    events = catalog_trace(seed, WARM_EVENTS + SLICE_EVENTS)
    warm = build_monitor(props, match_strategy="codegen")
    warm.observe_batch(events[:WARM_EVENTS])
    state = warm.export_state()
    del warm
    chunks = jsonl_chunks(events[WARM_EVENTS:], closed.CALL_EVENTS)
    slice_events = load_trace(io.StringIO("".join(chunks)))
    del events

    host = HostScale()
    setup_s, setup_parts = closed.setup_median(
        host, lambda: timed_build(props), lambda m: None, SETUP_BUILDS)

    def prepare():
        monitor = restored(props, state)
        return monitor, oracle.mark(monitor)

    def run_span(ctx, log):
        monitor, _ = ctx

        def call(batch, text):
            decoded = log.call("serialize.decode", batch,
                               lambda: load_trace(io.StringIO(text)))
            log.call("monitor.observe_batch", batch,
                     lambda: monitor.observe_batch(decoded))
            return len(decoded)

        return closed.interleaved(host, [
            (lambda b=b, t=t: call(b, t)) for b, t in enumerate(chunks)])

    def finish(ctx, span):
        span.fingerprint, span.counters = oracle.since(*ctx)

    spans = closed.run_spans(host, prepare, run_span, finish, seconds, trace)
    rss = peak_rss_mb()

    def interpreted():
        monitor = restored(props, state, match_strategy="interpreted")
        start = oracle.mark(monitor)
        monitor.observe_batch(slice_events)
        return oracle.since(monitor, start)[0]

    expected = oracle.cached(
        f"catalog-steady:{seed}:{WARM_EVENTS}:{SLICE_EVENTS}", interpreted)
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
    selfs = closed.layer_self_us(spans)
    values["monitor.observe_us"] = selfs["monitor.observe_batch"]
    values.update(codec_costs(host, slice_events))
    live = live_by_property(props, state)
    values["instances.live"] = float(sum(live.values()))
    values.update({f"instances.live.{p}": float(n) for p, n in live.items()})
    prop_us = per_property_us(host, props, state, slice_events)
    values.update({f"monitor.prop_us.{p}": us for p, us in prop_us.items()})
    values["monitor.advance_to_us"] = settle_us(host, props, state,
                                                slice_events)
    values["telemetry.registry_ratio"] = registry_ratio(
        host, lambda **kwargs: restored(props, state, **kwargs), slice_events)
    costliest = max(prop_us, key=prop_us.get)
    return {"values": values, "attempted": attempted, "failed": failed,
            "logs": [s.log for s in spans if s.traced],
            "note": f"costliest property: {costliest} "
                    f"({prop_us[costliest]:.1f} us/event alone)"}


def live_by_property(props, state: MonitorState) -> Dict[str, int]:
    live = {prop.name: 0 for prop in props}
    for snap in state.instances:
        live[snap.prop] = live.get(snap.prop, 0) + 1
    return live


def replay_seconds(host: HostScale, monitor: Monitor, events) -> float:
    """Host-scaled seconds to observe ``events`` in calls of 256."""
    calls = [events[i:i + closed.CALL_EVENTS]
             for i in range(0, len(events), closed.CALL_EVENTS)]
    gc.collect()
    host.restart()
    return closed.interleaved(host, [
        (lambda c=c: (monitor.observe_batch(c), len(c))[1])
        for c in calls]).scaled_seconds


def per_property_us(host: HostScale, props, state: MonitorState,
                    events) -> Dict[str, float]:
    """Each property alone on the slice, from its own plateau state."""
    out = {}
    for prop in props:
        own = MonitorState(
            now=state.now,
            instances=tuple(s for s in state.instances if s.prop == prop.name),
            lost_pending_ops=0)
        samples = [replay_seconds(host, restored([prop], own), events)
                   for _ in range(2)]
        out[prop.name] = median(samples) / len(events) * 1e6
    return out


def settle_us(host: HostScale, props, state: MonitorState, events) -> float:
    """One ``advance_to`` settle after the slice, as ``repro replay`` does."""
    monitor = restored(props, state)
    monitor.observe_batch(events)
    horizon = events[-1].time + SETTLE_S
    host.restart()
    (_, elapsed), factor = host.bracket(
        lambda: timed(lambda: monitor.advance_to(horizon)))
    return elapsed / factor * 1e6


def registry_ratio(host: HostScale, build: Callable[..., Monitor],
                   events) -> float:
    """``observe_batch`` over ``events`` with a live ``MetricsRegistry``
    over the default ``NullRegistry``; ``build(**kwargs)`` makes each
    fresh monitor."""
    timings = {True: [], False: []}
    for _ in range(3):
        for live in (False, True):
            monitor = build(**({"registry": MetricsRegistry()} if live else {}))
            timings[live].append(replay_seconds(host, monitor, events))
    return median(timings[True]) / median(timings[False])
