"""Property-based tests: trace-span trees stay well-formed.

Random event streams through a traced monitor must always yield a valid
span forest: ids strictly increase, every parent exists and precedes its
child, every span is closed.  ``validate_spans`` is the single contract
that ``repro stats --trace-out`` relies on; these tests prove it holds on
arbitrary inputs, not just the hand-written smoke traces.

The root span of each event comes from the monitor's own intake loop, so
``observe_batch`` must build exactly the tree a caller gets by opening a
root span around each ``observe`` call itself (the monitor then opens
none: one is already open for the packet uid).
"""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Bind,
    EventKind,
    EventPattern,
    FieldEq,
    Monitor,
    Observe,
    PropertySpec,
    Var,
)
from repro.packet import ethernet
from repro.switch.events import EgressAction, PacketArrival, PacketEgress
from repro.switch.switch import ProcessingMode
from repro.telemetry import Tracer, dump_spans, load_spans, validate_spans

addr = st.integers(min_value=1, max_value=4)


@st.composite
def event_streams(draw, max_events=40):
    """Random time-ordered arrival/egress streams over a tiny address
    universe, so instances collide, advance, violate, and expire often."""
    n = draw(st.integers(min_value=1, max_value=max_events))
    events = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(min_value=0.001, max_value=2.0))
        packet = ethernet(draw(addr), draw(addr))
        if draw(st.booleans()):
            events.append(PacketArrival(
                switch_id="s", time=t, packet=packet, in_port=draw(addr)))
        else:
            events.append(PacketEgress(
                switch_id="s", time=t, packet=packet, in_port=draw(addr),
                out_port=draw(addr), action=EgressAction.UNICAST))
    return events


def traced_property():
    return PropertySpec(
        name="echo", description="",
        stages=(
            Observe("request", EventPattern(
                kind=EventKind.ARRIVAL, binds=(Bind("S", "eth.src"),))),
            Observe("response", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("eth.dst", Var("S")),)), within=3.0),
        ),
        key_vars=("S",),
    )


def replay(events, mode=ProcessingMode.INLINE, caller_roots=False):
    """Trace ``events`` through one monitor: one ``observe_batch`` call,
    or (``caller_roots``) one ``observe`` per event inside a root span
    the caller opens and closes at the monitor's time."""
    tracer = Tracer()
    monitor = Monitor(mode=mode, split_lag=0.5, tracer=tracer)
    monitor.add_property(traced_property())
    if caller_roots:
        for event in events:
            root = tracer.start(
                type(event).__name__, event.time, uid=event.packet.uid,
                root=True, switch=event.switch_id)
            monitor.observe(event)
            tracer.end(root, monitor.now)
    else:
        monitor.observe_batch(events)
    if events:
        monitor.advance_to(events[-1].time + 10.0)
    tracer.close_all(monitor.now)
    return tracer


def span_rows(tracer):
    return [span.to_dict() for span in tracer.spans]


class TestIntakeOwnsRootSpans:
    @settings(max_examples=40, deadline=None)
    @given(event_streams())
    def test_inline_batch_tree_equals_caller_rooted_tree(self, events):
        assert span_rows(replay(events)) == span_rows(
            replay(events, caller_roots=True))

    @settings(max_examples=40, deadline=None)
    @given(event_streams())
    def test_split_batch_tree_equals_caller_rooted_tree(self, events):
        # Deferred ops land under whichever root is open when they
        # apply (or none); both paths must agree span for span.
        split = ProcessingMode.SPLIT
        assert span_rows(replay(events, mode=split)) == span_rows(
            replay(events, mode=split, caller_roots=True))

    def test_one_root_per_event_carries_uid_and_switch(self):
        events = [
            PacketArrival(switch_id="s7", time=0.1 * (i + 1),
                          packet=ethernet(1 + i % 2, 2), in_port=1)
            for i in range(4)]
        tracer = replay(events)
        roots = [s for s in tracer.spans if s.parent_id is None
                 and s.name == "PacketArrival"]
        assert [(s.uid, s.start, s.attrs["switch"]) for s in roots] == [
            (e.packet.uid, e.time, "s7") for e in events]
        children = [s for s in tracer.spans if s.parent_id is not None]
        assert children and all(
            s.name.startswith("monitor.") for s in children)

    def test_monitor_nests_under_switch_receive_on_a_shared_tracer(self):
        # The switch opens switch.receive before its taps see the
        # arrival (and keeps it open through the egresses), so the
        # monitor's intake opens no root of its own.
        from repro.apps import LearningSwitchApp, sometimes
        from repro.netsim import single_switch_network
        from repro.netsim.workload import l2_pairs, send_all
        from repro.props import learned_unicast_port
        from repro.switch.pipeline import MissPolicy

        tracer = Tracer()
        net, switch, hosts = single_switch_network(4, switch_kwargs={
            "miss_policy": MissPolicy.CONTROLLER, "tracer": tracer})
        switch.set_app(LearningSwitchApp(
            faults=sometimes("wrong_port", 0.3, seed=5)))
        monitor = Monitor(tracer=tracer)
        monitor.add_property(learned_unicast_port())
        switch.add_tap(monitor.observe)
        send_all(hosts, l2_pairs(4, 30, seed=5))
        net.run()
        tracer.close_all()

        assert validate_spans(tracer.spans) == []
        assert monitor.violations
        by_id = {s.span_id: s for s in tracer.spans}
        assert {s.name for s in tracer.spans if s.parent_id is None} == {
            "switch.receive"}
        monitor_spans = [s for s in tracer.spans
                         if s.name.startswith("monitor.")]
        assert {s.name for s in monitor_spans} >= {
            "monitor.create", "monitor.violation"}
        for span in monitor_spans:
            parent = by_id[span.parent_id]
            assert (parent.name, parent.uid) == ("switch.receive", span.uid)

    def test_untraced_monitor_records_nothing(self):
        monitor = Monitor()
        monitor.add_property(traced_property())
        monitor.observe_batch([PacketArrival(
            switch_id="s", time=0.1, packet=ethernet(1, 2), in_port=1)])
        assert monitor.tracer.recent() == []


class TestSpanWellFormedness:
    @settings(max_examples=60, deadline=None)
    @given(event_streams())
    def test_inline_replay_spans_validate(self, events):
        tracer = replay(events)
        assert validate_spans(tracer.spans) == []

    @settings(max_examples=40, deadline=None)
    @given(event_streams())
    def test_split_replay_spans_validate(self, events):
        # Split mode applies ops after the root span closed; the monitor's
        # deferred events must still land as well-formed spans.
        tracer = replay(events, mode=ProcessingMode.SPLIT)
        assert validate_spans(tracer.spans) == []

    @settings(max_examples=40, deadline=None)
    @given(event_streams())
    def test_every_monitor_span_nests_under_a_root(self, events):
        tracer = replay(events)
        roots = {s.span_id for s in tracer.spans if s.parent_id is None}
        by_id = {s.span_id: s for s in tracer.spans}
        for span in tracer.spans:
            if span.parent_id is None:
                continue
            assert span.parent_id in by_id
            assert by_id[span.parent_id].span_id in roots or (
                by_id[span.parent_id].parent_id is not None)

    @settings(max_examples=30, deadline=None)
    @given(event_streams())
    def test_jsonl_roundtrip_preserves_validity(self, events):
        tracer = replay(events)
        buf = io.StringIO()
        dump_spans(tracer.spans, buf)
        buf.seek(0)
        loaded = load_spans(buf)
        assert len(loaded) == len(tracer.spans)
        assert validate_spans(loaded) == []
        assert [s.span_id for s in loaded] == sorted(
            s.span_id for s in tracer.spans)
