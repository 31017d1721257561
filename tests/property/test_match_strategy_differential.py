"""Differential property tests: compiled vs interpreted vs codegen matching.

The compiled engine (per-event-class dispatch plans + specialized guard
closures, ``repro.core.compile``) and the codegen engine (straight-line
source emitted per (property, event class) and exec'd once,
``repro.core.codegen``) are performance rewrites of the monitor hot
path.  They must be *observationally invisible*: on any event stream,
all three match strategies — crossed with both instance-store strategies
— must produce identical violations and identical counters.  These tests
drive random streams through every configuration and compare everything
the monitor exposes, including the codegen columnar batch path and the
sharded fabric.

The probe catalog here is deliberately richer than the one in
``test_engine_properties``: it adds negative observations (Absent),
``unless`` cancellation, ``MismatchAny`` disjunctive negation, drop
events, constant guards (the closure compiler folds these), and a
refresh-on-prior timer, so every branch of the compiled evaluator is
exercised against its interpreted twin.
"""

import itertools
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Absent,
    Bind,
    Const,
    EventKind,
    EventPattern,
    FieldCmp,
    FieldEq,
    FieldNe,
    MismatchAny,
    Monitor,
    Observe,
    Predicate,
    PropertySpec,
    Var,
)
from repro.core.degradation import EVICT_OLDEST, DegradationPolicy
from repro.packet import ethernet
from repro.switch.events import (
    EgressAction,
    OobKind,
    OutOfBandEvent,
    PacketArrival,
    PacketDrop,
    PacketEgress,
)
from repro.switch.switch import ProcessingMode
from repro.telemetry import MetricsRegistry

addr = st.integers(min_value=1, max_value=4)

STORE_STRATEGIES = ("indexed", "linear")
MATCH_STRATEGIES = ("compiled", "interpreted", "codegen")

STAT_FIELDS = (
    "events",
    "violations",
    "instances_created",
    "instances_expired",
    "instances_discharged",
    "instances_cancelled",
    "timer_advances",
    "refreshes",
    "candidates_examined",
    "ops_applied",
)
DEGRADATION_FIELDS = (
    "instances_evicted",
    "instances_rejected",
    "ops_shed",
    "op_retries",
)


@st.composite
def event_streams(draw, max_events=25):
    """Time-ordered streams over arrivals, egresses, drops, and OOB events,
    with occasional packet-identity reuse on egress/drop."""
    n = draw(st.integers(min_value=1, max_value=max_events))
    events = []
    seen_packets = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(min_value=0.001, max_value=1.5))
        kind = draw(st.sampled_from(["arrival", "egress", "drop", "oob"]))
        if kind == "oob":
            events.append(OutOfBandEvent(
                switch_id="s", time=t, oob_kind=OobKind.PORT_DOWN,
                port=draw(addr)))
            continue
        if kind != "arrival" and seen_packets and draw(st.booleans()):
            packet = draw(st.sampled_from(seen_packets))  # identity reuse
        else:
            packet = ethernet(draw(addr), draw(addr))
        if kind == "arrival":
            events.append(PacketArrival(switch_id="s", time=t, packet=packet,
                                        in_port=draw(addr)))
            seen_packets.append(packet)
        elif kind == "egress":
            events.append(PacketEgress(
                switch_id="s", time=t, packet=packet, out_port=draw(addr),
                in_port=draw(addr), action=EgressAction.UNICAST))
        else:
            events.append(PacketDrop(switch_id="s", time=t, packet=packet,
                                     in_port=draw(addr)))
    return events


def probe_catalog():
    """Property shapes covering every compiled-evaluator branch."""
    return [
        # Exact match plus a folded constant guard (FieldEq/FieldNe Const).
        PropertySpec(
            name="echo", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldNe("in_port", Const(0)),),
                    binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("eth.dst", Var("S")),
                            FieldEq("in_port", Const(1))))),
            ),
            key_vars=("S",),
        ),
        # Timeout (within) on the waiting stage.
        PropertySpec(
            name="timed", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                          binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("eth.dst", Var("S")),)), within=2.0),
            ),
            key_vars=("S",),
        ),
        # Disjunctive negation (the NAT property's MismatchAny shape).
        PropertySpec(
            name="mism", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("S", "eth.src"), Bind("D", "eth.dst")))),
                Observe("b", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(MismatchAny((("eth.src", Var("S")),
                                         ("eth.dst", Var("D")))),))),
            ),
            key_vars=("S", "D"),
        ),
        # Packet identity (same_packet_as) ending on a drop.
        PropertySpec(
            name="ident", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.DROP, same_packet_as="a")),
            ),
            key_vars=("S",),
        ),
        # Negative observation: violation fires from a timer, an egress to
        # the bound source discharges the obligation.
        PropertySpec(
            name="noreply", description="",
            stages=(
                Observe("req", EventPattern(kind=EventKind.ARRIVAL,
                                            binds=(Bind("S", "eth.src"),))),
                Absent("reply", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("eth.dst", Var("S")),)), within=1.5),
            ),
            key_vars=("S",),
        ),
        # The unsound timer-refresh policy the paper calls out: the
        # refresh path must behave identically under both strategies.
        PropertySpec(
            name="refreshy", description="",
            stages=(
                Observe("req", EventPattern(kind=EventKind.ARRIVAL,
                                            binds=(Bind("S", "eth.src"),))),
                Absent("reply", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("eth.dst", Var("S")),)),
                    within=1.5, refresh="on_prior"),
            ),
            key_vars=("S",),
        ),
        # Persistent obligation: a port-down unless cancels the wait.
        PropertySpec(
            name="unlessy", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                          binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("eth.dst", Var("S")),)),
                    within=5.0,
                    unless=(EventPattern(kind=EventKind.OOB,
                                         oob_kind=OobKind.PORT_DOWN),)),
            ),
            key_vars=("S",),
        ),
        # Any-packet kind plus an OOB middle stage (multiple match: the
        # OOB stage has an empty index plan, forcing the scan bucket).
        PropertySpec(
            name="oobp", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ANY_PACKET,
                                          binds=(Bind("S", "eth.src"),))),
                Observe("down", EventPattern(kind=EventKind.OOB,
                                             oob_kind=OobKind.PORT_DOWN)),
                Observe("b", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("eth.dst", Var("S")),))),
            ),
            key_vars=("S",),
        ),
        # Predicate guards plus ordered compare and an egress-action
        # refinement.  A stage-0 Predicate keeps this property OFF the
        # codegen columnar prefilter (predicates may consult auxiliary
        # state, so they must run per event, in order); the stage-1
        # Predicate reads the full field mapping, exercising the batch
        # path's fields-dict column.
        PropertySpec(
            name="predy", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(Predicate(
                        lambda fields, env: fields.get("in_port", 0) != 3,
                        "in_port != 3"),),
                    binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldCmp("out_port", "<", Const(4)),
                            Predicate(
                                lambda fields, env:
                                fields.get("eth.dst") == env.get("S"),
                                "dst == $S")),
                    egress_action=EgressAction.UNICAST)),
            ),
            key_vars=("S",),
        ),
    ]


def run_config(events, store_strategy, match_strategy):
    monitor = Monitor(store_strategy=store_strategy,
                      match_strategy=match_strategy)
    for prop in probe_catalog():
        monitor.add_property(prop)
    for event in events:
        monitor.observe(event)
    monitor.advance_to(events[-1].time + 100.0)
    violations = [
        (v.property_name, round(v.time, 9), v.message, tuple(sorted(
            (k, str(val)) for k, val in v.bindings.items())))
        for v in monitor.violations
    ]
    stats = {name: getattr(monitor.stats, name) for name in STAT_FIELDS}
    return violations, stats


def _key_parity(name, key):
    """A deterministic half of the key space (the fabric's ownership
    predicate shape)."""
    return zlib.crc32(repr((name, key)).encode()) % 2 == 0


#: the intake configurations the single loop must treat alike: every
#: routing branch (inline, split enqueue, degraded split), a bounded
#: store, a key filter, and telemetry on (inline, and split for the
#: pending-depth histogram).
INTAKE_CONFIGS = ("plain", "telemetry", "split", "telemetry-split",
                  "bounded", "key-filter")


def intake_monitor(config, match_strategy):
    kwargs = {}
    if config.startswith("telemetry"):
        kwargs["registry"] = MetricsRegistry()
    if config.endswith("split"):
        kwargs.update(mode=ProcessingMode.SPLIT, split_lag=0.5)
    elif config == "bounded":
        kwargs.update(
            mode=ProcessingMode.SPLIT, split_lag=0.5,
            degradation=DegradationPolicy(
                max_instances=2, eviction=EVICT_OLDEST, max_pending_ops=3,
                retry_backoff=0.25, max_retries=1))
    elif config == "key-filter":
        kwargs["key_filter"] = _key_parity
    monitor = Monitor(match_strategy=match_strategy, **kwargs)
    for prop in probe_catalog():
        monitor.add_property(prop)
    return monitor


def run_intake(events, config, match_strategy, batched):
    monitor = intake_monitor(config, match_strategy)
    if batched:
        monitor.observe_batch(events)
    else:
        for event in events:
            monitor.observe(event)
    monitor.advance_to(events[-1].time + 100.0)
    violations = [
        (v.property_name, round(v.time, 9), v.message, tuple(sorted(
            (k, str(val)) for k, val in v.bindings.items())))
        for v in monitor.violations
    ]
    stats = {name: getattr(monitor.stats, name)
             for name in STAT_FIELDS + DEGRADATION_FIELDS}
    ledger = [(r.kind, r.prop, r.detail, r.time, r.impacts)
              for r in monitor.ledger.records]
    registry = monitor.registry.snapshot()
    if config.startswith("telemetry"):
        names = {m["name"] for m in registry["metrics"]}
        assert "repro_monitor_candidates_per_event" in names
        assert "repro_instance_store_live_instances" in names
    return violations, stats, ledger, registry


class TestMatchStrategyEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(event_streams())
    def test_all_configs_agree(self, events):
        """Violations (name, time, message, bindings) are identical across
        {compiled, interpreted, codegen} x {indexed, linear}; the full
        counter set is identical across match strategies within each store
        (different stores may legitimately examine different candidate
        counts)."""
        results = {
            (store, match): run_config(events, store, match)
            for store, match in itertools.product(
                STORE_STRATEGIES, MATCH_STRATEGIES)
        }
        violation_sets = [v for v, _ in results.values()]
        for other in violation_sets[1:]:
            assert other == violation_sets[0]
        for store in STORE_STRATEGIES:
            _, compiled_stats = results[(store, "compiled")]
            for match in MATCH_STRATEGIES[1:]:
                _, other_stats = results[(store, match)]
                assert other_stats == compiled_stats, (store, match)

    @settings(max_examples=30, deadline=None)
    @given(event_streams())
    def test_candidate_counts_match_within_store(self, events):
        """Dispatch planning skips whole (property, stage) pairs, but the
        candidates it *does* examine must be the same set the interpreted
        walk reaches after its own kind/stage filters.  The codegen
        engine batches its counter increments (one add per event), which
        must still land on the same totals."""
        for store in STORE_STRATEGIES:
            _, interp_stats = run_config(events, store, "interpreted")
            for match in ("compiled", "codegen"):
                _, fast_stats = run_config(events, store, match)
                assert (fast_stats["candidates_examined"]
                        == interp_stats["candidates_examined"]), (store, match)

    @settings(max_examples=30, deadline=None)
    @given(event_streams())
    def test_batch_equals_loop(self, events):
        """``observe_batch`` and event-at-a-time ``observe`` run the same
        intake loop, so for every strategy — codegen's columnar chunks
        included — and every intake configuration they must yield the
        compiled loop's violations, counters, and ledger; with telemetry
        on, the whole registry too (candidates-per-event histogram and
        per-property live gauges among it)."""
        for config in INTAKE_CONFIGS:
            reference = run_intake(events, config, "compiled", batched=False)
            for match in MATCH_STRATEGIES:
                for batched in (False, True):
                    got = run_intake(events, config, match, batched)
                    assert got == reference, (config, match, batched)

    @settings(max_examples=15, deadline=None)
    @given(event_streams())
    def test_codegen_under_shards(self, events):
        """The fabric passes ``match_strategy`` through ``monitor_kwargs``
        unchanged, so codegen composes with ``--shards``: a 2-shard
        fabric running codegen produces the single-monitor compiled
        violation set (order-insensitive: the fabric may interleave
        same-timestamp violations differently)."""
        from repro.fabric import ShardedMonitor

        reference, _ = run_config(events, "indexed", "compiled")

        sharded = ShardedMonitor(
            probe_catalog(), num_shards=2, mode="inprocess",
            monitor_kwargs=dict(match_strategy="codegen"))
        sharded.observe_batch(events)
        sharded.advance_to(events[-1].time + 100.0)
        sharded.stop()
        fingerprints = sorted(
            (v.property_name, round(v.time, 9), v.message, tuple(sorted(
                (k, str(val)) for k, val in v.bindings.items())))
            for v in sharded.violations
        )
        assert fingerprints == sorted(reference)
