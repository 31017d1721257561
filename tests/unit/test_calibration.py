"""Lint's cost blocks are the backends' own counts.

* The rules-model block is the Varanus compiler's plan
  (`plan_property`) for every property in a corpus spanning each plan
  shape the compiler can emit, and a compiled property really *behaves*
  like its plan says — the switch's meter observes the planned flow-mod
  count on a violating run.
* The codegen block is the emitter's own count, which
  ``TestCodegenCalibration`` pins.
"""

import pytest

from repro.backends.varanus_compiler import (
    VaranusCompileError,
    check_compilable,
    compile_property,
    plan_property,
)
from repro.core.refs import (
    Bind, Const, EventKind, EventPattern, FieldEq, FieldNe, Var)
from repro.core.spec import Absent, Observe, PropertySpec
from repro.lint.splitmode import estimate_cost
from repro.props import build_table1


# ---------------------------------------------------------------------------
# The rule-plan corpus: one property per compilable plan shape
# ---------------------------------------------------------------------------
def _arrival(guards=(), binds=()):
    return EventPattern(kind=EventKind.ARRIVAL, guards=tuple(guards),
                       binds=tuple(binds))


def _chain_2() -> PropertySpec:
    """The echo shape: bind at stage 0, variable guard at stage 1."""
    return PropertySpec(
        name="cal-chain-2", description="two-stage observe chain",
        stages=(
            Observe("request", _arrival(binds=(Bind("S", "ipv4.src"),))),
            Observe("response", _arrival(
                guards=(FieldEq("ipv4.dst", Var("S")),))),
        ),
        key_vars=("S",),
    )


def _chain_3() -> PropertySpec:
    """The port-knocking shape: constants at stage 0, value flow after."""
    return PropertySpec(
        name="cal-chain-3", description="three-stage knock chain",
        stages=(
            Observe("k1", _arrival(
                guards=(FieldEq("tcp.dst", Const(7001)),),
                binds=(Bind("K", "ipv4.src"),))),
            Observe("k2", _arrival(
                guards=(FieldEq("ipv4.src", Var("K")),
                        FieldEq("tcp.dst", Const(7002))))),
            Observe("open", _arrival(
                guards=(FieldEq("ipv4.src", Var("K")),
                        FieldEq("tcp.dst", Const(22))))),
        ),
        key_vars=("K",),
    )


def _chain_cancel() -> PropertySpec:
    """A knock chain whose final stage carries an ``unless`` cancel."""
    return PropertySpec(
        name="cal-chain-cancel", description="chain with a cancel rule",
        stages=(
            Observe("k1", _arrival(
                guards=(FieldEq("tcp.dst", Const(7001)),),
                binds=(Bind("K", "ipv4.src"),))),
            Observe("k2", _arrival(
                guards=(FieldEq("ipv4.src", Var("K")),
                        FieldEq("tcp.dst", Const(7002))))),
            Observe("open", _arrival(
                guards=(FieldEq("ipv4.src", Var("K")),
                        FieldEq("tcp.dst", Const(22)))),
                unless=(_arrival(
                    guards=(FieldEq("ipv4.src", Var("K")),
                            FieldEq("tcp.dst", Const(9))),),)),
        ),
        key_vars=("K",),
    )


def _observe_within() -> PropertySpec:
    """A chain whose middle stage expires (hard-timeout watcher)."""
    return PropertySpec(
        name="cal-observe-within", description="deadline'd observe chain",
        stages=(
            Observe("k1", _arrival(
                guards=(FieldEq("tcp.dst", Const(7001)),),
                binds=(Bind("K", "ipv4.src"),))),
            Observe("k2", _arrival(
                guards=(FieldEq("ipv4.src", Var("K")),
                        FieldEq("tcp.dst", Const(7002)))), within=1.0),
            Observe("open", _arrival(
                guards=(FieldEq("ipv4.src", Var("K")),
                        FieldEq("tcp.dst", Const(22)))), within=1.0),
        ),
        key_vars=("K",),
    )


def _absent_final() -> PropertySpec:
    """The unanswered-request shape: final Absent timer/discharge pair."""
    return PropertySpec(
        name="cal-absent-final", description="request needs a reply",
        stages=(
            Observe("request", _arrival(
                guards=(FieldEq("tcp.dst", Const(80)),),
                binds=(Bind("S", "ipv4.src"),))),
            Absent("reply", _arrival(
                guards=(FieldEq("ipv4.dst", Var("S")),)), within=2.0),
        ),
        key_vars=("S",),
    )


def _absent_cancel() -> PropertySpec:
    """A final Absent with an ``unless`` excusing the obligation."""
    return PropertySpec(
        name="cal-absent-cancel", description="reply obligation with excuse",
        stages=(
            Observe("request", _arrival(
                guards=(FieldEq("tcp.dst", Const(80)),),
                binds=(Bind("S", "ipv4.src"),))),
            Absent("reply", _arrival(
                guards=(FieldEq("ipv4.dst", Var("S")),)), within=2.0,
                unless=(_arrival(
                    guards=(FieldEq("ipv4.dst", Var("S")),
                            FieldNe("tcp.src", Const(80))),),)),
        ),
        key_vars=("S",),
    )


def rule_corpus():
    """Fresh rule-compilable properties covering every plan shape, plus
    any Table-1 catalog property the compiler accepts."""
    corpus = [
        _chain_2(), _chain_3(), _chain_cancel(), _observe_within(),
        _absent_final(), _absent_cancel(),
    ]
    for entry in build_table1():
        try:
            check_compilable(entry.prop)
        except VaranusCompileError:
            continue
        corpus.append(entry.prop)
    return corpus


CORPUS = {prop.name: prop for prop in rule_corpus()}
#: ``(instance_tables, rules_per_instance, flow_mods_per_instance)`` per
#: corpus property: a compiler change that moves a price shows up here.
RULE_COUNTS = {
    'cal-absent-cancel': (1, 4, 3),
    'cal-absent-final': (1, 3, 3),
    'cal-chain-2': (1, 2, 7),
    'cal-chain-3': (1, 3, 12),
    'cal-chain-cancel': (1, 4, 12),
    'cal-observe-within': (1, 3, 12),
}
#: the rule-plan shapes plus the full Table-1 catalog — codegen hosts
#: every property, so nothing waits on rule-compilability.
CODEGEN_CORPUS = {
    **CORPUS, **{entry.prop.name: entry.prop for entry in build_table1()}}

#: ``(event_classes, inline_terms)`` per property: how an emission is
#: laid out may change, what a property costs must not drift with it.
CODEGEN_COUNTS = {
    'arp-cache-preloaded': (2, 8),
    'arp-known-not-forwarded': (1, 4),
    'arp-unknown-forwarded': (2, 5),
    'cal-absent-cancel': (1, 4),
    'cal-absent-final': (1, 2),
    'cal-chain-2': (1, 1),
    'cal-chain-3': (1, 5),
    'cal-chain-cancel': (1, 7),
    'cal-observe-within': (1, 5),
    'dhcp-no-overlap': (1, 4),
    'dhcp-no-reuse': (2, 8),
    'dhcp-reply-within': (2, 3),
    'ftp-data-port-matches': (1, 5),
    'knocking-invalidated': (2, 9),
    'knocking-recognized': (2, 11),
    'lb-hashed-port': (2, 12),
    'lb-round-robin-port': (2, 12),
    'lb-sticky-port': (2, 26),
    'no-unfounded-reply': (2, 10),
}


def test_corpus_is_rule_compilable():
    for prop in CORPUS.values():
        check_compilable(prop)  # raises VaranusCompileError on regression


def test_corpus_covers_every_plan_shape():
    shapes = {
        "two_stage": any(p.num_stages == 2 for p in CORPUS.values()),
        "three_stage": any(p.num_stages >= 3 for p in CORPUS.values()),
        "cancel": any(
            any(getattr(s, "unless", ()) for s in p.stages)
            for p in CORPUS.values()),
        "final_absent": any(
            isinstance(p.stages[-1], Absent) for p in CORPUS.values()),
        "deadline": any(
            any(getattr(s, "within", None) for s in p.stages
                if not isinstance(s, Absent))
            for p in CORPUS.values()),
    }
    missing = [name for name, present in shapes.items() if not present]
    assert not missing, f"corpus lost plan shapes: {missing}"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_estimate_matches_emitted_plan(name):
    est = estimate_cost(CORPUS[name])
    plan = plan_property(CORPUS[name])
    assert est.model == "rules"
    assert est.instance_tables == plan.instance_tables
    assert est.rules_per_instance == plan.rules_per_instance
    assert est.slow_updates_per_instance == plan.flow_mods_per_instance
    assert (est.instance_tables, est.rules_per_instance,
            est.slow_updates_per_instance) == RULE_COUNTS[name]


class TestCodegenCalibration:
    """Lint's codegen cost block is the emitter's own count."""

    @pytest.mark.parametrize("name", sorted(CODEGEN_CORPUS))
    def test_estimate_matches_emitted_program(self, name):
        """The cost estimate's codegen block equals what a codegen
        monitor actually generated for the property, and the counts
        are the ones the property has always had."""
        from repro.core import Monitor

        block = estimate_cost(CODEGEN_CORPUS[name]).codegen
        monitor = Monitor(match_strategy="codegen")
        monitor.add_property(CODEGEN_CORPUS[name])
        monitor.codegen_source()  # forces the lazy build
        assert block == monitor._codegen_program.emissions[name]
        assert (block.event_classes, block.inline_terms) == \
            CODEGEN_COUNTS[name]
        assert block.matcher_lines > 0

    def test_cost_estimate_carries_codegen_for_engine_props(self):
        # Catalog rows are engine-model for the rule compiler, but the
        # codegen block still prices them.
        est = estimate_cost(CODEGEN_CORPUS["knocking-invalidated"])
        assert est.model == "engine"
        assert est.codegen is not None
        assert est.codegen.name == "knocking-invalidated"


def test_planned_flow_mods_match_metered_run():
    """Drive one instance of the 3-stage chain through its full violating
    lifecycle on a real switch; the meter's slow-update count must equal
    the plan's flow-mods-per-instance."""
    from repro.netsim import EventScheduler
    from repro.packet import tcp_syn
    from repro.switch.pipeline import MissPolicy
    from repro.switch.switch import Switch

    prop = CORPUS["cal-chain-3"]
    plan = plan_property(prop)
    switch = Switch("cal", EventScheduler(), num_ports=2, num_tables=1,
                    miss_policy=MissPolicy.FLOOD)
    compile_property(switch, prop)
    baseline = switch.meter.slow_updates
    for port in (7001, 7002, 22):
        switch.receive(
            tcp_syn(1, 2, "10.0.0.1", "10.0.0.9", 30000, port), 1)
    assert switch.meter.slow_updates - baseline == \
        plan.flow_mods_per_instance
    assert plan.instance_tables == 1
