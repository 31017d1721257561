"""The compiler-calibrated cost model (repro.lint.calibration).

Three invariants keep the estimate-vs-measured loop closed:

* the analytic estimator (`estimate_cost`, rules model) agrees with the
  plan the Varanus compiler actually emits (`plan_property`) on
  tables/rules/flow-mods per instance, for every corpus property;
* the checked-in CALIBRATION table agrees with live measurements (the
  regen script's --check, exercised here directly);
* a compiled corpus property really *behaves* like its plan says — the
  switch's meter observes the planned flow-mod count on a violating run.

The codegen cost block has no estimate to calibrate: lint reports the
emitter's own counts, which ``TestCodegenCalibration`` pins.
"""

import pytest

from repro.backends.varanus_compiler import (
    check_compilable,
    compile_property,
    plan_property,
)
from repro.lint.calibration import (
    CALIBRATION,
    MeasuredCost,
    calibration_corpus,
    measured_cost,
    regenerate,
)
from repro.lint.splitmode import estimate_cost
from repro.props import build_table1

CORPUS = {prop.name: prop for prop in calibration_corpus()}
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
    from repro.core.spec import Absent

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


def test_checked_in_table_matches_live_measurements():
    assert regenerate() == CALIBRATION, (
        "CALIBRATION drifted from the compiler: rerun "
        "PYTHONPATH=src python -m tests.regen_calibration")


def test_estimator_consults_the_table():
    est = estimate_cost(CORPUS["cal-chain-3"])
    assert est.source == "calibrated"
    assert est.measured == MeasuredCost(*CALIBRATION["cal-chain-3"])


def test_uncalibrated_property_has_no_measurement():
    assert measured_cost("not-in-the-table") is None
    prop = CORPUS["cal-chain-2"]
    renamed = type(prop)(
        name="uncalibrated-echo", description=prop.description,
        stages=prop.stages, key_vars=prop.key_vars)
    est = estimate_cost(renamed)
    assert est.measured is None
    assert est.source == "model"


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
