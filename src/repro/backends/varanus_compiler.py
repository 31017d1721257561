"""The Varanus compiler: property specifications to switch rules.

The paper describes Varanus as compiling a property query language onto
switches "by using an extended, recursive form of the Open vSwitch learn
action to 'unroll' instances into new tables as events arrive", with
custom extensions for timeout actions.  This module is that compiler for
the dataplane-expressible fragment of the property IR:

* **stage 0** becomes a static rule in the entry table whose recursive
  learn *unrolls a fresh table* (``table_id=-1``) holding the stage-1
  watcher for the new instance, plus a suppression rule in the entry table
  so repeats of the same key do not spawn duplicate instances;
* each **positive stage k ≥ 1** becomes a watcher rule in the instance's
  table: on match it deletes this instance's rules (``DeleteRules`` — a
  Varanus OVS extension) and learns the stage-k+1 watcher into the *same*
  table (``table_id=-2``), or raises the violation ``Notify`` if final;
* **``Observe.within``** becomes the watcher's hard timeout: expiry
  silently retires the instance (Feature 3);
* a final **``Absent`` stage** becomes a pair installed together in the
  instance table (companion learns): a pure timer rule — a match that can
  never fire — whose ``on_timeout`` raises the violation (Feature 7), and
  a discharge rule matching the awaited event that deletes the timer;
* **``unless`` patterns** become higher-priority companion cancel rules
  that delete the instance's rules (Feature 4).

Everything runs on the simulated switch's rule machinery — no monitor
engine involved — so pipeline depth genuinely grows by one table per
unrolled instance and every state change is a slow-path flow-mod: exactly
the Sec. 3.3 cost profile, now produced by real compiled rules.
``tests/integration/test_varanus_compiler.py`` differentially checks the
compiled dataplane monitor against the reference engine on identical
traffic.

The expressible fragment is validated up front; rejections name the gap,
mirroring the paper's own limits: egress/drop matching and packet identity
need the switch's event taps, out-of-band events need Varanus's
controller-assisted extension, arbitrary predicates need general
computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.refs import Const, EventKind, EventPattern, FieldEq, FieldNe, Var
from ..core.spec import Absent, Observe, PropertySpec, Stage
from ..switch.actions import (
    Action,
    Deferred,
    DeleteRules,
    FieldRef,
    Learn,
    Notify,
    TemplateValue,
)
from ..switch.match import MatchSpec
from ..switch.switch import Switch

#: a match predicate that can never hold: positive equality on a field no
#: packet carries — the encoding of a pure timer rule.
NEVER_FIELD = "__varanus.never__"

_PACKET_KINDS = (EventKind.ARRIVAL, EventKind.ANY_PACKET)


class VaranusCompileError(ValueError):
    """The property needs features outside the dataplane-rule fragment."""


# ---------------------------------------------------------------------------
# Fragment validation
# ---------------------------------------------------------------------------
def _check_pattern(pattern: EventPattern, where: str) -> None:
    if pattern.kind not in _PACKET_KINDS:
        raise VaranusCompileError(
            f"{where}: only packet-arrival observations compile to rules "
            "(egress/drop matching needs the switch's event taps; "
            "out-of-band events need the controller-assisted extension)"
        )
    if pattern.same_packet_as is not None:
        raise VaranusCompileError(
            f"{where}: packet identity requires pipeline metadata, not rules"
        )
    for guard in pattern.guards:
        if not isinstance(guard, (FieldEq, FieldNe)):
            raise VaranusCompileError(
                f"{where}: only equality/inequality guards compile to "
                f"match fields (got {type(guard).__name__})"
            )


def check_compilable(prop: PropertySpec) -> None:
    """Raise :class:`VaranusCompileError` unless ``prop`` is expressible."""
    if prop.num_stages < 2:
        raise VaranusCompileError(
            f"property {prop.name!r}: a single-stage property has no "
            "watcher to learn (the rule layout unrolls stages 1..n into "
            "per-instance tables)")
    for i, stage in enumerate(prop.stages):
        where = f"property {prop.name!r} stage {stage.name!r}"
        _check_pattern(stage.pattern, where)
        if i == 0:
            for guard in stage.pattern.guards:
                if isinstance(guard.value, Var):
                    raise VaranusCompileError(
                        f"{where}: stage 0 guards must be constants"
                    )
        if isinstance(stage, Absent) and i != prop.num_stages - 1:
            raise VaranusCompileError(
                f"{where}: negative observations compile only as the final "
                "stage (an intermediate Absent needs engine timers)"
            )
        for unless in getattr(stage, "unless", ()):
            _check_pattern(unless, f"{where} (unless)")


# ---------------------------------------------------------------------------
# Value flow: which field of the firing packet carries each variable
# ---------------------------------------------------------------------------
def _field_for_var(prop: PropertySpec, var: str, firing_index: int) -> str:
    """The field of the stage-``firing_index`` packet carrying ``var``.

    Varanus's restriction: bound values must *flow through the packets* —
    a variable used at stage k must be readable from the packet that fired
    stage k-1, either because that stage bound it or because an equality
    guard pinned it there.  (The paper: "A, B pairs fully describe
    instances at any stage.")
    """
    stage = prop.stages[firing_index]
    for bind in stage.pattern.binds:
        if bind.var == var:
            return bind.field
    for guard in stage.pattern.guards:
        if (
            isinstance(guard, FieldEq)
            and isinstance(guard.value, Var)
            and guard.value.name == var
        ):
            return guard.field
    raise VaranusCompileError(
        f"property {prop.name!r}: ${var} is not readable from the stage-"
        f"{firing_index} packet (bind it there or pin it with an equality "
        "guard) — value flow through packets is a Varanus requirement"
    )


def _wrap(value: TemplateValue, depth: int) -> TemplateValue:
    for _ in range(depth):
        value = Deferred(value)
    return value


def _pattern_template(
    prop: PropertySpec, pattern: EventPattern, firing_index: int, depth: int
) -> Tuple[Tuple[Tuple[str, TemplateValue], ...], Tuple[str, ...]]:
    """Translate a stage pattern into a learn match template.

    ``firing_index`` is the stage whose packet resolves the FieldRefs;
    ``depth`` is how many learn levels separate template construction from
    that resolution (each level needs one ``Deferred`` wrapper).
    """
    match: List[Tuple[str, TemplateValue]] = []
    negate: List[str] = []
    for guard in pattern.guards:
        if isinstance(guard.value, Const):
            value: TemplateValue = guard.value.value
        else:
            origin = _field_for_var(prop, guard.value.name, firing_index)
            value = _wrap(FieldRef(origin), depth)
        match.append((guard.field, value))
        if isinstance(guard, FieldNe):
            negate.append(guard.field)
    return tuple(match), tuple(negate)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------
def build_entry(
    prop: PropertySpec,
    entry_table: int = 0,
    priority: int = 500,
) -> Tuple[MatchSpec, Tuple[Learn, Learn], str]:
    """Construct the full rule plan for ``prop`` without a switch.

    Returns ``(entry_match, (unroll, suppression), message)``: the static
    entry-table rule's match, its two learn actions — ``unroll`` carries
    the whole nested watcher chain, ``suppression`` the per-key duplicate
    shadow — and the alert message.  :func:`compile_property` installs
    this plan; :func:`plan_property` prices it.
    """
    check_compilable(prop)
    cookie = f"varanus:{prop.name}"
    message = prop.name

    # Build the watcher chain back-to-front.  At stage index k the watcher
    # template is constructed now but resolved when stage k-1 fires; the
    # chain nests one learn level per stage, so templates for stage k need
    # (k - 1) Deferred wrappers.
    key_origins = tuple(
        origin for var, origin in prop.var_origin().items()
        if var in prop.key_vars
    )
    deeper: Optional[Learn] = None
    for index in range(prop.num_stages - 1, 0, -1):
        deeper = _watcher_learn(prop, index, deeper, cookie, message,
                                entry_table, key_origins)

    assert deeper is not None  # specs have >= 2 stages in this fragment
    stage0 = prop.stages[0]
    entry_match = MatchSpec()
    for guard in stage0.pattern.guards:
        value = guard.value.value  # constants only (validated)
        if isinstance(guard, FieldNe):
            entry_match = entry_match.neq(guard.field, value)
        else:
            entry_match = entry_match.eq(guard.field, value)

    # The suppression rule prevents a live instance's key from spawning
    # duplicates.  It is *per key* (keyed cookie) so that retiring one
    # instance — violation, discharge, or cancel — re-opens exactly that
    # key; a hard timeout ties it to the stage-1 window where one exists.
    suppression = Learn(
        table_id=entry_table,
        match=tuple((origin, FieldRef(origin)) for origin in key_origins),
        actions=(),
        priority=priority + 10,
        hard_timeout=_suppression_timeout(prop),
        cookie=f"{cookie}:suppress",
        cookie_fields=key_origins,
    )
    return entry_match, (deeper, suppression), message


def compile_property(
    switch: Switch,
    prop: PropertySpec,
    entry_table: int = 0,
    priority: int = 500,
) -> str:
    """Compile ``prop`` onto ``switch``; returns the alert message.

    Violations surface as dataplane alerts (``switch.add_alert_sink``)
    whose message is the property name; the final triggering packet's
    guard fields ride along as carried values (Feature 10's free limited
    provenance).
    """
    entry_match, (unroll, suppression), message = build_entry(
        prop, entry_table, priority)
    switch.install_rule(
        entry_match,
        [unroll, suppression],
        table_id=entry_table,
        priority=priority,
        cookie=f"varanus:{prop.name}:entry",
    )
    return message


# ---------------------------------------------------------------------------
# Static rule-plan accounting (ground truth for the linter's cost model)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RulePlan:
    """What one instance of a compiled property costs, counted off the
    emitted rule plan rather than modeled.

    The accounting walks the violation path — stage 0 fires, every watcher
    fires in order, the final stage raises the alert (for a final
    ``Absent``, the timer expires) — because that is the lifecycle the
    whole plan exists to execute:

    * ``instance_tables`` — fresh tables this instance unrolls into the
      pipeline (learns targeting ``table_id == -1``);
    * ``rules_per_instance`` — rules installed over the lifecycle: the
      suppression rule plus every watcher/timer/discharge/cancel learn,
      companions (``extra``) included;
    * ``flow_mods_per_instance`` — slow-path state operations issued over
      the lifecycle, counted the way the switch meters them: one per
      top-level ``Learn`` or ``DeleteRules`` action (companion learns ride
      inside their parent's update), timer ``on_timeout`` actions included.
    """

    prop: str
    instance_tables: int
    rules_per_instance: int
    flow_mods_per_instance: int


def _installed_rules(learn: Learn) -> int:
    """Rules one Learn execution lands: the rule itself plus companions."""
    return 1 + sum(_installed_rules(extra) for extra in learn.extra)


def _unrolled_tables(learn: Learn) -> int:
    """Fresh tables one Learn execution creates (companions share them)."""
    return 1 if learn.table_id == -1 else 0


def plan_property(prop: PropertySpec) -> RulePlan:
    """Price ``prop`` by walking the rule plan ``compile_property`` emits.

    Raises :class:`VaranusCompileError` when the property is outside the
    rule-compilable fragment, exactly like compilation would.
    """
    _, (unroll, suppression), _ = build_entry(prop)
    tables = 0
    rules = _installed_rules(suppression)
    flow_mods = 2  # stage 0's firing issues the unroll + suppression learns
    watcher: Optional[Learn] = unroll
    while watcher is not None:
        tables += _unrolled_tables(watcher)
        rules += _installed_rules(watcher)
        # Fire the watcher along the violation path: a timer rule (pure
        # timeout encoding) fires via on_timeout, everything else via its
        # match actions.
        fired = watcher.on_timeout if watcher.on_timeout else watcher.actions
        deeper: Optional[Learn] = None
        for action in fired:
            if isinstance(action, Learn):
                flow_mods += 1
                deeper = action  # the next stage's watcher learn
            elif isinstance(action, DeleteRules):
                flow_mods += 1
        watcher = deeper
    return RulePlan(
        prop=prop.name,
        instance_tables=tables,
        rules_per_instance=rules,
        flow_mods_per_instance=flow_mods,
    )


def _suppression_timeout(prop: PropertySpec) -> Optional[float]:
    """Suppression must not outlive the instance it shadows."""
    stage1 = prop.stages[1]
    if isinstance(stage1, Absent):
        return stage1.within
    if isinstance(stage1, Observe) and stage1.within is not None:
        return stage1.within
    return None


def _watcher_learn(
    prop: PropertySpec,
    index: int,
    deeper: Optional[Learn],
    cookie: str,
    message: str,
    entry_table: int,
    key_origins: Tuple[str, ...],
) -> Learn:
    """The learn installing stage ``index``'s watcher.

    Fired by stage ``index - 1``'s packet; installs into a fresh table for
    the first watcher (unrolling the instance) or the instance's own table
    afterwards.  Template values resolve against the firing packet, so
    their Deferred depth is ``index - 1`` (one unwrap per enclosing learn).
    """
    stage = prop.stages[index]
    target = -1 if index == 1 else -2
    depth = index - 1
    final = index == prop.num_stages - 1
    firing_index = index - 1

    unsuppress = DeleteRules(
        f"{cookie}:suppress", table_id=entry_table, cookie_fields=key_origins
    )
    extras: List[Learn] = [
        _cancel_learn(prop, unless, firing_index, depth, cookie, target,
                      unsuppress)
        for unless in getattr(stage, "unless", ())
    ]

    if isinstance(stage, Absent):
        # Timer + discharge pair, installed together in the instance table.
        carried = _carry_template(prop, firing_index, depth)
        timer = Learn(
            table_id=target,
            match=((NEVER_FIELD, 1),),
            actions=(),
            priority=10,
            hard_timeout=stage.within,
            on_timeout=(Notify(message, carry=tuple(carried)), unsuppress),
            cookie=f"{cookie}:timer",
        )
        match, negate = _pattern_template(prop, stage.pattern, firing_index,
                                          depth)
        discharge = Learn(
            table_id=target,
            match=match,
            negate=negate,
            actions=(DeleteRules(f"{cookie}:timer", table_id=-2), unsuppress),
            priority=400,
            cookie=f"{cookie}:discharge",
        )
        return Learn(
            table_id=timer.table_id,
            match=timer.match,
            actions=timer.actions,
            priority=timer.priority,
            hard_timeout=timer.hard_timeout,
            on_timeout=timer.on_timeout,
            cookie=timer.cookie,
            extra=tuple([discharge] + extras),
        )

    match, negate = _pattern_template(prop, stage.pattern, firing_index, depth)
    cleanup = (
        DeleteRules(cookie, table_id=-2),
        DeleteRules(f"{cookie}:timer", table_id=-2),
        DeleteRules(f"{cookie}:discharge", table_id=-2),
        DeleteRules(f"{cookie}:cancel", table_id=-2),
    )
    if final:
        cleanup = cleanup + (unsuppress,)
    if final:
        actions: Tuple[Action, ...] = (
            Notify(message, carry=_final_carry(prop, index)),
        ) + cleanup
    else:
        assert deeper is not None
        actions = cleanup + (deeper,)
    return Learn(
        table_id=target,
        match=match,
        negate=negate,
        actions=actions,
        priority=300,
        hard_timeout=stage.within,
        cookie=cookie,
        extra=tuple(extras),
    )


def _cancel_learn(
    prop: PropertySpec,
    pattern: EventPattern,
    firing_index: int,
    depth: int,
    cookie: str,
    target: int,
    unsuppress: DeleteRules,
) -> Learn:
    match, negate = _pattern_template(prop, pattern, firing_index, depth)
    return Learn(
        table_id=target,
        match=match,
        negate=negate,
        actions=(
            DeleteRules(cookie, table_id=-2),
            DeleteRules(f"{cookie}:timer", table_id=-2),
            DeleteRules(f"{cookie}:discharge", table_id=-2),
            DeleteRules(f"{cookie}:cancel", table_id=-2),
            unsuppress,
        ),
        priority=450,
        cookie=f"{cookie}:cancel",
    )


def _carry_template(
    prop: PropertySpec, firing_index: int, depth: int
) -> List[str]:
    """Fields of the firing packet worth baking into a timer Notify."""
    fields: List[str] = []
    stage = prop.stages[firing_index]
    for bind in stage.pattern.binds:
        fields.append(bind.field)
    return fields


def _final_carry(prop: PropertySpec, final_index: int) -> Tuple[str, ...]:
    """Carry the final stage's guard fields from the triggering packet."""
    pattern = prop.stages[final_index].pattern
    return tuple(
        guard.field for guard in pattern.guards
        if isinstance(guard, (FieldEq, FieldNe))
    )
