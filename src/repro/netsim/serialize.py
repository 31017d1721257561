"""Trace serialization: dataplane event streams as JSON lines.

Recorded traces can be written to disk and replayed later (or on another
machine) into any monitor — the repository's stand-in for pcap capture.
Packets are serialized via their wire encoding (hex), so a reloaded trace
re-parses through the same codecs the live path uses.  Packet uids are
preserved explicitly: identity (Feature 5) must survive the round trip,
and re-parsing alone would mint fresh uids.

A trace may begin with one **header line** (``kind: "TraceHeader"``)
recording provenance — schema version, generator seed, host count, packet
count — which ``repro stats`` echoes back so a snapshot is traceable to
the workload that produced it.  Readers skip the header transparently
(``load_trace`` returns events only; use ``read_trace_with_header`` to
get both), so headered traces stay readable by older tooling patterns.

Next to the line-oriented JSONL format lives a **framed batch encoding**
(:func:`encode_frames` / :func:`decode_frames`): a magic + count prefix
followed by length-prefixed frames, one per event.  The sharded fabric
uses it as the IPC wire format between the batching router and its
``multiprocessing`` workers — length prefixes let a reader consume a
batch without scanning for newlines, and the framing survives payloads
that themselves contain newlines.
"""

from __future__ import annotations

import json
import struct
from typing import IO, Iterable, Iterator, List, Optional, Tuple, Union

from ..packet.addresses import IPv4Address, MACAddress

from ..packet.packet import Packet
from ..packet.parser import encode as wire_encode
from ..packet.parser import parse as wire_parse
from ..switch.events import (
    DataplaneEvent,
    EgressAction,
    OobKind,
    OutOfBandEvent,
    PacketArrival,
    PacketDrop,
    PacketEgress,
    TimerFired,
)


class TraceFormatError(ValueError):
    """Raised on malformed trace lines."""


#: Bumped whenever the event dict layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1


def _key_scalar_to_json(value: object) -> object:
    """One instance-key element as JSON.

    JSON-native scalars pass through untouched (old traces stay
    readable); the richer types a monitor key can carry — addresses and
    the event-metadata enums — get a ``{"t": ..., "v": ...}`` tag so the
    round trip restores the original type, not its string shadow.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, IPv4Address):
        return {"t": "ip", "v": str(value)}
    if isinstance(value, MACAddress):
        return {"t": "mac", "v": str(value)}
    if isinstance(value, EgressAction):
        return {"t": "egress-action", "v": value.value}
    if isinstance(value, OobKind):
        return {"t": "oob-kind", "v": value.value}
    raise TraceFormatError(
        f"instance-key element {value!r} ({type(value).__name__}) has no "
        "trace encoding")


def _key_scalar_from_json(value: object) -> object:
    if isinstance(value, dict):
        try:
            tag, payload = value["t"], value["v"]
        except KeyError as exc:
            raise TraceFormatError(
                f"tagged key element missing field {exc}") from exc
        if tag == "ip":
            return IPv4Address(payload)
        if tag == "mac":
            return MACAddress(payload)
        if tag == "egress-action":
            return EgressAction(payload)
        if tag == "oob-kind":
            return OobKind(payload)
        raise TraceFormatError(f"unknown key element tag {tag!r}")
    return value


def trace_header(**provenance: object) -> dict:
    """A header dict (``seed=``, ``hosts=``, ``packets=``, ``events=``...)
    stamped with the current schema version."""
    header = {"kind": "TraceHeader", "schema": TRACE_SCHEMA_VERSION}
    header.update({k: v for k, v in provenance.items() if v is not None})
    return header


def event_to_dict(event: DataplaneEvent) -> dict:
    """One event as a JSON-serializable dict."""
    base = {"kind": type(event).__name__, "switch": event.switch_id,
            "time": event.time}
    if isinstance(event, PacketArrival):
        base.update(packet=wire_encode(event.packet).hex(),
                    uid=event.packet.uid, in_port=event.in_port)
    elif isinstance(event, PacketEgress):
        base.update(packet=wire_encode(event.packet).hex(),
                    uid=event.packet.uid, in_port=event.in_port,
                    out_port=event.out_port, action=event.action.value)
    elif isinstance(event, PacketDrop):
        base.update(packet=wire_encode(event.packet).hex(),
                    uid=event.packet.uid, in_port=event.in_port,
                    reason=event.reason)
    elif isinstance(event, OutOfBandEvent):
        base.update(oob_kind=event.oob_kind.value, port=event.port)
    elif isinstance(event, TimerFired):
        base.update(timer_id=event.timer_id,
                    instance_key=[_key_scalar_to_json(k)
                                  for k in event.instance_key])
    else:  # pragma: no cover - taxonomy is closed
        raise TraceFormatError(f"unknown event type {type(event).__name__}")
    return base


def event_from_dict(data: dict, max_layer: int = 7) -> DataplaneEvent:
    """Rebuild one event from its dict form.

    Raises :class:`TraceFormatError`, and nothing else, on any input it
    cannot rebuild — wrong shapes and types included (a ``dict`` where
    the packet hex belongs, a list where the event belongs) — so a
    reader of untrusted frames needs to catch one exception type.
    """
    if not isinstance(data, dict):
        raise TraceFormatError(
            f"event must be a JSON object, got {type(data).__name__}")
    try:
        return _event_from_dict(data, max_layer)
    except TraceFormatError:
        raise
    except KeyError as exc:
        raise TraceFormatError(f"trace line missing field {exc}") from exc
    except Exception as exc:  # malformed input of any other shape
        raise TraceFormatError(f"malformed event: {exc}") from exc


def _event_from_dict(data: dict, max_layer: int) -> DataplaneEvent:
    kind = data["kind"]
    switch_id = data["switch"]
    time = float(data["time"])

    def packet() -> Packet:
        parsed = wire_parse(bytes.fromhex(data["packet"]), max_layer=max_layer)
        return Packet(headers=parsed.headers, payload=parsed.payload,
                      uid=int(data["uid"]))

    if kind == "PacketArrival":
        return PacketArrival(switch_id=switch_id, time=time, packet=packet(),
                             in_port=int(data["in_port"]))
    if kind == "PacketEgress":
        return PacketEgress(
            switch_id=switch_id, time=time, packet=packet(),
            in_port=int(data["in_port"]), out_port=int(data["out_port"]),
            action=EgressAction(data["action"]))
    if kind == "PacketDrop":
        return PacketDrop(switch_id=switch_id, time=time, packet=packet(),
                          in_port=int(data["in_port"]),
                          reason=data.get("reason", ""))
    if kind == "OutOfBandEvent":
        return OutOfBandEvent(switch_id=switch_id, time=time,
                              oob_kind=OobKind(data["oob_kind"]),
                              port=data.get("port"))
    if kind == "TimerFired":
        return TimerFired(switch_id=switch_id, time=time,
                          timer_id=data.get("timer_id", ""),
                          instance_key=tuple(
                              _key_scalar_from_json(k)
                              for k in data.get("instance_key", ())))
    raise TraceFormatError(f"unknown event kind {kind!r}")


def dump_trace(
    events: Iterable[DataplaneEvent],
    fp: IO[str],
    header: Optional[dict] = None,
) -> int:
    """Write events as JSON lines; returns the count written.

    ``header`` (from :func:`trace_header`) is written as the first line
    and is not included in the returned count.
    """
    count = 0
    if header is not None:
        fp.write(json.dumps(header, sort_keys=True))
        fp.write("\n")
    for event in events:
        fp.write(json.dumps(event_to_dict(event), sort_keys=True))
        fp.write("\n")
        count += 1
    return count


def _load(
    fp: IO[str], max_layer: int = 7
) -> Tuple[Optional[dict], List[DataplaneEvent]]:
    header: Optional[dict] = None
    events: List[DataplaneEvent] = []
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
        if isinstance(data, dict) and data.get("kind") == "TraceHeader":
            if lineno == 1:
                header = data
                continue
            raise TraceFormatError(
                f"line {lineno}: TraceHeader only allowed on line 1")
        events.append(event_from_dict(data, max_layer=max_layer))
    return header, events


def load_trace(fp: IO[str], max_layer: int = 7) -> List[DataplaneEvent]:
    """Read a JSONL trace; returns events in file order (header skipped)."""
    return _load(fp, max_layer=max_layer)[1]


def save_trace(
    events: Iterable[DataplaneEvent],
    path: str,
    header: Optional[dict] = None,
) -> int:
    with open(path, "w", encoding="utf-8") as fp:
        return dump_trace(events, fp, header=header)


def read_trace(path: str, max_layer: int = 7) -> List[DataplaneEvent]:
    with open(path, "r", encoding="utf-8") as fp:
        return load_trace(fp, max_layer=max_layer)


def read_trace_with_header(
    path: str, max_layer: int = 7
) -> Tuple[Optional[dict], List[DataplaneEvent]]:
    """Like :func:`read_trace` but also returns the header (or ``None``)."""
    with open(path, "r", encoding="utf-8") as fp:
        return _load(fp, max_layer=max_layer)


# ---------------------------------------------------------------------------
# Framed batch encoding


#: Leading bytes of a framed batch — lets a reader reject a JSONL stream
#: (or any other garbage) fed to :func:`decode_frames` immediately.
FRAME_MAGIC = b"RPF1"

_U32 = struct.Struct(">I")


def encode_frames(events: Iterable[DataplaneEvent]) -> bytes:
    """Encode a batch of events as one framed byte string.

    Layout: ``FRAME_MAGIC`` + u32 event count + per event (u32 payload
    length + JSON payload).  The payloads are the same dicts the JSONL
    format writes, so both formats stay round-trip compatible with each
    other.
    """
    frames = []
    for event in events:
        payload = json.dumps(event_to_dict(event), sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        frames.append(_U32.pack(len(payload)))
        frames.append(payload)
    return FRAME_MAGIC + _U32.pack(len(frames) // 2) + b"".join(frames)


def decode_frames(data: bytes, max_layer: int = 7) -> List[DataplaneEvent]:
    """Decode a framed batch produced by :func:`encode_frames`.

    Raises :class:`TraceFormatError` on a bad magic, a truncated frame,
    or trailing bytes after the declared count — a partial IPC read must
    never silently drop events.
    """
    if data[:4] != FRAME_MAGIC:
        raise TraceFormatError(
            f"bad frame magic {data[:4]!r} (expected {FRAME_MAGIC!r})")
    if len(data) < 8:
        raise TraceFormatError("truncated frame header")
    (count,) = _U32.unpack_from(data, 4)
    events: List[DataplaneEvent] = []
    offset = 8
    for index in range(count):
        if offset + 4 > len(data):
            raise TraceFormatError(
                f"truncated batch: frame {index} length missing")
        (length,) = _U32.unpack_from(data, offset)
        offset += 4
        if offset + length > len(data):
            raise TraceFormatError(
                f"truncated batch: frame {index} payload short")
        try:
            payload = json.loads(data[offset:offset + length].decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise TraceFormatError(
                f"frame {index}: invalid JSON payload: {exc}") from exc
        events.append(event_from_dict(payload, max_layer=max_layer))
        offset += length
    if offset != len(data):
        raise TraceFormatError(
            f"{len(data) - offset} trailing bytes after {count} frames")
    return events
