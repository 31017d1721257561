"""Fuzz the wire decoders: malformed input is a counted error, never a
crash.

The daemon's ingest handlers catch exactly :class:`FrameError`, and the
fabric's IPC reader exactly :class:`TraceFormatError`; any other
exception escaping ``parse_frame`` or ``decode_frames`` would kill the
handler and silently drop every later line on that connection.  These
properties feed both decoders arbitrary bytes and near-miss events (a
valid event dict with one field deleted or replaced by arbitrary JSON)
and accept only a decoded event, a skipped line, or those two errors.
"""

import json
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.serialize import (
    FRAME_MAGIC,
    TraceFormatError,
    decode_frames,
    event_to_dict,
)
from repro.packet import arp_request, tcp_packet
from repro.serve.ingest import FrameError, parse_frame
from repro.switch.events import (
    EgressAction,
    OobKind,
    OutOfBandEvent,
    PacketArrival,
    PacketDrop,
    PacketEgress,
    TimerFired,
)

_PACKET = tcp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                     "10.0.0.1", "10.0.0.2", 1234, 80)

#: one valid dict per event kind — the seeds the mutations start from.
SEEDS = [event_to_dict(event) for event in (
    PacketArrival(switch_id="s", time=1.0, packet=_PACKET, in_port=1),
    PacketEgress(switch_id="s", time=2.0, packet=arp_request(
        "00:00:00:00:00:01", "10.0.0.1", "10.0.0.2"),
        in_port=1, out_port=2, action=EgressAction.UNICAST),
    PacketDrop(switch_id="s", time=3.0, packet=_PACKET, in_port=1,
               reason="acl"),
    OutOfBandEvent(switch_id="s", time=4.0, oob_kind=OobKind.PORT_DOWN,
                   port=3),
    TimerFired(switch_id="s", time=5.0, timer_id="t", instance_key=(1,)),
)]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8)


@st.composite
def near_miss_events(draw):
    """A valid event dict with one field deleted or replaced."""
    data = dict(draw(st.sampled_from(SEEDS)))
    key = draw(st.sampled_from(sorted(data) + ["packet", "uid", "port"]))
    if draw(st.booleans()):
        data.pop(key, None)
    else:
        data[key] = draw(json_values)
    return data


def _framed(payloads):
    body = b"".join(struct.pack(">I", len(p)) + p for p in payloads)
    return FRAME_MAGIC + struct.pack(">I", len(payloads)) + body


class TestParseFrameFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, line):
        try:
            parse_frame(line)
        except FrameError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(near_miss_events())
    def test_near_miss_events(self, data):
        try:
            parse_frame(json.dumps(data).encode())
        except FrameError:
            pass

    def test_packet_object_instead_of_hex(self):
        line = (b'{"kind":"PacketArrival","time":0,"switch":"s",'
                b'"in_port":1,"packet":{"uid":1,"headers":[5]}}')
        try:
            parse_frame(line)
        except FrameError as exc:
            assert "fromhex" in str(exc)
        else:  # pragma: no cover - the point of the test
            raise AssertionError("malformed packet accepted")


class TestDecodeFramesFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_after_magic(self, tail):
        try:
            decode_frames(FRAME_MAGIC + tail)
        except TraceFormatError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.lists(near_miss_events() | json_values, min_size=1,
                    max_size=3))
    def test_well_framed_malformed_payloads(self, payloads):
        data = _framed([json.dumps(p).encode() for p in payloads])
        try:
            decode_frames(data)
        except TraceFormatError:
            pass
