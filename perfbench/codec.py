"""Per-event wire costs of a workload's own events (traced runs only)."""

from __future__ import annotations

import io
from typing import Dict

from repro.netsim.serialize import (
    decode_frames, dump_trace, encode_frames, load_trace)
from repro.serve.ingest import parse_frame

from host import HostScale, timed


def codec_costs(host: HostScale, events) -> Dict[str, float]:
    """JSONL decode, RPF1 framed encode (and its size) and per-line
    ``parse_frame`` cost, in host-scaled µs per event."""
    buf = io.StringIO()
    dump_trace(events, buf)
    text = buf.getvalue()
    lines = [line.encode("utf-8") for line in text.splitlines()]
    n = len(events)

    def scaled_us(fn):
        host.restart()
        (result, seconds), factor = host.bracket(lambda: timed(fn))
        return result, seconds / factor / n * 1e6

    decoded, decode_us = scaled_us(lambda: load_trace(io.StringIO(text)))
    frame, encode_us = scaled_us(lambda: encode_frames(decoded))
    _, parse_us = scaled_us(lambda: [parse_frame(line) for line in lines])
    if len(decode_frames(frame)) != n:
        raise RuntimeError("RPF1 round trip lost events")
    return {
        "serialize.decode_us": decode_us,
        "serialize.encode_us": encode_us,
        "serialize.frame_bytes": len(frame) / n,
        "ingest.parse_us": parse_us,
    }
