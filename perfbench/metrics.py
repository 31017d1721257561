"""Every metric the benchmark reports, with its unit.

``BENCHMARK.json`` at the repository root lists the same names.  An
untraced run prints every end-to-end metric; a traced run prints every
per-layer metric.  A per-layer metric whose layer is not on a workload's
path (the fabric on catalog-steady, the ingest queue on keyed-flows) is
reported as 0: no event went through that layer.  Metric names are made
of letters, digits, ``_``, ``.`` and ``-`` only.
"""

from __future__ import annotations

import json
from typing import Dict

#: Table-1 catalog property names, the subjects of per-property metrics.
CATALOG_PROPERTIES = (
    "arp-known-not-forwarded", "arp-unknown-forwarded",
    "knocking-invalidated", "knocking-recognized",
    "lb-hashed-port", "lb-round-robin-port", "lb-sticky-port",
    "ftp-data-port-matches", "dhcp-reply-within", "dhcp-no-reuse",
    "dhcp-no-overlap", "arp-cache-preloaded", "no-unfounded-reply",
)

#: Shard slots reported by ``fabric.shard_events.<k>``; keyed-flows'
#: fabric pass runs ``min(nproc - 1, MAX_SHARDS)`` shards (at least one).
MAX_SHARDS = 4

END_TO_END = {
    "events_per_s": "1/s",
    "setup_s": "s",
    "verdict_latency_p50_ms": "ms",
    "verdict_latency_p99_ms": "ms",
    "delivered_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "serialize.decode_us": "us",
    "serialize.encode_us": "us",
    "serialize.frame_bytes": "bytes",
    "ingest.parse_us": "us",
    "ingest.queue_dwell_p50_ms": "ms",
    "ingest.queue_dwell_p99_ms": "ms",
    "ingest.queue_depth_max": "count",
    "ingest.shed": "count",
    "daemon.monitor_busy_share": "ratio",
    "daemon.batch_events_mean": "count",
    "loadgen.late_p99_ms": "ms",
    "openloop.latency_p50_ms": "ms",
    "openloop.latency_p99_ms": "ms",
    "openloop.samples": "count",
    "fabric.observe_us": "us",
    "fabric.sync_ms": "ms",
    **{f"fabric.shard_events.{k}": "count" for k in range(MAX_SHARDS)},
    "monitor.observe_us": "us",
    "monitor.candidates_per_event": "count",
    "monitor.creates_per_event": "count",
    "monitor.refreshes_per_event": "count",
    "monitor.ops_per_event": "count",
    "monitor.expired_per_kevent": "count",
    "monitor.violations_per_kevent": "count",
    "monitor.advance_to_us": "us",
    **{f"monitor.prop_us.{p}": "us" for p in CATALOG_PROPERTIES},
    "instances.live": "count",
    **{f"instances.live.{p}": "count" for p in CATALOG_PROPERTIES},
    "monitor.add_property_ms": "ms",
    "monitor.first_batch_ms": "ms",
    "telemetry.registry_ratio": "ratio",
    "latency.samples": "count",
    "host.ref_ms": "ms",
    "host.raw_events_per_s": "1/s",
    "steady.drift": "ratio",
    "trace.overhead_ratio": "ratio",
}


def result_line(trace: bool, values: Dict[str, float], attempted: int,
                failed: int) -> str:
    """The final stdout line: every metric of the run's kind, by name."""
    units = PER_LAYER if trace else END_TO_END
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"unlisted metrics {sorted(unknown)}")
    if not trace:
        missing = set(units) - set(values)
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })
