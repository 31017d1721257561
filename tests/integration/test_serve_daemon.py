"""End-to-end tests of the live daemon: boot, stream, scrape, drain.

Each test boots a real :class:`ServeDaemon` on ephemeral ports in a
background thread, drives it over actual sockets (``stream_trace`` is
the same code path ``repro send`` uses), scrapes the HTTP plane with
stdlib ``urllib``, and asserts the graceful-shutdown contract: the
queue drains, the monitor stops, and the final report's uncertainty
interval accounts for everything shed.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.apps import LearningSwitchApp, sometimes
from repro.netsim import TraceRecorder, single_switch_network
from repro.netsim.serialize import read_trace, save_trace, trace_header
from repro.netsim.workload import l2_pairs, send_all
from repro.resilience import catalog_trace
from repro.serve import (
    ServeConfig,
    ServeDaemon,
    serve_in_thread,
    stream_trace,
)
from repro.switch.pipeline import MissPolicy


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """A recorded learning-switch trace (with faults, so properties fire)."""
    net, switch, hosts = single_switch_network(
        4, switch_kwargs={"miss_policy": MissPolicy.CONTROLLER})
    switch.set_app(LearningSwitchApp(faults=sometimes("wrong_port", 0.2,
                                                      seed=11)))
    recorder = TraceRecorder()
    switch.add_tap(recorder)
    send_all(hosts, l2_pairs(4, 80, seed=11))
    net.run()
    path = tmp_path_factory.mktemp("serve") / "trace.jsonl"
    save_trace(recorder.events, str(path),
               header=trace_header(seed=11, hosts=4, packets=80))
    return str(path)


def boot(**config_overrides):
    fields = dict(port=0, ingest=("tcp:0",), poll_interval=0.05)
    fields.update(config_overrides)
    config = ServeConfig(**fields)
    daemon = ServeDaemon(config)
    handle = serve_in_thread(daemon)
    return daemon, handle


def get(daemon, path):
    url = f"http://127.0.0.1:{daemon.http_port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestEndToEnd:
    def test_stream_scrape_drain(self, trace_path):
        daemon, handle = boot()
        try:
            result = stream_trace(
                trace_path, "127.0.0.1", daemon.ingest_ports[0], rate=0)
            assert result.events > 0
            assert wait_until(
                lambda: daemon.monitor.stats.events >= result.events)

            status, body = get(daemon, "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"

            status, body = get(daemon, "/readyz")
            assert status == 200
            assert json.loads(body)["ready"] is True

            status, body = get(daemon, "/stats")
            stats = json.loads(body)
            assert stats["monitor"]["events"] == result.events
            assert stats["queue"]["accepted"] == result.events
            assert stats["queue"]["shed"] == 0

            status, text = get(daemon, "/metrics")
            assert status == 200
            assert f"repro_serve_events_ingested_total {result.events}" \
                in text
            assert f"repro_monitor_events_total {result.events}" in text
            # Ingest-latency histogram made it to the exposition.
            assert "repro_serve_ingest_latency_seconds_count" in text
            assert "# TYPE repro_serve_ingest_latency_seconds histogram" \
                in text

            status, body = get(daemon, "/trace?limit=10")
            trace = json.loads(body)
            assert status == 200
            assert 0 < trace["count"] <= 10
            uids = [s["uid"] for s in trace["spans"] if s.get("uid")]
            assert uids, "root spans carry packet uids"
        finally:
            report = handle.stop()
        assert report.events_ingested == result.events
        assert report.events_observed == result.events
        assert report.events_shed == 0
        assert report.exact
        assert report.pending_ops == 0

    def test_wall_clock_poller_collects_samples(self, trace_path):
        daemon, handle = boot(poll_interval=0.02)
        try:
            stream_trace(trace_path, "127.0.0.1", daemon.ingest_ports[0])
            assert wait_until(lambda: len(daemon.poller.samples) >= 3)
            row = daemon.poller.samples[-1]
            assert "jitter" in row
            assert "repro_serve_queue_depth" in row["values"]
        finally:
            handle.stop()

    def test_repeat_streams_multiply_events(self, trace_path):
        daemon, handle = boot()
        try:
            result = stream_trace(
                trace_path, "127.0.0.1", daemon.ingest_ports[0], repeat=3)
            assert wait_until(
                lambda: daemon.monitor.stats.events >= result.events)
        finally:
            report = handle.stop()
        assert report.events_observed == result.events
        single = result.events // 3
        assert result.events == single * 3

    def test_unknown_route_404s_with_route_list(self, trace_path):
        daemon, handle = boot()
        try:
            status, body = get(daemon, "/nope")
            assert status == 404
            assert "/metrics" in json.loads(body)["routes"]
        finally:
            handle.stop()

    def test_garbage_frames_counted_not_fatal(self, trace_path):
        import socket

        daemon, handle = boot()
        try:
            with socket.create_connection(
                    ("127.0.0.1", daemon.ingest_ports[0])) as sock:
                sock.sendall(b"this is not json\n[]\n")
            assert wait_until(
                lambda: json.loads(get(daemon, "/stats")[1])
                ["frame_errors"] == 2)
            # Daemon still serves and still ingests after the garbage.
            result = stream_trace(
                trace_path, "127.0.0.1", daemon.ingest_ports[0])
            assert wait_until(
                lambda: daemon.monitor.stats.events >= result.events)
        finally:
            report = handle.stop()
        assert report.frame_errors == 2

    def test_malformed_frame_mid_stream_keeps_the_connection(self, trace_path):
        """A frame that is valid JSON but not a valid event (a packet
        object where the hex belongs) is one counted frame error; the
        lines after it on the same connection are still observed."""
        import socket

        with open(trace_path, "rb") as fp:
            lines = [line for line in fp.read().splitlines()
                     if b"TraceHeader" not in line]
        bad = (b'{"kind":"PacketArrival","time":0,"switch":"s",'
               b'"in_port":1,"packet":{"uid":1,"headers":[5]}}')
        half = len(lines) // 2
        stream = lines[:half] + [bad] + lines[half:]
        daemon, handle = boot()
        try:
            with socket.create_connection(
                    ("127.0.0.1", daemon.ingest_ports[0])) as sock:
                sock.sendall(b"\n".join(stream) + b"\n")
            assert wait_until(
                lambda: daemon.monitor.stats.events >= len(lines))
        finally:
            report = handle.stop()
        assert report.frame_errors == 1
        assert report.events_observed == len(lines)


class TestBackpressure:
    def test_flood_flips_readyz_and_ledgers_sheds(self, trace_path):
        daemon, handle = boot(max_queue=8, shed_window=30.0)
        # Pause dispatch so the flood actually piles up in the queue
        # instead of racing the consumer.
        daemon.queue.take_batch, real_take = (
            lambda n: [], daemon.queue.take_batch)
        try:
            result = stream_trace(
                trace_path, "127.0.0.1", daemon.ingest_ports[0], rate=0)
            assert wait_until(lambda: daemon.queue.shed > 0)

            status, body = get(daemon, "/readyz")
            payload = json.loads(body)
            assert status == 503
            assert payload["ready"] is False
            assert payload["reasons"]

            ledger = daemon.monitor.ledger
            assert len(ledger) == daemon.queue.shed
            assert all(r.kind == "ingest-shed" for r in ledger.records)
        finally:
            daemon.queue.take_batch = real_take
            report = handle.stop()
        # Accept + shed accounts for every event sent.
        assert report.events_ingested + report.events_shed == result.events
        assert report.events_shed > 0
        assert not report.exact
        lo, hi = report.interval
        assert lo <= report.violations <= hi
        assert hi - lo >= report.events_shed

    def test_final_report_written_to_disk(self, trace_path, tmp_path):
        out = tmp_path / "report.json"
        daemon, handle = boot(report_path=str(out))
        try:
            result = stream_trace(trace_path, "127.0.0.1",
                                  daemon.ingest_ports[0])
            assert wait_until(
                lambda: daemon.queue.accepted >= result.events)
        finally:
            report = handle.stop()
        data = json.loads(out.read_text())
        assert data["events"]["ingested"] == report.events_ingested
        assert data["violations"]["exact"] is True


class TestGracefulShutdown:
    def test_stop_drains_queue_before_reporting(self, trace_path):
        # Slow the dispatcher down so a backlog exists at stop time.
        daemon, handle = boot(batch_max=1)
        result = stream_trace(trace_path, "127.0.0.1",
                              daemon.ingest_ports[0], repeat=2)
        # Stop only once every frame crossed the socket into the queue;
        # stopping mid-accept is allowed to drop the connection, which
        # is not what this test is about.
        assert wait_until(lambda: daemon.queue.accepted >= result.events)
        report = handle.stop()
        # Everything accepted was observed — nothing stranded in the queue.
        assert report.events_observed == report.events_ingested
        assert daemon.queue.depth == 0
        assert report.pending_ops == 0

    def test_spans_written_on_shutdown(self, trace_path, tmp_path):
        from repro.telemetry import load_spans, validate_spans

        spans_out = tmp_path / "spans.jsonl"
        daemon, handle = boot(spans_path=str(spans_out), trace_buffer=32)
        result = stream_trace(trace_path, "127.0.0.1",
                              daemon.ingest_ports[0])
        assert wait_until(lambda: daemon.queue.accepted >= result.events)
        handle.stop()
        with open(spans_out, "r", encoding="utf-8") as fp:
            spans = load_spans(fp)
        assert spans
        spans.sort(key=lambda s: s.span_id)
        assert validate_spans(spans) == []


class TestShardedDispatch:
    def test_traced_mp_fabric_gets_whole_batches(self, tmp_path):
        """With tracing on (the default) a 2-shard mp fabric still
        receives each dispatch batch whole, so the supervisor's journal
        (512 batches between checkpoints) drops nothing and a worker
        crash would replay exactly; /trace keeps one root per event."""
        from repro.telemetry import load_spans

        path = str(tmp_path / "catalog.jsonl")
        save_trace(catalog_trace(seed=7, num_events=1500), path)
        events = read_trace(path)
        spans_out = tmp_path / "spans.jsonl"
        daemon, handle = boot(shards=2, shard_mode="mp",
                              spans_path=str(spans_out))
        try:
            result = stream_trace(path, "127.0.0.1", daemon.ingest_ports[0])
            assert result.events == len(events) == 1500
            assert wait_until(
                lambda: daemon.monitor.stats.events >= len(events),
                timeout=30.0)
            dropped = [st.journal_dropped
                       for st in daemon.monitor.supervisor.states]
            status, body = get(daemon, "/trace?limit=1000")
            recent = json.loads(body)["spans"]
            _, metrics = get(daemon, "/metrics")
        finally:
            report = handle.stop()
        assert dropped == [0, 0]
        # A scrape shows the merged shard totals, as a plain daemon's does.
        assert f"repro_monitor_events_total {len(events)}" in metrics
        assert report.events_observed == len(events)
        assert report.exact
        # The shards run null tracers: every span is an event's root.
        assert status == 200
        assert len(recent) == daemon.config.trace_buffer
        assert all(span["parent_id"] is None for span in recent)
        with open(spans_out, "r", encoding="utf-8") as fp:
            spans = sorted(load_spans(fp), key=lambda s: s.span_id)
        assert [(s.name, s.uid, s.start) for s in spans] == [
            (type(e).__name__,
             e.packet.uid if getattr(e, "packet", None) else None,
             e.time)
            for e in events]

