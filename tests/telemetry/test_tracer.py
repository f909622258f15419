"""Unit tests for the structured tracer and its Chrome trace export."""

import gzip
import hashlib
import json
import tracemalloc

from repro.probe import NULL_PROBE
from repro.telemetry import Tracer


class TestEvents:
    def test_tile_span_records_typed_event(self):
        tracer = Tracer()
        tracer.tile_span(3, "fir", 10, 50, "halt", 25)
        (event,) = tracer.events
        assert event.kind == "span"
        assert event.track == ("tiles", 3)
        assert event.time == 10
        assert event.duration == 40
        assert event.args["reason"] == "halt"
        assert event.args["instructions"] == 25

    def test_comm_and_patch_events(self):
        tracer = Tracer()
        tracer.comm_send(0, 1, 4, 100, 105)
        tracer.comm_blocked(1, 0, 4, 90)
        tracer.comm_recv(1, 0, 4, 90, 110)
        tracer.cix(2, 7, 55)
        tracer.cache_miss(2, "dcache", 0x100, 60)
        assert [e.kind for e in tracer.events] == [
            "span", "instant", "span", "instant", "instant",
        ]
        assert tracer.events[3].args["cfg"] == 7

    def test_link_events_get_noc_track(self):
        tracer = Tracer()
        tracer.link_reserved(((0, 0), (0, 1)), 0, 5, 12, 5, 3)
        (event,) = tracer.events
        assert event.track == ("noc", "(0, 0)->(0, 1)")
        assert event.duration == 5
        assert event.args["waited"] == 3

    def test_tracks_in_first_appearance_order(self):
        tracer = Tracer()
        tracer.tile_span(5, "a", 0, 1, "halt", 1)
        tracer.tile_span(2, "b", 0, 1, "halt", 1)
        tracer.tile_span(5, "c", 1, 2, "halt", 1)
        assert tracer.tracks() == [("tiles", 5), ("tiles", 2)]


def every_hook():
    """A tracer that saw every typed hook and the generic kinds; the
    first event on tile 4's track is a ``cix``."""
    tracer = Tracer()
    tracer.cix(4, 2, 5)
    tracer.tile_span(4, "fir", 0, 10, "halt", 8)
    tracer.fabric_send(0, 4, 3, 10, 14, 12)
    tracer.fabric_send(0, 4, 2, 15, 19, 17, dropped=True)
    tracer.fabric_recv(0, 4, 3, 11, 14, 20, 0)
    tracer.comm_blocked(4, 0, 2, 21)
    tracer.comm_unblocked(4, 30)
    tracer.cix(0, 7, 31)
    tracer.cache_miss(0, "dcache", 0x40, 12)
    tracer.link_reserved(((0, 0), (0, 1)), 0, 4, 11, 3, 1)
    tracer.deadlock(4, 0, 2, 40)
    tracer.recv_timeout(4, 0, 25, 45, 40, 100)
    tracer.chaos_event(0, "fault", "link", 13, {"dropped": 1})
    tracer.span(("tiles", 9), "phase", 3, 1, category="misc", a=1)
    tracer.instant(("noc", "x"), "mark", 7)
    tracer.counter(("tiles", 9), "depth", 8, 5)
    return tracer


class TestRows:
    """The log's rows, the ``events`` view and the Chrome export agree,
    and hold what the tracer recorded before it kept rows."""

    #: (kind, track, name, time, duration, category, args) per event.
    EVENTS = [
        ("instant", ("tiles", 4), "cix cfg2", 5, 0, "patch", {"cfg": 2}),
        ("span", ("tiles", 4), "fir", 0, 10, "core",
         {"reason": "halt", "instructions": 8}),
        ("span", ("tiles", 0), "send->4", 10, 2, "comm",
         {"peer": 4, "words": 3}),
        ("span", ("tiles", 0), "send->4", 15, 2, "comm",
         {"peer": 4, "words": 2}),
        ("span", ("tiles", 4), "recv<-0", 11, 9, "comm",
         {"peer": 0, "words": 3}),
        ("instant", ("tiles", 4), "blocked<-0", 21, 0, "comm",
         {"peer": 0, "words": 2}),
        ("instant", ("tiles", 4), "unblocked", 30, 0, "comm", {}),
        ("instant", ("tiles", 0), "cix cfg7", 31, 0, "patch", {"cfg": 7}),
        ("instant", ("tiles", 0), "dcache miss", 12, 0, "mem",
         {"addr": 64, "writeback": False}),
        ("span", ("noc", "(0, 0)->(0, 1)"), "pkt 0->4", 11, 3, "noc",
         {"flits": 3, "waited": 1}),
        ("instant", ("tiles", 4), "DEADLOCK waiting<-0", 40, 0, "comm",
         {"peer": 0, "words": 2}),
        ("instant", ("tiles", 4), "RECV TIMEOUT waiting<-0", 45, 0, "chaos",
         {"peer": 0, "waited": 25}),
        ("instant", ("tiles", 0), "FAULT link", 13, 0, "chaos",
         {"site": "link", "dropped": 1}),
        ("span", ("tiles", 9), "phase", 3, 0, "misc", {"a": 1}),
        ("instant", ("noc", "x"), "mark", 7, 0, "", {}),
        ("counter", ("tiles", 9), "depth", 8, 0, "counter", {"value": 5}),
    ]
    #: SHA-256 of ``json.dumps(every_hook().to_chrome())``.
    CHROME_SHA256 = (
        "66726cc637ec1fa9f4479c0608d5c32783d19ec624468ebe142f786ddb3cd14c")

    def test_events_field_by_field(self):
        events = every_hook().events
        assert [(e.kind, e.track, e.name, e.time, e.duration, e.category,
                 e.args) for e in events] == self.EVENTS

    def test_tracks_and_length(self):
        tracer = every_hook()
        assert tracer.tracks() == [
            ("tiles", 4), ("tiles", 0), ("noc", "(0, 0)->(0, 1)"),
            ("tiles", 9), ("noc", "x"),
        ]
        assert len(tracer) == len(self.EVENTS)

    def test_events_is_a_view(self):
        tracer = every_hook()
        tracer.events.clear()
        assert len(tracer.events) == len(tracer) == len(self.EVENTS)

    def test_chrome_export_unchanged(self):
        text = json.dumps(every_hook().to_chrome())
        assert hashlib.sha256(text.encode()).hexdigest() == self.CHROME_SHA256

    def test_cix_row_exports_as_its_instant(self):
        rows, instants = Tracer(), Tracer()
        for tile, cfg_id, time in [(2, 7, 55), (0, 1, 60), (2, 3, 61)]:
            rows.cix(tile, cfg_id, time)
            instants.instant(("tiles", tile), f"cix cfg{cfg_id}", time,
                             category="patch", cfg=cfg_id)
        assert rows.events == instants.events
        assert rows.tracks() == instants.tracks()
        assert json.dumps(rows.to_chrome()) == json.dumps(instants.to_chrome())

    def test_write_chrome_writes_the_dumps_text(self, tmp_path):
        tracer = every_hook()
        text = json.dumps(tracer.to_chrome())
        plain = tmp_path / "trace.json"
        tracer.write_chrome(plain)
        assert plain.read_text() == text
        packed = tmp_path / "trace.json.gz"
        tracer.write_chrome(packed)
        with gzip.open(packed, "rt", encoding="utf-8") as handle:
            assert handle.read() == text

    def test_cix_row_allocates_under_200_bytes(self):
        tracer = Tracer()
        calls = 20_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(calls):
                tracer.cix(index % 16, index % 8, 1_000_000 + index)
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tracer) == calls
        assert allocated / calls < 200


class TestChromeExport:
    def chrome(self, tracer):
        # Round-trip through JSON like a real viewer would.
        return json.loads(json.dumps(tracer.to_chrome()))

    def test_structure_is_viewer_loadable(self):
        tracer = Tracer()
        tracer.tile_span(0, "fir", 0, 100, "halt", 60)
        tracer.link_reserved(((0, 0), (1, 0)), 0, 4, 10, 5, 0)
        doc = self.chrome(tracer)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X"}
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)

    def test_metadata_names_processes_and_threads(self):
        tracer = Tracer()
        tracer.tile_span(3, "fir", 0, 10, "halt", 5)
        doc = self.chrome(tracer)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"tiles", "noc", "tile 3"} <= names

    def test_tiles_and_links_live_in_separate_pids(self):
        tracer = Tracer()
        tracer.tile_span(0, "a", 0, 1, "halt", 1)
        tracer.link_reserved(((0, 0), (0, 1)), 0, 1, 0, 2, 0)
        doc = self.chrome(tracer)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len({e["pid"] for e in spans}) == 2

    def test_span_has_ts_and_dur(self):
        tracer = Tracer()
        tracer.tile_span(0, "slice", 7, 19, "recv", 4)
        (span,) = [e for e in self.chrome(tracer)["traceEvents"]
                   if e["ph"] == "X"]
        assert span["ts"] == 7
        assert span["dur"] == 12

    def test_write_chrome(self, tmp_path):
        tracer = Tracer()
        tracer.tile_span(0, "a", 0, 5, "halt", 3)
        path = tmp_path / "trace.json"
        tracer.write_chrome(path)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_gz_suffix_gzips_and_round_trips(self, tmp_path):
        tracer = Tracer()
        tracer.tile_span(0, "a", 0, 5, "halt", 3)
        tracer.comm_send(0, 1, 4, 5, 9)
        path = tmp_path / "trace.json.gz"
        tracer.write_chrome(path)
        raw = path.read_bytes()
        assert raw[:2] == b"\x1f\x8b"  # gzip magic: actually compressed
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc == tracer.to_chrome()

    def test_gz_null_tracer(self, tmp_path):
        path = tmp_path / "empty.json.gz"
        Tracer().write_chrome(path)
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        assert {event["ph"] for event in events} == {"M"}


class TestFlowEvents:
    def chrome(self, tracer):
        return json.loads(json.dumps(tracer.to_chrome()))

    def flows(self, doc):
        return [e for e in doc["traceEvents"] if e.get("name") == "msg"]

    def test_send_recv_pair_emits_linked_flow(self):
        tracer = Tracer()
        tracer.comm_send(0, 1, 4, 100, 105)
        tracer.comm_recv(1, 0, 4, 120, 130)
        doc = self.chrome(tracer)
        flows = self.flows(doc)
        assert len(flows) == 2
        start = next(e for e in flows if e["ph"] == "s")
        finish = next(e for e in flows if e["ph"] == "f")
        assert start["id"] == finish["id"]
        assert finish["bp"] == "e"  # bind to the enclosing recv span
        assert start["args"]["words"] == 4
        # The start sits on the send span, the finish on the recv span.
        send = next(e for e in doc["traceEvents"]
                    if e.get("name") == "send->1")
        recv = next(e for e in doc["traceEvents"]
                    if e.get("name") == "recv<-0")
        assert (start["pid"], start["tid"], start["ts"]) == (
            send["pid"], send["tid"], send["ts"])
        assert (finish["pid"], finish["tid"], finish["ts"]) == (
            recv["pid"], recv["tid"], recv["ts"])

    def test_recv_spanning_two_sends_gets_two_arrows(self):
        tracer = Tracer()
        tracer.comm_send(0, 1, 2, 10, 12)
        tracer.comm_send(0, 1, 3, 20, 23)
        tracer.comm_recv(1, 0, 5, 30, 40)
        flows = self.flows(self.chrome(tracer))
        starts = [e for e in flows if e["ph"] == "s"]
        assert len(starts) == 2
        assert sorted(e["args"]["words"] for e in starts) == [2, 3]
        assert len({e["id"] for e in flows}) == 2

    def test_channels_pair_independently(self):
        tracer = Tracer()
        tracer.comm_send(0, 2, 4, 10, 12)   # 0 -> 2
        tracer.comm_send(1, 2, 4, 11, 13)   # 1 -> 2
        tracer.comm_recv(2, 1, 4, 20, 25)   # consumes the 1 -> 2 words
        flows = self.flows(self.chrome(tracer))
        (start,) = [e for e in flows if e["ph"] == "s"]
        send1 = next(e for e in self.chrome(tracer)["traceEvents"]
                     if e.get("name") == "send->2" and e["ts"] == 11)
        assert start["ts"] == send1["ts"]

    def test_unconsumed_send_emits_no_flow(self):
        tracer = Tracer()
        tracer.comm_send(0, 1, 4, 10, 12)
        assert self.flows(self.chrome(tracer)) == []


class TestNullTracer:
    def test_records_nothing(self):
        NULL_PROBE.tile_span(0, "a", 0, 5, "halt", 3)
        NULL_PROBE.fabric_send(0, 1, 2, 3, 5, 4)
        NULL_PROBE.cix(0, 0, 0)
        assert NULL_PROBE.members == ()
        assert not NULL_PROBE.enabled
