"""Unit tests for the Stats registry, counters and histograms."""

from repro.probe import NULL_PROBE
from repro.telemetry import (
    NULL_COUNTER,
    NULL_STATS,
    Stats,
    Telemetry,
    ensure_telemetry,
)


class TestCounters:
    def test_counter_accumulates(self):
        stats = Stats()
        counter = stats.counter("tile0.core.compute")
        counter.add()
        counter.add(41)
        assert counter.value == 42

    def test_same_name_returns_same_instrument(self):
        stats = Stats()
        assert stats.counter("a.b") is stats.counter("a.b")
        assert stats.counter("a.b") is not stats.counter("a.c")

    def test_add_convenience(self):
        stats = Stats()
        stats.add("noc.flits", 5)
        stats.add("noc.flits", 2)
        assert stats.counter("noc.flits").value == 7

    def test_reset(self):
        stats = Stats()
        stats.add("x", 3)
        stats.observe("y", 1.0)
        stats.reset()
        assert stats.counter("x").value == 0
        assert stats.histogram("y").count == 0


class TestHistograms:
    def test_summary_fields(self):
        stats = Stats()
        hist = stats.histogram("noc.link_wait")
        for value in (4, 0, 10):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 14
        assert hist.min == 0
        assert hist.max == 10
        assert hist.mean() == 14 / 3

    def test_empty_mean_is_zero(self):
        assert Stats().histogram("h").mean() == 0.0


class TestSnapshot:
    def test_snapshot_nests_by_dotted_path(self):
        stats = Stats()
        stats.add("tile0.core.compute", 10)
        stats.add("tile0.core.memory_stall", 2)
        stats.add("noc.flits", 7)
        snap = stats.snapshot()
        assert snap["tile0"]["core"] == {"compute": 10, "memory_stall": 2}
        assert snap["noc"]["flits"] == 7

    def test_render_lists_every_instrument(self):
        stats = Stats()
        stats.add("b", 2)
        stats.add("a", 1)
        text = stats.render()
        assert text.index("a = 1") < text.index("b = 2")


class TestMerge:
    def build(self, counter, observations):
        stats = Stats()
        stats.add("c", counter)
        for value in observations:
            stats.observe("h", value)
        return stats

    def test_counters_and_histograms_fold(self):
        a = self.build(3, [1, 9])
        b = self.build(4, [0, 5])
        a.merge(b)
        assert a.counter("c").value == 7
        hist = a.histogram("h")
        assert hist.count == 4
        assert hist.total == 15
        assert hist.min == 0
        assert hist.max == 9

    def test_merge_creates_missing_instruments(self):
        a = Stats()
        b = Stats()
        b.add("only.in.b", 5)
        b.observe("hist.only.b", 2)
        a.merge(b)
        assert a.counter("only.in.b").value == 5
        assert a.histogram("hist.only.b").count == 1

    def test_merge_empty_histogram_keeps_min_max(self):
        a = self.build(0, [4])
        a.merge(Stats())
        assert a.histogram("h").min == 4
        assert a.histogram("h").max == 4

    def test_merge_is_order_independent_on_summaries(self):
        parts = [self.build(i, [i, 10 - i]) for i in range(3)]
        forward = Stats()
        for part in parts:
            forward.merge(part)
        backward = Stats()
        for part in reversed(parts):
            backward.merge(part)
        assert forward.to_flat() == backward.to_flat()

    def test_flat_round_trip(self):
        stats = self.build(42, [1, 2, 3])
        clone = Stats.from_flat(stats.to_flat())
        assert clone.to_flat() == stats.to_flat()
        assert clone.histogram("h").mean() == stats.histogram("h").mean()

    def test_merge_accepts_flat_dict(self):
        a = Stats()
        a.merge(self.build(5, [7]).to_flat())
        assert a.counter("c").value == 5
        assert a.histogram("h").max == 7

    def test_null_stats_merge_is_noop(self):
        a = Stats()
        a.add("x", 1)
        a.merge(NULL_STATS)
        assert a.counter("x").value == 1
        NULL_STATS.merge(a)  # and the null side stays inert
        assert NULL_STATS.to_flat() == {"counters": {}, "histograms": {}}


class TestNullPath:
    def test_null_stats_hands_out_shared_noop(self):
        assert NULL_STATS.counter("anything") is NULL_COUNTER
        NULL_STATS.counter("anything").add(100)
        assert NULL_STATS.counter("anything").value == 0
        assert NULL_STATS.snapshot() == {}
        assert not NULL_STATS.enabled

    def test_null_histogram_is_inert(self):
        hist = NULL_STATS.histogram("h")
        hist.observe(5)
        assert hist.count == 0

    def test_ensure_telemetry(self):
        assert ensure_telemetry(None) is NULL_PROBE
        assert ensure_telemetry(False) is NULL_PROBE
        bundle = ensure_telemetry(True)
        assert bundle.enabled
        assert ensure_telemetry(bundle) is bundle
        assert not NULL_PROBE.enabled

    def test_enabled_bundle_has_live_instruments(self):
        bundle = Telemetry()
        bundle.stats.add("x")
        assert bundle.stats.counter("x").value == 1
        assert bundle.tracer.enabled
