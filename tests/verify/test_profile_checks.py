"""V9xx profiler/time-series rules: red fixtures plus clean real runs."""

from repro.cpu import Core
from repro.isa import assemble
from repro.mem import MemorySystem
from repro.profile import CycleProfile, PCProfiler
from repro.telemetry import TimeSeries
from repro.verify import (
    RULES,
    Severity,
    check_profile,
    check_profile_run,
    check_timeseries,
)

SOURCE = """\
    movi r1, 4
loop:
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
"""


def profiled_core():
    core = Core(assemble(SOURCE, name="probe"), MemorySystem.stitch(),
                probe=PCProfiler())
    assert core.run().reason == "halt"
    return core


class TestRegistry:
    def test_v9xx_rules_registered(self):
        for code in ("V900", "V901"):
            assert code in RULES
            assert RULES[code].severity is Severity.ERROR
            assert RULES[code].pass_name == "profile-checks"


class TestV900Profile:
    def test_clean_on_real_run(self):
        profile = CycleProfile.from_core(profiled_core())
        assert check_profile(profile).ok(strict=True)

    def test_doctored_histogram_fires(self):
        core = profiled_core()
        profile = CycleProfile.from_core(core)
        pc = next(iter(profile.pc_cycles))
        cycles, retired = profile.pc_cycles[pc]
        profile.pc_cycles[pc] = (cycles + 5, retired)
        report = check_profile(profile)
        assert report.codes() == ["V900"]
        assert "+5" in report.errors()[0].message

    def test_cross_check_against_external_total(self):
        profile = CycleProfile.from_core(profiled_core())
        report = check_profile(profile, total_cycles=profile.total_cycles + 1)
        assert "V900" in report.codes()

    def test_run_rollup_missing_tile_fires(self):
        profile = CycleProfile.from_core(profiled_core())

        class FakeStats:
            tiles = {}

        report = check_profile_run({0: profile}, FakeStats())
        assert "V900" in report.codes()
        assert "no attribution" in report.errors()[0].message

    def test_run_rollup_agreeing_is_clean(self):
        core = profiled_core()
        profile = CycleProfile.from_core(core)

        class FakeStats:
            tiles = {core.core_id: {"total": core.cycles}}

        assert check_profile_run(
            {core.core_id: profile}, FakeStats()
        ).ok(strict=True)


class TestV901Timeseries:
    def payload(self):
        ts = TimeSeries(interval=100)
        ts.tile_sample(0, 0, {"cycles": 100, "instructions": 80})
        ts.tile_sample(0, 100, {"cycles": 100, "instructions": 90})
        ts.link_flits((0, 1), 50, 5)
        return ts.to_dict()

    def test_clean_capture(self):
        assert check_timeseries(self.payload()).ok(strict=True)

    def test_accepts_live_timeseries(self):
        ts = TimeSeries(interval=64)
        ts.tile_sample(2, 0, {"cycles": 64})
        assert check_timeseries(ts).ok(strict=True)

    def test_non_positive_interval_fires(self):
        report = check_timeseries({"interval": 0, "tiles": {}})
        assert report.codes() == ["V901"]

    def test_non_monotonic_indices_fire(self):
        payload = self.payload()
        samples = payload["tiles"]["0"]
        payload["tiles"]["0"] = [samples[1], samples[0]]
        report = check_timeseries(payload)
        assert "V901" in report.codes()
        assert "strictly increasing" in report.errors()[0].message

    def test_window_mismatch_fires(self):
        payload = self.payload()
        payload["tiles"]["0"][0]["end"] += 1
        report = check_timeseries(payload)
        assert "V901" in report.codes()
        assert "spans" in report.errors()[0].message

    def test_link_series_also_checked(self):
        payload = self.payload()
        payload["noc"]["links"]["0->1"][0]["start"] = 7
        report = check_timeseries(payload)
        assert "V901" in report.codes()
        assert "link 0->1" in report.errors()[0].loc
