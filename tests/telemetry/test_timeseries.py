"""Unit tests for the fixed-interval TimeSeries collector."""

import json
import math

import pytest

from repro.cpu import Core
from repro.isa import assemble
from repro.mem import MemorySystem
from repro.power.chip import EnergyModel
from repro.probe import NULL_PROBE
from repro.telemetry import TimeSeries
from repro.verify import check_timeseries
from repro.workloads import make_kernel


class TestBinning:
    def test_samples_land_in_their_interval(self):
        ts = TimeSeries(interval=100)
        ts.tile_sample(0, 0, {"cycles": 10})
        ts.tile_sample(0, 150, {"cycles": 20})
        ts.tile_sample(0, 199, {"cycles": 5})
        series = dict(ts.tile_series(0))
        assert series[0] == {"cycles": 10}
        assert series[1] == {"cycles": 25}  # both land in [100, 200)

    def test_link_flits_accumulate_per_interval(self):
        ts = TimeSeries(interval=100)
        ts.link_flits((0, 1), 10, 3)
        ts.link_flits((0, 1), 90, 2)
        ts.link_flits((0, 1), 110, 7)
        assert ts.links[(0, 1)] == {0: 5, 1: 7}

    def test_channel_occupancy_keeps_high_water(self):
        ts = TimeSeries(interval=100)
        ts.channel_occupancy(0, 1, 10, 4)
        ts.channel_occupancy(0, 1, 20, 9)
        ts.channel_occupancy(0, 1, 30, 2)
        assert ts.channels[(0, 1)] == {0: 9}

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(interval=0)
        with pytest.raises(ValueError):
            TimeSeries(capacity=0)

    def test_tile_totals_sum_fields(self):
        ts = TimeSeries(interval=10)
        ts.tile_sample(3, 0, {"cycles": 10, "instructions": 8})
        ts.tile_sample(3, 10, {"cycles": 10, "instructions": 6})
        assert ts.tile_totals(3) == {"cycles": 20, "instructions": 14}


class TestRingBuffer:
    def test_eviction_counts_dropped_intervals(self):
        ts = TimeSeries(interval=10, capacity=3)
        for i in range(5):
            ts.tile_sample(0, i * 10, {"cycles": 1})
        assert ts.dropped_intervals == 2
        assert sorted(ts.tiles[0]) == [2, 3, 4]  # oldest evicted first

    def test_span(self):
        ts = TimeSeries(interval=10)
        assert ts.span() is None
        ts.tile_sample(0, 25, {"cycles": 1})
        ts.link_flits((0, 1), 95, 2)
        assert ts.span() == (2, 9)


class TestEnergy:
    def test_energy_derived_idempotently(self):
        ts = TimeSeries(interval=1000)
        ts.tile_sample(0, 0, {"cycles": 1000})
        model = EnergyModel()
        ts.add_energy(model)
        first = ts.tiles[0][0]["energy_nj"]
        ts.add_energy(model)  # re-finalize: assign, not accumulate
        assert ts.tiles[0][0]["energy_nj"] == first
        # 139.5 mW / 16 tiles at 200 MHz: 1000 cycles = 5 us = 43.59375 nJ
        assert first == pytest.approx(43.59375)


class TestExport:
    def capture(self):
        ts = TimeSeries(interval=100)
        ts.tile_sample(0, 0, {"cycles": 80, "instructions": 60})
        ts.tile_sample(0, 120, {"cycles": 90, "instructions": 70})
        ts.link_flits((0, 1), 50, 10)
        ts.channel_occupancy(0, 1, 55, 3)
        return ts

    def test_to_dict_shape(self):
        payload = self.capture().to_dict()
        assert payload["interval"] == 100
        sample = payload["tiles"]["0"][0]
        assert (sample["index"], sample["start"], sample["end"]) == (0, 0, 100)
        link = payload["noc"]["links"]["0->1"][0]
        assert link["flits"] == 10
        assert link["utilization"] == pytest.approx(0.1)
        chan = payload["fabric"]["channels"]["0->1"][0]
        assert chan["occupancy_high_water"] == 3

    def test_payload_is_json_clean_and_v901_clean(self):
        payload = json.loads(json.dumps(self.capture().to_dict()))
        assert check_timeseries(payload).ok(strict=True)

    def test_csv_rows(self):
        text = self.capture().to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "kind,id,start,end,field,value"
        assert "tile,0,0,100,cycles,80" in lines
        assert "link,0->1,0,100,flits,10" in lines
        assert "channel,0->1,0,100,occupancy_high_water,3" in lines

    def test_write_json_and_csv(self, tmp_path):
        ts = self.capture()
        jpath = tmp_path / "ts.json"
        cpath = tmp_path / "ts.csv"
        ts.write(jpath)
        ts.write(cpath)
        assert json.loads(jpath.read_text())["interval"] == 100
        assert cpath.read_text().startswith("kind,id,")


class TestNullPath:
    def test_null_records_nothing(self):
        NULL_PROBE.link_reserved((0, 1), 0, 1, 0, 3, 0)
        NULL_PROBE.channel_occupancy(0, 1, 0, 2)
        assert not NULL_PROBE.enabled
        assert not NULL_PROBE.observes_core


class TestCoreIntegration:
    def test_kernel_intervals_reconcile_with_totals(self):
        kernel = make_kernel("fir", seed=2)
        ts = TimeSeries(interval=256)
        core = Core(kernel.program, MemorySystem.stitch(), probe=ts)
        kernel.setup(core)
        assert core.run(max_instructions=3_000_000).reason == "halt"
        ts.run_end([core], {core: "halt"}, "complete")
        totals = ts.tile_totals(0)
        assert totals["cycles"] == core.cycles
        assert totals["instructions"] == core.instret
        indices = [index for index, _ in ts.tile_series(0)]
        assert indices == sorted(set(indices))
        assert check_timeseries(ts).ok(strict=True)

    def test_deadlocked_run_keeps_its_last_interval(self):
        from repro.sim import DeadlockError, StitchSystem

        spin_then_wait = assemble(
            "movi r1, 300\nspin: addi r1, r1, -1\nbne r1, r0, spin\n"
            "movi r1, 1\nmovi r2, 0x100\nmovi r3, 1\nrecv r1, r2, r3\nhalt"
        )
        ts = TimeSeries(interval=64)
        system = StitchSystem(telemetry=ts)
        core = system.load(0, spin_then_wait)
        system.load(1, assemble("halt"))
        with pytest.raises(DeadlockError):
            system.run()
        totals = ts.tile_totals(0)
        assert totals["cycles"] == core.cycles
        assert totals["instructions"] == core.instret

    def test_disabled_core_pays_one_comparison(self):
        kernel = make_kernel("fir", seed=2)
        core = Core(kernel.program, MemorySystem.stitch())
        assert core._boundary == math.inf
        kernel.setup(core)
        core.run(max_instructions=3_000_000)
        assert core.selected_engine() == "fast"
