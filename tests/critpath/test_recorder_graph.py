"""Recorder + graph construction over real co-simulations."""

import json

import pytest

from repro.critpath import (
    COUNTER_FIELDS,
    DependencyGraph,
    DependencyRecorder,
    analyze,
)
from repro.critpath.recorder import KIND_HALT, KIND_RECV, KIND_SEND
from repro.critpath.runner import record_system
from repro.probe import NULL_PROBE
from repro.isa import assemble
from repro.sim import StitchSystem
from repro.sweep.runner import ring_programs


def recorded_ring(laps=2, **system_kwargs):
    telemetry = recorder = DependencyRecorder()
    system = StitchSystem(telemetry=telemetry, **system_kwargs)
    for tile, program in ring_programs(4, laps=laps).items():
        system.load(tile, program)
    return record_system("ring4", system, recorder)


class TestRecording:
    def test_ring_reconciles_exactly(self):
        run = recorded_ring()
        analysis = run.analysis
        assert analysis.reconciled()
        assert analysis.consistent()
        assert analysis.total == run.measured == run.graph.makespan

    def test_contention_off_also_reconciles(self):
        run = recorded_ring(contention=False)
        assert run.analysis.reconciled()
        assert run.analysis.consistent()

    def test_record_kinds_and_program_order(self):
        run = recorded_ring(laps=1)
        for tile in run.graph.tiles():
            records = run.graph.tile_records(tile)
            assert records[-1].kind == KIND_HALT
            assert [r.seq for r in records] == list(range(len(records)))
            assert all(r.issue <= r.end for r in records)
            ends = [r.end for r in records]
            assert ends == sorted(ends)

    def test_recv_sources_name_the_real_sender(self):
        run = recorded_ring(laps=1)
        records = run.graph.records
        for record in records:
            if record.kind != KIND_RECV:
                continue
            assert record.sources, "every ring recv has a recorded source"
            binding = records[record.binding]
            assert binding.kind == KIND_SEND
            assert binding.tile == record.peer
            assert binding.peer == record.tile

    def test_counter_deltas_partition_known_fields(self):
        run = recorded_ring(laps=1)
        for record in run.graph.records:
            assert set(record.counters) <= set(COUNTER_FIELDS)

    def test_send_crossings_recorded_under_contention(self):
        run = recorded_ring(laps=1)
        sends = [r for r in run.graph.records
                 if r.kind == KIND_SEND and r.tile != r.peer]
        assert sends
        assert any(send.crossings for send in sends)

    def test_noc_edge_weight_is_flight_beyond_injection(self):
        run = recorded_ring(laps=1)
        graph = run.graph
        noc = [e for e in graph.edges if e.kind == "noc"]
        assert noc
        for edge in noc:
            recv = graph.records[edge.record]
            binding = graph.records[recv.binding]
            assert edge.weight == recv.ready - binding.end


class TestJsonRoundTrip:
    def test_round_trip_preserves_analysis(self):
        run = recorded_ring()
        payload = json.loads(json.dumps(run.graph.to_dict()))
        rebuilt = DependencyGraph.from_dict(payload)
        again = analyze(rebuilt)
        assert again.total == run.analysis.total
        assert again.reconciled() and again.consistent()
        assert [s.kind for s in again.steps] == [
            s.kind for s in run.analysis.steps
        ]

    def test_tampered_makespan_is_rejected(self):
        run = recorded_ring(laps=1)
        payload = run.graph.to_dict()
        payload["makespan"] += 1
        with pytest.raises(ValueError, match="makespan mismatch"):
            DependencyGraph.from_dict(payload)

    def test_unknown_schema_is_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            DependencyGraph.from_dict({"schema": 99})


class TestNullRecorder:
    def test_disabled_recorder_is_inert(self):
        assert not NULL_PROBE.enabled
        NULL_PROBE.comm_blocked(1, 0, 4, 10)
        NULL_PROBE.fabric_send(0, 1, 4, 10, 15, 12)
        NULL_PROBE.run_end([], {}, "complete")
        assert NULL_PROBE.members == ()

    def test_plain_run_records_nothing(self):
        system = StitchSystem()
        wait = assemble("movi r1, 1\nmovi r2, 0x100\nmovi r3, 1\n"
                        "sw r1, 0(r2)\nsend r1, r2, r3\nhalt")
        sink = assemble("movi r1, 0\nmovi r2, 0x200\nmovi r3, 1\n"
                        "recv r1, r2, r3\nhalt")
        system.load(0, wait)
        system.load(1, sink)
        system.run()
        assert system.telemetry is NULL_PROBE
        assert all(core.selected_engine() == "fast"
                   for core in system.cores if core is not None)
