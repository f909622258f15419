"""Partial-graph finalization: deadlocks, watchdog timeouts, exhausted
round budgets, exceptions inside a tile's slice, dropped messages and
tiles a cut-short run never reached."""

import pytest

from repro.chaos import Fault, InjectionPlan, Injector, RecoveryParams
from repro.cpu.core import ExecutionError
from repro.critpath import DependencyRecorder
from repro.critpath.recorder import (
    KIND_BLOCKED,
    KIND_CUT,
    KIND_HALT,
    KIND_RECV,
    KIND_SEND,
)
from repro.critpath.runner import record_system
from repro.isa import assemble
from repro.probe import Probe, combine
from repro.sim import RoundBudgetError, StitchSystem
from repro.telemetry import TimeSeries
from repro.telemetry.timeseries import core_counters
from repro.verify import Report, check_critpath


def deadlocked_run():
    """Two tiles, each receive-waiting on the other forever."""
    wait = ("movi r1, {peer}\nmovi r2, 0x100\nmovi r3, 1\n"
            "recv r1, r2, r3\nhalt")
    telemetry = recorder = DependencyRecorder()
    system = StitchSystem(telemetry=telemetry)
    system.load(0, assemble(wait.format(peer=1)))
    system.load(1, assemble(wait.format(peer=0)))
    return record_system("deadlock-pair", system, recorder)


PRODUCER = """
    movi r1, 1
    movi r2, 0x100
    movi r3, 2
    movi r4, 42
    sw   r4, 0(r2)
    sw   r4, 4(r2)
    send r1, r2, r3
    halt
"""
CONSUMER = """
    movi r1, 0
    movi r2, 0x200
    movi r3, 2
    recv r1, r2, r3
    halt
"""


def handshake(telemetry):
    """Tile 0 sends two words to tile 1."""
    system = StitchSystem(telemetry=telemetry)
    system.load(0, assemble(PRODUCER))
    system.load(1, assemble(CONSUMER))
    return system


def budget_cut_run():
    """A handshake cut off by a budget too small for one round trip."""
    recorder = DependencyRecorder()
    return record_system("budget-cut", handshake(recorder), recorder,
                         max_instructions_per_slice=1, max_rounds=2)


class TestDeadlock:
    def test_run_is_partial_with_deadlock_outcome(self):
        run = deadlocked_run()
        assert run.partial
        assert run.graph.outcome == "deadlock"
        assert run.graph.partial()
        assert "Deadlock" in type(run.error).__name__

    def test_partial_graph_still_reconciles(self):
        run = deadlocked_run()
        assert run.analysis.reconciled()
        assert run.analysis.consistent()
        assert run.measured == run.graph.makespan

    def test_blocked_terminals_recorded(self):
        run = deadlocked_run()
        terminals = {r.tile: r for r in run.graph.records
                     if r.kind == KIND_BLOCKED}
        assert set(terminals) == {0, 1}
        assert terminals[0].peer == 1
        assert terminals[1].peer == 0

    def test_frontier_names_peer_words_and_snapshot(self):
        run = deadlocked_run()
        frontier = run.analysis.frontier()
        assert set(frontier) == {0, 1}
        for tile, info in frontier.items():
            assert info["peer"] == 1 - tile
            assert info["words"] == 1
            assert info["cycles"] >= 0
            assert "snapshot" in info

    def test_verifier_accepts_partial_graph(self):
        run = deadlocked_run()
        report = Report()
        check_critpath(run.graph, run.analysis, measured=run.measured,
                       report=report)
        assert not report.errors()


class TestBudgetCut:
    def test_run_is_partial_with_budget_outcome(self):
        run = budget_cut_run()
        assert run.partial
        assert run.graph.outcome == "budget"
        assert "budget" in str(run.error)

    def test_cut_tiles_get_terminals(self):
        run = budget_cut_run()
        # Every live tile gets a terminal record — blocked if it was in
        # a receive wait, cut if it was still runnable when the budget
        # expired.
        terminals = [r for r in run.graph.records
                     if r.kind in (KIND_BLOCKED, KIND_CUT)]
        assert {r.tile for r in terminals} == {0, 1}

    def test_partial_graph_reconciles_and_verifies(self):
        run = budget_cut_run()
        assert run.analysis.reconciled()
        assert run.analysis.consistent()
        report = Report()
        check_critpath(run.graph, run.analysis, measured=run.measured,
                       report=report)
        assert not report.errors()

    def test_frontier_carries_scheduler_snapshot(self):
        run = budget_cut_run()
        assert run.graph.snapshot.get("rounds") == 2
        frontier = run.analysis.frontier()
        for info in frontier.values():
            if "snapshot" in info:
                assert info["snapshot"]["cycles"] >= 0

    def test_to_dict_reports_partial_and_error(self):
        run = budget_cut_run()
        payload = run.to_dict()
        assert payload["partial"] is True
        assert "RoundBudgetError" in payload["error"]
        assert payload["analysis"]["outcome"] == "budget"


def watchdog_run():
    """Tile 0 waits on tile 1, which spins and halts without sending."""
    waiter = assemble("movi r1, 1\nmovi r2, 0x100\nmovi r3, 1\n"
                      "recv r1, r2, r3\nhalt")
    spinner = assemble("movi r1, 500\nspin: addi r1, r1, -1\n"
                       "bne r1, r0, spin\nhalt")
    telemetry = recorder = DependencyRecorder()
    system = StitchSystem(telemetry=telemetry, recv_timeout=50)
    system.load(0, waiter)
    system.load(1, spinner)
    return record_system("watchdog-pair", system, recorder)


class TestWatchdog:
    def test_run_is_partial_with_timeout_outcome(self):
        run = watchdog_run()
        assert run.partial
        assert type(run.error).__name__ == "RecvTimeoutError"
        assert run.graph.outcome == "timeout"
        assert run.to_dict()["analysis"]["outcome"] == "timeout"

    def test_frontier_reads_the_watchdog_snapshot(self):
        run = watchdog_run()
        frontier = run.analysis.frontier()
        assert set(frontier) == {0}
        assert frontier[0]["peer"] == 1
        assert frontier[0]["snapshot"]["waiting_on"] == 1
        assert frontier[0]["snapshot"]["blocked_since"] >= 0


def dropped_send_run():
    """Tile 0's only message is dropped in flight; tile 1 waits for it."""
    sender = assemble("movi r1, 1\nmovi r2, 0x100\nmovi r3, 2\n"
                      "send r1, r2, r3\nmovi r5, 7\nhalt")
    waiter = assemble("movi r1, 0\nmovi r2, 0x200\nmovi r3, 2\n"
                      "recv r1, r2, r3\nhalt")
    drop = Fault("link", src=0, dst=1, index=0, delay=0)
    recorder = DependencyRecorder()
    injector = Injector(InjectionPlan(name="drop", faults=(drop,)))
    system = StitchSystem(telemetry=combine(recorder, injector))
    system.load(0, sender)
    system.load(1, waiter)
    return record_system("dropped-send", system, recorder), system


class TestDroppedSend:
    def test_dropped_send_is_recorded_without_an_arrival(self):
        run, system = dropped_send_run()
        assert run.graph.outcome == "deadlock"
        sends = [r for r in run.graph.records if r.kind == KIND_SEND]
        assert len(sends) == 1
        send = sends[0]
        assert (send.tile, send.peer, send.words) == (0, 1, 2)
        assert send.arrival == send.end
        assert system.fabric.messages == 0

    def test_sender_timeline_still_partitions_exactly(self):
        # Compute segments hold every cycle the counters attribute,
        # except each comm op's own issue cycle, which its span holds.
        run, system = dropped_send_run()
        partitioned = ("instructions", "memory_stall", "icache_stall",
                       "branch_bubble")
        for tile in (0, 1):
            records = [r for r in run.graph.records if r.tile == tile]
            attributed = sum(r.counters.get(field, 0) for r in records
                             for field in partitioned)
            comm_ops = sum(r.kind in (KIND_SEND, KIND_RECV)
                           for r in records)
            assert sum(r.compute for r in records) == attributed - comm_ops
            assert sum(r.compute + r.end - r.issue for r in records) == \
                system.cores[tile].cycles
        assert run.analysis.reconciled()
        report = Report()
        check_critpath(run.graph, run.analysis, measured=run.measured,
                       report=report)
        assert not report.errors()


def corrupted_run():
    """Both handshake words arrive corrupted, past a one-retry budget."""
    faults = tuple(Fault("channel", src=0, dst=1, index=0, word=word, bit=2)
                   for word in range(2))
    plan = InjectionPlan(name="corrupt", faults=faults,
                         recovery=RecoveryParams(max_retries=1))
    recorder = DependencyRecorder()
    system = handshake(combine(recorder, Injector(plan)))
    return record_system("corrupted", system, recorder)


class TestChannelCorruption:
    def test_run_is_partial_with_fault_outcome(self):
        run = corrupted_run()
        assert run.partial
        assert type(run.error).__name__ == "ChannelCorruptionError"
        assert run.graph.outcome == "fault"
        assert run.graph.snapshot["words_corrupted"] == 2

    def test_the_receiving_tile_is_cut(self):
        run = corrupted_run()
        terminals = {r.tile: r.kind for r in run.graph.records
                     if r.kind in (KIND_HALT, KIND_CUT, KIND_BLOCKED)}
        assert terminals == {0: KIND_HALT, 1: KIND_CUT}
        assert run.analysis.reconciled()


class _RunEnds(Probe):
    """Keeps each ``run_end``'s outcome and per-tile reasons."""

    def __init__(self):
        self.calls = []

    def run_end(self, cores, reasons, outcome, snapshot=None, energy=None,
                rollup=None):
        self.calls.append(
            (outcome, {core.core_id: reasons[core] for core in cores}))


def faulting_run():
    """Tile 1 loops, then runs off the end of its program; tile 0 halts."""
    halter = assemble("movi r1, 5\nhalt")
    runaway = assemble("movi r2, 40\nloop: addi r1, r1, 3\n"
                       "addi r2, r2, -1\nbne r2, r0, loop\naddi r1, r1, 1")
    series, recorder, ends = TimeSeries(64), DependencyRecorder(), _RunEnds()
    system = StitchSystem(telemetry=combine(series, recorder, ends))
    system.load(0, halter)
    system.load(1, runaway)
    with pytest.raises(ExecutionError):
        system.run()
    return system, series, recorder, ends


class TestFaultInsideASlice:
    def test_run_end_closes_the_run_with_a_fault(self):
        _, _, recorder, ends = faulting_run()
        assert ends.calls == [("fault", {0: "halt", 1: "fault"})]
        assert recorder.outcome == "fault"

    def test_the_faulting_tile_is_cut(self):
        _, _, recorder, _ = faulting_run()
        terminals = {r.tile: r.kind for r in recorder.records
                     if r.kind in (KIND_HALT, KIND_CUT, KIND_BLOCKED)}
        assert terminals == {0: KIND_HALT, 1: KIND_CUT}

    def test_interval_sums_equal_the_tiles_counters(self):
        system, series, _, _ = faulting_run()
        for tile in (0, 1):
            totals = series.tile_totals(tile)
            counters = core_counters(system.cores[tile])
            assert {field: totals.get(field, 0) for field in counters} \
                == counters
        assert len(series.tile_series(1)) > 1  # several 64-cycle intervals


def terminals(recorder):
    """Each tile's closing record as ``(tile, kind, cycle)``."""
    return [(r.tile, r.kind, r.end) for r in recorder.records
            if r.kind in (KIND_HALT, KIND_CUT, KIND_BLOCKED)]


HALTER = "movi r1, 5\nhalt"


class TestTileTheRunNeverReached:
    def test_a_fault_ahead_of_it_cuts_it_at_cycle_0(self):
        recorder, ends = DependencyRecorder(), _RunEnds()
        system = StitchSystem(telemetry=combine(recorder, ends))
        system.load(0, assemble("movi r1, 5\naddi r1, r1, 1"))  # no halt
        system.load(1, assemble(HALTER))
        with pytest.raises(ExecutionError):
            system.run()
        assert ends.calls == [("fault", {0: "fault", 1: "limit"})]
        assert terminals(recorder) == [(0, KIND_CUT, 32), (1, KIND_CUT, 0)]

    def test_a_zero_round_budget_cuts_every_tile(self):
        recorder = DependencyRecorder()
        system = StitchSystem(telemetry=recorder)
        for tile in (0, 1):
            system.load(tile, assemble(HALTER))
        with pytest.raises(RoundBudgetError):
            system.run(max_rounds=0)
        assert recorder.outcome == "budget"
        assert terminals(recorder) == [(0, KIND_CUT, 0), (1, KIND_CUT, 0)]

    def test_a_tile_that_already_halted_stays_halted(self):
        ends = _RunEnds()
        system = StitchSystem(telemetry=ends)
        for tile in (0, 1):
            system.load(tile, assemble(HALTER))
        system.run()
        with pytest.raises(RoundBudgetError):
            system.run(max_rounds=0)
        assert ends.calls[-1] == ("budget", {0: "halt", 1: "halt"})
