"""Partial-graph finalization: deadlocks, watchdog timeouts, exhausted
round budgets and dropped messages."""

from repro.chaos import Fault, InjectionPlan, Injector
from repro.critpath import DependencyRecorder
from repro.critpath.recorder import (
    KIND_BLOCKED,
    KIND_CUT,
    KIND_RECV,
    KIND_SEND,
)
from repro.critpath.runner import record_system
from repro.isa import assemble
from repro.probe import combine
from repro.sim import StitchSystem
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


def budget_cut_run():
    """A handshake cut off by a budget too small for one round trip."""
    producer = assemble("""
        movi r1, 1
        movi r2, 0x100
        movi r3, 2
        movi r4, 42
        sw   r4, 0(r2)
        sw   r4, 4(r2)
        send r1, r2, r3
        halt
    """)
    consumer = assemble("""
        movi r1, 0
        movi r2, 0x200
        movi r3, 2
        recv r1, r2, r3
        halt
    """)
    telemetry = recorder = DependencyRecorder()
    system = StitchSystem(telemetry=telemetry)
    system.load(0, producer)
    system.load(1, consumer)
    return record_system("budget-cut", system, recorder,
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
