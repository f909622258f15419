"""The receive watchdog, side by side with the deadlock detector.

Both nets share the per-tile snapshot vocabulary
(``waiting_on``/``words_needed``/``pending``/``cycles``); the watchdog
adds ``blocked_since`` per tile and the ``deadline``/``horizon`` pair
that tripped it.
"""

import pytest

from repro.chaos import Fault, InjectionPlan, Injector, RecoveryParams
from repro.isa import assemble
from repro.sim import DeadlockError, RecvTimeoutError, StitchSystem

TILE_VOCAB = {"waiting_on", "words_needed", "pending", "cycles"}


def silent_producer(spin):
    """Spins for ~2*spin cycles, halts without ever sending."""
    return assemble(f"""
        movi r1, {spin}
    spin:
        addi r1, r1, -1
        bne  r1, r0, spin
        halt
    """)


def late_producer(peer, spin, value=7):
    return assemble(f"""
        movi r1, {spin}
    spin:
        addi r1, r1, -1
        bne  r1, r0, spin
        movi r1, {peer}
        movi r2, 0x100
        movi r3, 1
        movi r4, {value}
        sw   r4, 0(r2)
        send r1, r2, r3
        halt
    """)


def consumer(peer, words=1):
    return assemble(f"""
        movi r1, {peer}
        movi r2, 0x200
        movi r3, {words}
        recv r1, r2, r3
        lw   r4, 0(r2)
        halt
    """)


class TestWatchdog:
    def test_expired_wait_raises_typed_error(self):
        system = StitchSystem(recv_timeout=500)
        system.load(0, silent_producer(2000))
        system.load(1, consumer(0))
        with pytest.raises(RecvTimeoutError) as excinfo:
            system.run()
        error = excinfo.value
        assert isinstance(error, RuntimeError)  # old catch sites still work
        snapshot = error.snapshot
        assert snapshot["deadline"] == 500
        assert snapshot["horizon"] >= 500
        entry = snapshot["tiles"][1]
        assert TILE_VOCAB | {"blocked_since"} == set(entry)
        assert entry["waiting_on"] == 0
        assert entry["words_needed"] == 1
        assert "watchdog expired" in str(error)

    def test_patient_deadline_lets_late_sender_finish(self):
        system = StitchSystem(recv_timeout=50_000)
        system.load(0, late_producer(1, 2000, value=7))
        system.load(1, consumer(0))
        system.run()
        assert system.cores[1].regs[4] == 7

    def test_no_deadline_falls_through_to_deadlock(self):
        # The same shape without a watchdog ends in the deadlock net
        # once the producer halts and nothing can wake the consumer.
        system = StitchSystem()
        system.load(0, silent_producer(2000))
        system.load(1, consumer(0))
        with pytest.raises(DeadlockError):
            system.run()

    def test_shared_snapshot_vocabulary_with_deadlock(self):
        wait = "movi r1, {peer}\nmovi r2, 0x100\nmovi r3, 1\nrecv r1, r2, r3\nhalt"
        system = StitchSystem()
        system.load(0, assemble(wait.format(peer=1)))
        system.load(1, assemble(wait.format(peer=0)))
        with pytest.raises(DeadlockError) as excinfo:
            system.run()
        for entry in excinfo.value.snapshot.values():
            assert set(entry) == TILE_VOCAB

    def test_timeout_from_injection_plan_recovery(self):
        # recv_timeout=None picks the deadline up from the injector's
        # recovery policy; a frozen producer strands the consumer while
        # a bystander tile keeps the cycle horizon advancing.
        plan = InjectionPlan(
            name="freeze-producer",
            faults=(Fault("freeze", tile=0, cycle=40),),
            recovery=RecoveryParams(recv_timeout=500),
        )
        injector = Injector(plan)
        system = StitchSystem(telemetry=injector)
        system.load(0, late_producer(1, 2000, value=7))
        system.load(1, consumer(0))
        system.load(2, silent_producer(5000))
        with pytest.raises(RecvTimeoutError):
            system.run()
        kinds = [(e["kind"], e["site"]) for e in injector.events]
        assert ("fault", "freeze") in kinds
        assert ("detect", "recv") in kinds

    def test_watchdog_fires_while_system_still_progresses(self):
        # Unlike a deadlock, the bystander tile was still running when
        # the watchdog tripped: the horizon outran the blocked tile.
        system = StitchSystem(recv_timeout=300)
        system.load(0, consumer(3))   # tile 3 does not exist -> never woken
        system.load(1, silent_producer(5000))
        with pytest.raises(RecvTimeoutError) as excinfo:
            system.run()
        snapshot = excinfo.value.snapshot
        assert snapshot["horizon"] > snapshot["tiles"][0]["blocked_since"]
        assert 0 in snapshot["tiles"] and 1 not in snapshot["tiles"]
