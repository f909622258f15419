"""Per-site injector behavior and the engine fallback contract."""

import math

import pytest

from repro.chaos import (
    ChannelCorruptionError,
    CixStallError,
    Fault,
    InjectionPlan,
    Injector,
    RecoveryParams,
)
from repro.cpu import Core, PatchPort, STOP_FROZEN, STOP_HALT
from repro.isa import assemble
from repro.mem import MemorySystem, SPM_BASE
from repro.probe import NULL_PROBE
from repro.sim import DeadlockError, SnapshotError, StitchSystem


def make_core(source, injector=None, engine="auto"):
    return Core(assemble(source), MemorySystem.stitch(),
                engine=engine, probe=injector)


COUNT_LOOP = """
    movi r1, 50
    movi r2, 0
loop:
    addi r2, r2, 3
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
"""


def plan_of(*faults, recovery=None):
    return InjectionPlan(
        name="test", faults=tuple(faults),
        recovery=recovery if recovery is not None else RecoveryParams(),
    )


class TestNullInjector:
    def test_disabled_hooks_are_identity(self):
        values = [1, 2, 3]
        assert NULL_PROBE.outbound(0, 1, values, 5) == (values, False)
        assert NULL_PROBE.inbound(0, 1, values, 9) == (values, 9)
        assert NULL_PROBE.link_delay(0, 1, 5) == 0
        assert not NULL_PROBE.observes_core

    def test_attach_core_pins_boundary_at_infinity(self):
        core = make_core("halt")
        assert core._boundary == math.inf


class TestEngineFallback:
    def test_armed_injector_forces_instrumented(self):
        armed = Injector(plan_of(Fault("reg", cycle=10)))
        with pytest.raises(ValueError, match="fast"):
            make_core(COUNT_LOOP, injector=armed, engine="fast")
        auto = make_core(COUNT_LOOP, injector=armed, engine="auto")
        assert auto.selected_engine() == "instrumented"

    def test_unarmed_injector_keeps_fast(self):
        quiet = Injector(plan_of())
        core = make_core(COUNT_LOOP, injector=quiet, engine="fast")
        assert core.selected_engine() == "fast"

    def test_zero_fault_plan_bit_identical_across_engines(self):
        runs = {}
        for engine in ("reference", "instrumented", "fast"):
            core = make_core(COUNT_LOOP, injector=Injector(plan_of()),
                             engine=engine)
            outcome = core.run()
            assert outcome.reason == STOP_HALT
            runs[engine] = (core.cycles, core.instret, list(core.regs))
        assert runs["reference"] == runs["instrumented"] == runs["fast"]


class TestRegFlips:
    def test_flip_perturbs_architectural_state(self):
        # Flip bit 4 of r2 mid-loop: the accumulator ends off-golden.
        golden = make_core(COUNT_LOOP)
        golden.run()
        injector = Injector(plan_of(Fault("reg", cycle=50, reg=2, bit=4)))
        core = make_core(COUNT_LOOP, injector=injector)
        core.run()
        assert injector.triggered() == 1
        assert core.regs[2] != golden.regs[2]
        assert [e["kind"] for e in injector.events] == ["fault"]

    def test_ecc_scrubs_and_charges_penalty(self):
        golden = make_core(COUNT_LOOP)
        golden.run()
        recovery = RecoveryParams(ecc=True, ecc_penalty=12)
        injector = Injector(plan_of(Fault("reg", cycle=50, reg=2, bit=4),
                                    recovery=recovery))
        core = make_core(COUNT_LOOP, injector=injector)
        core.run()
        assert core.regs[2] == golden.regs[2]
        assert core.cycles == golden.cycles + 12
        assert injector.recovery_cycles == 12
        kinds = [e["kind"] for e in injector.events]
        assert kinds == ["fault", "detect", "recover"]

    def test_same_engine_same_fault_same_result(self):
        outcomes = []
        for engine in ("instrumented", "instrumented"):
            injector = Injector(plan_of(Fault("reg", cycle=50, reg=2, bit=4)))
            core = make_core(COUNT_LOOP, injector=injector, engine=engine)
            core.run()
            outcomes.append((core.cycles, core.regs[2]))
        assert outcomes[0] == outcomes[1]


class TestMemoryFlips:
    def test_spm_flip(self):
        source = f"""
            movi r1, {SPM_BASE}
            movi r2, 7
            sw   r2, 0(r1)
            movi r3, 400
        spin:
            addi r3, r3, -1
            bne  r3, r0, spin
            lw   r4, 0(r1)
            halt
        """
        injector = Injector(plan_of(
            Fault("spm", cycle=100, addr=SPM_BASE, bit=3)
        ))
        core = make_core(source, injector=injector)
        core.run()
        assert core.regs[4] == 7 ^ 8

    def test_spm_flip_out_of_range_logs_unapplied(self):
        injector = Injector(plan_of(
            Fault("spm", cycle=10, addr=SPM_BASE + (1 << 20), bit=3)
        ))
        core = make_core(COUNT_LOOP, injector=injector)
        core.run()
        assert injector.events[0]["applied"] is False

    def test_dram_flip_with_ecc(self):
        source = """
            movi r1, 0x100
            movi r2, 9
            sw   r2, 0(r1)
            movi r3, 400
        spin:
            addi r3, r3, -1
            bne  r3, r0, spin
            lw   r4, 0(r1)
            halt
        """
        injector = Injector(plan_of(
            Fault("dram", cycle=100, addr=0x100, bit=0),
            recovery=RecoveryParams(ecc=True),
        ))
        core = make_core(source, injector=injector)
        core.run()
        assert core.regs[4] == 9  # scrubbed before the readback
        assert injector.recovery_cycles == 12


class TestFreeze:
    def test_core_stops_retiring(self):
        injector = Injector(plan_of(Fault("freeze", cycle=40)))
        core = make_core(COUNT_LOOP, injector=injector)
        outcome = core.run()
        assert outcome.reason == STOP_FROZEN
        retired = core.instret
        # Re-dispatch is a no-op: a frozen core never retires again.
        again = core.run()
        assert again.reason == STOP_FROZEN
        assert core.instret == retired


class _StallPatch(PatchPort):
    def execute(self, cfg_id, in_values):
        return [sum(in_values), 0]


class TestCixStall:
    def test_stalled_cfg_raises(self):
        program = assemble(
            "movi r1, 5\nmovi r2, 6\ncix 3, (r4, r5), (r1, r2)\nhalt"
        )
        injector = Injector(plan_of(Fault("cix", tile=0, cfg=3)))
        core = Core(program, MemorySystem.stitch(), patch=_StallPatch(),
                    probe=injector)
        with pytest.raises(CixStallError) as exc:
            core.run()
        assert exc.value.tile == 0 and exc.value.cfg == 3
        assert [e["kind"] for e in injector.events] == ["fault", "detect"]

    def test_other_cfgs_unaffected(self):
        program = assemble(
            "movi r1, 5\nmovi r2, 6\ncix 3, (r4, r5), (r1, r2)\nhalt"
        )
        injector = Injector(plan_of(Fault("cix", tile=0, cfg=9)))
        core = Core(program, MemorySystem.stitch(), patch=_StallPatch(),
                    probe=injector)
        assert core.run().reason == STOP_HALT
        assert core.regs[4] == 11


def producer(peer, value, words=2):
    return assemble(f"""
        movi r1, {peer}
        movi r2, 0x100
        movi r3, {words}
        movi r4, {value}
        sw   r4, 0(r2)
        sw   r4, 4(r2)
        send r1, r2, r3
        halt
    """)


def consumer(peer, words=2):
    return assemble(f"""
        movi r1, {peer}
        movi r2, 0x200
        movi r3, {words}
        recv r1, r2, r3
        lw   r4, 0(r2)
        lw   r5, 4(r2)
        halt
    """)


class TestFabricFaults:
    def run_pair(self, injector):
        system = StitchSystem(telemetry=injector)
        system.load(0, producer(1, 42))
        system.load(1, consumer(0))
        system.run()
        return system

    def test_link_delay_postpones_arrival(self):
        clean = self.run_pair(None)
        injector = Injector(plan_of(
            Fault("link", src=0, dst=1, index=0, delay=500)
        ))
        slow = self.run_pair(injector)
        assert injector.triggered() == 1
        assert slow.cores[1].cycles >= clean.cores[1].cycles + 500
        assert slow.cores[1].regs[4] == 42

    def test_link_drop_detected_loud(self):
        injector = Injector(plan_of(
            Fault("link", src=0, dst=1, index=0, delay=0)
        ))
        system = StitchSystem(telemetry=injector)
        system.load(0, producer(1, 42))
        system.load(1, consumer(0))
        with pytest.raises(DeadlockError):
            system.run()
        assert injector.events[0]["dropped"] == 2
        # The deadlock detection is logged back into the injector.
        assert any(e["kind"] == "detect" for e in injector.events)

    def test_channel_corruption_silent_without_retries(self):
        injector = Injector(plan_of(
            Fault("channel", src=0, dst=1, index=0, word=0, bit=2)
        ))
        system = self.run_pair(injector)
        assert system.cores[1].regs[4] == 42 ^ 4  # delivered corrupted
        assert injector.untriggered() == 0

    def test_channel_corruption_recovered_with_retries(self):
        recovery = RecoveryParams(max_retries=3, retry_backoff=16)
        injector = Injector(plan_of(
            Fault("channel", src=0, dst=1, index=0, word=0, bit=2),
            recovery=recovery,
        ))
        system = self.run_pair(injector)
        assert system.cores[1].regs[4] == 42  # true word re-fetched
        assert injector.recovery_cycles == 16
        kinds = [e["kind"] for e in injector.events]
        assert kinds == ["fault", "detect", "recover"]

    def test_corruption_past_retry_budget_fails_loud(self):
        recovery = RecoveryParams(max_retries=1, retry_backoff=16)
        faults = [
            Fault("channel", src=0, dst=1, index=0, word=w, bit=2)
            for w in range(2)
        ]
        injector = Injector(plan_of(*faults, recovery=recovery))
        with pytest.raises(ChannelCorruptionError) as exc:
            self.run_pair(injector)
        assert isinstance(exc.value, SnapshotError)
        assert exc.value.snapshot["words_corrupted"] == 2
        assert exc.value.snapshot["tile"] == 1
