"""Loud error paths under injection: ExecutionError and RoundBudgetError.

A fault can knock a run clean off the rails instead of corrupting data;
both the direct simulation layers and the campaign classifier must keep
those failures loud and typed.
"""

import pytest

from repro.chaos import Fault, InjectionPlan, Injector, RecoveryParams
from repro.chaos.campaign import run_chaos_point
from repro.cpu import Core, ExecutionError
from repro.isa import assemble
from repro.mem import MemorySystem
from repro.platform import DEFAULT_PLATFORM
from repro.sim import RoundBudgetError, StitchSystem


def plan_of(*faults):
    return InjectionPlan(name="test", faults=tuple(faults),
                         recovery=RecoveryParams())


# jal writes the return pc into r15; flipping a high-ish bit of r15
# mid-subroutine sends jr far outside the instruction range.
JAL_SOURCE = """
    jal  sub
    halt
sub:
    movi r2, 200
spin:
    addi r2, r2, -1
    bne  r2, r0, spin
    jr   r15
"""


class TestExecutionErrorUnderInjection:
    def test_corrupted_return_address_traps(self):
        injector = Injector(plan_of(Fault("reg", cycle=100, reg=15, bit=10)))
        core = Core(assemble(JAL_SOURCE), MemorySystem.stitch(),
                    probe=injector)
        with pytest.raises(ExecutionError) as excinfo:
            core.run()
        assert injector.triggered() == 1
        assert excinfo.value.pc > len(core.program.instructions)

    def test_without_fault_the_same_program_halts(self):
        core = Core(assemble(JAL_SOURCE), MemorySystem.stitch())
        assert core.run().reason == "halt"

    def test_campaign_point_classifies_trap_as_loud(self):
        # Freeze a kernel mid-run: the injected run never halts, which
        # the point wrapper reports as a loud (detected) failure.
        plan = InjectionPlan(name="freeze",
                             faults=(Fault("freeze", tile=0, cycle=500),))
        workload = {"kind": "chaos", "target": "fir",
                    "plan": plan.to_dict()}
        metrics, _ = run_chaos_point(DEFAULT_PLATFORM, workload)
        assert metrics["outcome"] == "detected_failed"
        assert metrics["loud"].startswith("NoHalt")
        assert metrics["output_checksum"] is None


def producer(peer):
    return assemble(f"""
        movi r1, {peer}
        movi r2, 0x100
        movi r3, 2
        movi r4, 42
        sw   r4, 0(r2)
        sw   r4, 4(r2)
        send r1, r2, r3
        halt
    """)


def consumer(peer):
    return assemble(f"""
        movi r1, {peer}
        movi r2, 0x200
        movi r3, 2
        recv r1, r2, r3
        halt
    """)


class TestRoundBudgetUnderInjection:
    def test_budget_still_enforced_with_armed_injector(self):
        # The fault never triggers (cycle beyond the budgeted horizon);
        # the scheduler's budget net must fire exactly as without chaos.
        injector = Injector(plan_of(Fault("reg", tile=0, cycle=10**9)))
        system = StitchSystem(telemetry=injector)
        system.load(0, producer(1))
        system.load(1, consumer(0))
        with pytest.raises(RoundBudgetError) as excinfo:
            system.run(max_instructions_per_slice=1, max_rounds=2)
        assert excinfo.value.snapshot["rounds"] == 2
        assert injector.triggered() == 0
        assert injector.untriggered() == 1

    def test_budget_loss_is_loud_not_sdc(self):
        # At the campaign layer a budget blow-up surfaces as a typed
        # loud failure string, never a silent corruption.
        from repro.chaos.campaign import classify

        loud = "RoundBudgetError: co-simulation exceeded the 2-round budget"
        assert classify([{"kind": "fault"}], loud, False) == "detected_failed"
