"""Unit tests for the in-order core interpreter and its cycle model."""

import pytest

from repro.compiler.profiler import BlockProfiler
from repro.cpu import (
    ATTRIBUTION_BUCKETS,
    BlockedError,
    CommPort,
    Core,
    PatchPort,
    STOP_HALT,
    STOP_LIMIT,
    STOP_RECV,
)
from repro.isa import assemble
from repro.mem import MemorySystem, SPM_BASE


def make_core(source, profile=False, **regs):
    program = assemble(source)
    probe = BlockProfiler(program) if profile else None
    core = Core(program, MemorySystem.stitch(), probe=probe)
    if regs:
        core.set_regs(**regs)
    return core


class TestArithmetic:
    def test_add_chain(self):
        core = make_core("movi r1, 3\nmovi r2, 4\nadd r3, r1, r2\nhalt")
        result = core.run()
        assert result.reason == STOP_HALT
        assert core.regs[3] == 7

    def test_overflow_wraps(self):
        core = make_core("movi r1, 0x7FFFFFFF\naddi r1, r1, 1\nhalt")
        core.run()
        assert core.regs[1] == -0x80000000

    def test_r0_is_hardwired_zero(self):
        core = make_core("movi r0, 55\nadd r0, r0, r0\nmov r1, r0\nhalt")
        core.run()
        assert core.regs[0] == 0
        assert core.regs[1] == 0

    def test_logic_and_compare(self):
        core = make_core(
            "movi r1, 12\nmovi r2, 10\nand r3, r1, r2\nor r4, r1, r2\n"
            "xor r5, r1, r2\nslt r6, r2, r1\nseq r7, r1, r1\nhalt"
        )
        core.run()
        assert core.regs[3] == 8
        assert core.regs[4] == 14
        assert core.regs[5] == 6
        assert core.regs[6] == 1
        assert core.regs[7] == 1

    def test_shifts(self):
        core = make_core(
            "movi r1, -16\nsrai r2, r1, 2\nsrli r3, r1, 28\nslli r4, r1, 1\nhalt"
        )
        core.run()
        assert core.regs[2] == -4
        assert core.regs[3] == 0xF
        assert core.regs[4] == -32

    def test_mul_and_mulh(self):
        core = make_core(
            "movi r1, 0x10000\nmul r2, r1, r1\nmulh r3, r1, r1\nhalt"
        )
        core.run()
        assert core.regs[2] == 0
        assert core.regs[3] == 1


class TestMemoryOps:
    def test_load_store_dram(self):
        core = make_core("movi r1, 0x100\nmovi r2, -9\nsw r2, 0(r1)\nlw r3, 0(r1)\nhalt")
        core.run()
        assert core.regs[3] == -9

    def test_load_store_spm(self):
        core = make_core(
            f"movi r1, {SPM_BASE}\nmovi r2, 77\nsw r2, 8(r1)\nlw r3, 8(r1)\nhalt"
        )
        core.run()
        assert core.regs[3] == 77
        assert core.memory.spm.dump_words(SPM_BASE + 8, 1) == [77]


class TestControlFlow:
    def test_loop_sum(self):
        source = """
            movi r1, 0      ; i
            movi r2, 0      ; sum
            movi r3, 10
        loop:
            add  r2, r2, r1
            addi r1, r1, 1
            bne  r1, r3, loop
            halt
        """
        core = make_core(source)
        core.run()
        assert core.regs[2] == 45

    def test_jal_jr_roundtrip(self):
        source = """
            jal sub
            movi r2, 1
            halt
        sub:
            movi r1, 42
            jr lr
        """
        core = make_core(source)
        core.run()
        assert core.regs[1] == 42
        assert core.regs[2] == 1

    def test_unsigned_branches(self):
        source = """
            movi r1, -1
            movi r2, 1
            bltu r2, r1, yes
            movi r3, 0
            halt
        yes:
            movi r3, 1
            halt
        """
        core = make_core(source)
        core.run()
        assert core.regs[3] == 1

    def test_running_off_end_raises(self):
        core = make_core("nop")
        with pytest.raises(IndexError):
            core.run()


class TestTiming:
    def test_straight_line_one_cycle_per_instruction(self):
        # After the cold fetch miss, ALU instructions retire 1/cycle.
        core = make_core("movi r1, 1\n" + "add r1, r1, r1\n" * 5 + "halt")
        core.run()
        cold = 30  # one I-cache line fill
        assert core.cycles == cold + 7

    def test_two_word_instructions_issue_in_one_cycle(self):
        a = make_core("movi r1, 1\nmovi r2, 2\nmovi r3, 3\nhalt")
        b = make_core("mov r1, r0\nmov r2, r0\nmov r3, r0\nhalt")
        a.run()
        b.run()
        assert a.cycles == b.cycles

    def test_taken_branch_pays_penalty(self):
        jump = make_core("jmp next\nnext: halt")
        straight = make_core("nop\nhalt")
        jump.run()
        straight.run()
        # Identical instruction counts; the jump pays a 1-cycle redirect.
        assert jump.cycles == straight.cycles + 1

    def test_taken_and_not_taken_balance(self):
        taken = make_core("movi r1, 1\nbeq r1, r1, over\nnop\nover: halt")
        fallthrough = make_core("movi r1, 1\nbne r1, r1, over\nnop\nover: halt")
        taken.run()
        fallthrough.run()
        # Taken skips the nop (saving 1) but pays the redirect (+1).
        assert taken.cycles == fallthrough.cycles

    def test_dram_load_stalls(self):
        hits = make_core(f"movi r1, {SPM_BASE}\nlw r2, 0(r1)\nhalt")
        misses = make_core("movi r1, 0x100\nlw r2, 0(r1)\nhalt")
        hits.run()
        misses.run()
        assert misses.cycles - hits.cycles == 30

    def test_max_instructions_limit_resumable(self):
        core = make_core("movi r1, 0\nloop: addi r1, r1, 1\njmp loop")
        result = core.run(max_instructions=100)
        assert result.reason == STOP_LIMIT
        assert core.instret == 100
        result = core.run(max_instructions=100)
        assert core.instret == 200

    def test_max_cycles_limit(self):
        core = make_core("loop: jmp loop")
        result = core.run(max_cycles=500)
        assert result.reason == STOP_LIMIT
        assert core.cycles >= 500


class _RecordingPatch(PatchPort):
    def __init__(self):
        self.calls = []

    def execute(self, cfg_id, in_values):
        self.calls.append((cfg_id, list(in_values)))
        return [sum(in_values), 0]


class TestPatchPort:
    def test_cix_dispatches_to_patch(self):
        program = assemble(
            "movi r1, 5\nmovi r2, 6\ncix 3, (r4, r5), (r1, r2)\nhalt"
        )
        patch = _RecordingPatch()
        core = Core(program, MemorySystem.stitch(), patch=patch)
        core.run()
        assert patch.calls == [(3, [5, 6])]
        assert core.regs[4] == 11
        assert core.regs[5] == 0

    def test_cix_single_cycle(self):
        program = assemble("cix 0, (r1), (r2)\n" * 4 + "halt")
        core = Core(program, MemorySystem.stitch(), patch=_RecordingPatch())
        core.run()
        assert core.cycles == 30 + 5

    def test_cix_without_patch_raises(self):
        core = make_core("cix 0, (r1), (r2)\nhalt")
        with pytest.raises(BlockedError):
            core.run()


class _ScriptedComm(CommPort):
    """Delivers queued messages; records sends."""

    def __init__(self):
        self.sent = []
        self.inbox = []

    def send(self, peer, values, now):
        self.sent.append((peer, list(values)))
        return now + len(values)

    def try_recv(self, peer, count, now):
        if not self.inbox:
            return None
        values = self.inbox.pop(0)
        return values, now + len(values)


class TestCommPort:
    def test_send_reads_memory(self):
        program = assemble(
            "movi r1, 2\nmovi r2, 0x100\nmovi r3, 3\nsend r1, r2, r3\nhalt"
        )
        comm = _ScriptedComm()
        core = Core(program, MemorySystem.stitch(), comm=comm)
        core.memory.load(0x100, [10, 20, 30])
        core.run()
        assert comm.sent == [(2, [10, 20, 30])]

    def test_recv_blocks_then_resumes(self):
        program = assemble(
            "movi r1, 2\nmovi r2, 0x200\nmovi r3, 2\nrecv r1, r2, r3\nlw r4, 0(r2)\nhalt"
        )
        comm = _ScriptedComm()
        core = Core(program, MemorySystem.stitch(), comm=comm)
        result = core.run()
        assert result.reason == STOP_RECV
        pc_blocked = core.pc
        comm.inbox.append([7, 8])
        result = core.run()
        assert result.reason == STOP_HALT
        assert core.regs[4] == 7
        assert core.memory.dump(0x200, 2) == [7, 8]
        assert pc_blocked == 3  # the recv did not retire while blocked

    def test_comm_without_network_raises(self):
        core = make_core("movi r1, 4\nsend r1, r1, r1\nhalt")
        with pytest.raises(BlockedError):
            core.run()


class TestProfiling:
    def test_block_counts(self):
        source = """
            movi r1, 0
            movi r3, 5
        loop:
            addi r1, r1, 1
            bne  r1, r3, loop
            halt
        """
        core = make_core(source, profile=True)
        core.run()
        blocks = core.program.basic_blocks()
        assert core.probe.block_counts[blocks[0].start] == 1
        assert core.probe.block_counts[blocks[1].start] == 5
        counts = core.probe.block_instruction_counts()
        assert counts[1] == 10

    def test_instret_matches_dynamic_count(self):
        core = make_core(
            "movi r1, 0\nmovi r3, 5\nloop: addi r1, r1, 1\nbne r1, r3, loop\nhalt",
            profile=True,
        )
        core.run()
        assert core.instret == sum(
            core.probe.block_instruction_counts().values()
        )


class TestAttribution:
    """Every cycle lands in exactly one bucket: the V500 invariant."""

    def check(self, core):
        attribution = core.attribution()
        assert sum(attribution[b] for b in ATTRIBUTION_BUCKETS) == core.cycles
        assert attribution["total"] == core.cycles
        for bucket in ATTRIBUTION_BUCKETS:
            assert attribution[bucket] >= 0
        return attribution

    def test_straight_line_is_compute_plus_icache(self):
        core = make_core("movi r1, 1\n" + "add r1, r1, r1\n" * 5 + "halt")
        core.run()
        attribution = self.check(core)
        assert attribution["compute"] == core.instret == 7
        assert attribution["icache_stall"] == 30  # cold line fill
        assert attribution["memory_stall"] == 0
        assert attribution["branch_bubble"] == 0

    def test_taken_branches_fill_bubble_bucket(self):
        core = make_core(
            "movi r1, 0\nmovi r3, 5\nloop: addi r1, r1, 1\nbne r1, r3, loop\nhalt"
        )
        core.run()
        attribution = self.check(core)
        assert attribution["branch_bubble"] == 4  # four taken back-edges

    def test_dram_miss_fills_memory_bucket(self):
        core = make_core("movi r1, 0x100\nlw r2, 0(r1)\nhalt")
        core.run()
        attribution = self.check(core)
        assert attribution["memory_stall"] == 30

    def test_send_charges_comm_bucket(self):
        program = assemble(
            "movi r1, 2\nmovi r2, 0x100\nmovi r3, 3\nsend r1, r2, r3\nhalt"
        )
        core = Core(program, MemorySystem.stitch(), comm=_ScriptedComm())
        core.memory.load(0x100, [10, 20, 30])
        core.run()
        attribution = self.check(core)
        # _ScriptedComm finishes a 3-word send at now+3: one issue slot
        # plus two cycles attributed to communication.
        assert attribution["comm_blocked"] == 2

    def test_blocked_recv_charges_wait_on_resume(self):
        program = assemble(
            "movi r1, 2\nmovi r2, 0x200\nmovi r3, 2\nrecv r1, r2, r3\nhalt"
        )
        comm = _ScriptedComm()
        core = Core(program, MemorySystem.stitch(), comm=comm)
        assert core.run().reason == STOP_RECV
        self.check(core)  # blocked: nothing advanced, invariant holds
        comm.inbox.append([7, 8])
        core.run()
        attribution = self.check(core)
        assert attribution["comm_blocked"] == 1  # 2-word recv: finish - start - 1

    def test_invariant_holds_across_resumable_slices(self):
        core = make_core(
            "movi r1, 0\nloop: addi r1, r1, 1\nslti r2, r1, 200\nbne r2, r0, loop\nhalt"
        )
        while core.run(max_instructions=37).reason == STOP_LIMIT:
            self.check(core)
        assert core.halted
        self.check(core)

    def test_tracer_records_slice_spans(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        core = Core(
            assemble("movi r1, 1\nadd r1, r1, r1\nhalt"),
            MemorySystem.stitch(),
            core_id=4,
            probe=tracer,
        )
        core.run()
        spans = [e for e in tracer.events if e.kind == "span"]
        assert spans and spans[-1].track == ("tiles", 4)
        assert spans[-1].args["reason"] == "halt"
        misses = [e for e in tracer.events if e.name == "icache miss"]
        assert misses  # the cold fetch
