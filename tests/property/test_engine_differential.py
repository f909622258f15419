"""Property-based differential testing: fast loop vs reference.

Hypothesis generates random straight-line bodies and counted loops
over the scalar ISA (ALU, shifts, SPM loads/stores) and asserts the
block engine finishes in *exactly* the reference interpreter's state —
registers, cycles, instret, every stall bucket, and the cache/SPM
counters — and that its hooked instantiation fires the instrumented
loop's hook stream.  Loops of three or more trips run translated blocks, so they
are also stopped at every instruction of a translated trip, and run
with loads and stores that stray outside the SPM window or off word
alignment.  The fixed-kernel suite in
``tests/cpu/test_engine_differential.py`` covers realistic programs;
this one hunts the weird corners (unwrapped MOVI values feeding
shifts, r0 writes, back-to-back taken branches) the kernels never
emit.
"""

from hypothesis import given, settings, strategies as st

from repro.cpu.core import Core
from repro.isa import assemble
from repro.mem import MemorySystem, SPM_BASE
from tests.cpu.test_hook_streams import PerInstruction, Recorder, on_both

i32 = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
#: Initial register values: a harness may also leave one unwrapped.
reg_value = st.one_of(i32, st.integers(min_value=1 << 31,
                                       max_value=(1 << 32) - 1))
imm12 = st.integers(min_value=-2048, max_value=2047)
# r14 is reserved as the SPM base pointer; r15 is the jal link register.
reg = st.integers(min_value=0, max_value=13)
shift = st.integers(min_value=0, max_value=31)
# 16 SPM words are preloaded; offsets stay inside them.
spm_offset = st.integers(min_value=0, max_value=15).map(lambda i: i * 4)

_R3_OPS = ("add", "sub", "and", "or", "xor", "slt", "sltu", "seq", "mul",
           "mulh", "sll", "srl", "sra")
_IMM_OPS = ("addi", "andi", "ori", "xori", "slti")
_SHIFT_OPS = ("slli", "srli", "srai")


@st.composite
def instruction(draw, dest=reg):
    """One random scalar instruction as assembly text.

    ``dest`` bounds the *written* register so loop harnesses can fence
    off their trip-count registers; sources always range over r0-r13.
    """
    form = draw(st.sampled_from(("r3", "imm", "shift", "movi", "mov",
                                 "lw", "sw")))
    if form == "r3":
        op = draw(st.sampled_from(_R3_OPS))
        return f"{op} r{draw(dest)}, r{draw(reg)}, r{draw(reg)}"
    if form == "imm":
        op = draw(st.sampled_from(_IMM_OPS))
        return f"{op} r{draw(dest)}, r{draw(reg)}, {draw(imm12)}"
    if form == "shift":
        op = draw(st.sampled_from(_SHIFT_OPS))
        return f"{op} r{draw(dest)}, r{draw(reg)}, {draw(shift)}"
    if form == "movi":
        return f"movi r{draw(dest)}, {draw(i32)}"
    if form == "mov":
        return f"mov r{draw(dest)}, r{draw(reg)}"
    if form == "lw":
        return f"lw r{draw(dest)}, {draw(spm_offset)}(r14)"
    return f"sw r{draw(reg)}, {draw(spm_offset)}(r14)"


#: Loop bodies may only write r0-r11, keeping r12/r13 (trip counters)
#: loop-carried.
loop_safe = instruction(dest=st.integers(min_value=0, max_value=11))

#: A load or store whose offset may leave the SPM window (into DRAM,
#: below it) or word alignment.
stray_offset = st.one_of(
    spm_offset,
    st.integers(min_value=-64, max_value=-1).map(lambda i: i * 4),
    st.integers(min_value=0, max_value=63).map(lambda i: i * 4 + 2),
)
stray_access = st.builds(
    lambda op, rd, offset: f"{op} r{rd}, {offset}(r14)",
    st.sampled_from(("lw", "sw")),
    st.integers(min_value=0, max_value=11),
    stray_offset,
)


def counted_loop(body, trips):
    # r12/r13 carry the trip count (loop bodies never write them), so
    # the loop always terminates.
    return "\n".join(
        ["movi r12, 0", f"movi r13, {trips}", "loop:"]
        + body
        + ["addi r12, r12, 1", "bne r12, r13, loop", "halt"]
    )


def run_one(source, init_regs, spm_words, max_instructions=200_000,
            **core_args):
    """The final state of one run of ``source``."""
    memory = MemorySystem.stitch()
    memory.load(SPM_BASE, spm_words)
    core = Core(assemble(source), memory, **core_args)
    for index, value in enumerate(init_regs, start=1):
        core.regs[index] = value
    core.regs[14] = SPM_BASE
    try:
        outcome = core.run(max_instructions=max_instructions).reason
    except ValueError as exc:  # an unaligned access
        outcome = str(exc)
    return {
        "reason": outcome,
        "regs": list(core.regs),
        "pc": core.pc,
        "cycles": core.cycles,
        "instret": core.instret,
        "stalls": (core.stall_memory, core.stall_icache,
                   core.stall_branch, core.stall_comm),
        "icache": (memory.icache.hits, memory.icache.misses),
        "dcache": (memory.dcache.hits, memory.dcache.misses),
        "dram": dict(memory.dram._words),
        "spm": (memory.spm.reads, memory.spm.writes,
                list(memory.spm._words)),
    }


def run_both(source, init_regs, spm_words, max_instructions=200_000):
    return [run_one(source, init_regs, spm_words, max_instructions,
                    engine=engine)
            for engine in ("reference", "fast")]


class TestFastVsReference:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(instruction(), min_size=1, max_size=40),
        st.lists(reg_value, min_size=13, max_size=13),
        st.lists(i32, min_size=16, max_size=16),
    )
    def test_straight_line(self, body, init_regs, spm_words):
        source = "\n".join(body + ["halt"])
        reference, fast = run_both(source, init_regs, spm_words)
        assert fast == reference

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(loop_safe, min_size=1, max_size=12),
        st.integers(min_value=1, max_value=50),
        st.lists(reg_value, min_size=13, max_size=13),
        st.lists(i32, min_size=16, max_size=16),
    )
    def test_counted_loop(self, body, trips, init_regs, spm_words):
        reference, fast = run_both(counted_loop(body, trips), init_regs,
                                   spm_words)
        assert fast == reference

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(loop_safe, min_size=1, max_size=10),
        st.integers(min_value=3, max_value=6),
        st.lists(reg_value, min_size=13, max_size=13),
        st.lists(i32, min_size=16, max_size=16),
    )
    def test_limit_stop_inside_translated_loop(self, body, trips, init_regs,
                                               spm_words):
        # The third trip is the first translated one: stop at every
        # instruction from the second trip's end to the fourth's.
        source = counted_loop(body, trips)
        trip = len(body) + 2
        for stop in range(2 + 2 * trip, 3 + 4 * trip):
            reference, fast = run_both(source, init_regs, spm_words,
                                       max_instructions=stop)
            assert fast == reference, f"stopped after {stop}"

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.one_of(loop_safe, stray_access), min_size=1,
                 max_size=10),
        st.integers(min_value=3, max_value=12),
        st.lists(reg_value, min_size=13, max_size=13),
        st.lists(i32, min_size=16, max_size=16),
    )
    def test_stray_accesses_in_translated_loop(self, body, trips,
                                               init_regs, spm_words):
        reference, fast = run_both(counted_loop(body, trips), init_regs,
                                   spm_words)
        assert fast == reference

    @settings(max_examples=20, deadline=None)
    @given(st.lists(instruction(), min_size=1, max_size=10))
    def test_limit_stop_state_identical(self, body):
        # Stop mid-program via max_instructions: the fast loop's
        # deferred write-back must still leave identical partial state.
        source = "\n".join(body * 3 + ["halt"])
        states = []
        for engine in ("reference", "fast"):
            core = Core(assemble(source), MemorySystem.stitch(),
                        engine=engine)
            core.regs[14] = SPM_BASE
            core.run(max_instructions=max(1, len(body)))
            states.append((list(core.regs), core.pc, core.cycles,
                           core.instret, core.halted))
        assert states[0] == states[1]


class TestHookedVsInstrumented:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.one_of(loop_safe, stray_access), min_size=1,
                 max_size=10),
        st.integers(min_value=1, max_value=12),
        st.lists(reg_value, min_size=13, max_size=13),
        st.lists(i32, min_size=16, max_size=16),
        st.one_of(st.none(), st.integers(min_value=1, max_value=60)),
        st.sampled_from((Recorder, PerInstruction)),
    )
    def test_counted_loop_hook_stream(self, body, trips, init_regs,
                                      spm_words, interval, recorder):
        def run():
            probe = recorder(interval=interval)
            state = run_one(counted_loop(body, trips), init_regs, spm_words,
                            probe=probe)
            return state, probe.log

        hooked, instrumented = on_both(run)
        assert hooked == instrumented
