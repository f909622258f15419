"""Differential suite: the block engines vs the reference interpreter.

``Core._run_reference`` is the executable specification of the cycle
model; ``repro.cpu.engine`` re-implements it as a block engine with a
cold step, generated twice (``fast`` and, hooked, ``instrumented``).
These tests pin all three to bit-identical *complete* final state — registers, cycles,
instret, every stall counter, cache/SPM/DRAM counters and contents, and
the kernel's computed result — over the full Figure 11 suite, both as
plain scalar binaries and as compiled artifacts executing custom
instructions through a :class:`PatchExecutor`, on the default memory
and off its latencies.  The block engine's own corners follow: limit
stops inside translated blocks, blocking receives, runaway pcs, memory
accesses that leave the SPM window, shared translations (hooked ones
keyed apart), a ``cix`` raising inside a block, and a ``cix`` whose
results do not match its out registers.

Any timing-model edit that touches only one loop fails here first.
"""

import dataclasses
import functools
import weakref

import pytest

from repro.core.executor import PatchExecutor
from repro.cpu.core import (
    CommPort,
    Core,
    ExecutionError,
    PatchPort,
    STOP_HALT,
    STOP_LIMIT,
    STOP_RECV,
)
from repro.isa import assemble
from repro.isa.decoded import K_CIX
from repro.mem.hierarchy import MemorySystem
from repro.mem.spm import SPM_BASE, SPM_SIZE
from repro.platform import PlatformConfig
from repro.telemetry import Tracer
from repro.workloads import KERNEL_FACTORIES, make_kernel

ENGINES = ("reference", "instrumented", "fast")

#: Kernels whose hot loops map onto patches: one single-patch and one
#: fused option each, so the cix path (including LMAU loads and fused
#: remote execution) is covered without compiling the full 15x12 grid
#: on every CI run — ``repro bench --check`` covers that grid.
COMPILED_CASES = [
    ("fir", "AT-MA"),
    ("fir", "AT-MA+AT-SA"),
    ("fft", "AT-AS"),
    ("2dconv", "AT-MA+AT-MA"),
    ("histogram", "AT-SA"),
    ("dtw", "AT-AS+AT-MA"),
]


def full_state(core, kernel):
    """Everything an engine can get wrong, in one comparable dict."""
    memory = core.memory
    state = {
        "regs": list(core.regs),
        "pc": core.pc,
        "halted": core.halted,
        "cycles": core.cycles,
        "instret": core.instret,
        "stall_memory": core.stall_memory,
        "stall_icache": core.stall_icache,
        "stall_branch": core.stall_branch,
        "stall_comm": core.stall_comm,
        "cix_retired": core.cix_retired,
        "icache": (memory.icache.hits, memory.icache.misses,
                   memory.icache.writebacks),
        "dcache": (memory.dcache.hits, memory.dcache.misses,
                   memory.dcache.writebacks),
        "dram_words": dict(memory.dram._words),
        "dram_counters": (memory.dram.reads, memory.dram.writes),
    }
    if memory.spm is not None:
        state["spm"] = (memory.spm.reads, memory.spm.writes,
                        list(memory.spm._words))
    # Last: result() may dump memory untimed, so counters are already
    # captured above.
    state["result"] = kernel.result(core)
    return state


def _stitch_with(**fields):
    return lambda: MemorySystem(
        dataclasses.replace(PlatformConfig.stitch().mem, **fields)
    )


#: Memories off the default latencies: the block engine folds both
#: latencies into its constant exit deltas, and a tile without a
#: scratchpad never translates.
MEMORY_VARIANTS = {
    "spm_latency=2": _stitch_with(spm_latency=2),
    "cache_hit_latency=2": _stitch_with(cache_hit_latency=2),
    "baseline": MemorySystem.baseline,
}
#: Kernels heavy in loads and stores, and compiled cases heavy in cix
#: traffic, for the memory variants.
VARIANT_KERNELS = ("aes", "fft", "histogram")
VARIANT_COMPILED = [("fir", "AT-MA"), ("histogram", "AT-SA")]


@functools.lru_cache(maxsize=None)
def compile_case(name, option_name):
    from repro.compiler.driver import ALL_OPTIONS, KernelCompiler

    option = next(o for o in ALL_OPTIONS if o.name == option_name)
    return KernelCompiler(make_kernel(name, seed=1)).compile(option)


def replica_for(compiled, kernel, new_memory=MemorySystem.stitch):
    if not compiled.replicated_regions:
        return None
    replica = new_memory()
    for region, words in getattr(kernel, "consts", []):
        replica.load(region.addr, words)
    return replica


def run_engine(kernel, program, engine, cfg_table=None, replica=None,
               new_memory=MemorySystem.stitch):
    memory = new_memory()
    patch = None
    if cfg_table:
        patch = PatchExecutor(cfg_table, memory, replica_memory=replica)
    core = Core(program, memory, patch=patch, engine=engine)
    kernel.setup(core)
    outcome = core.run(max_instructions=20_000_000)
    assert outcome.reason == STOP_HALT, (kernel.name, engine, outcome.reason)
    assert core.selected_engine() == engine
    return full_state(core, kernel)


def assert_states_equal(states, context):
    reference = states["reference"]
    for engine in ENGINES[1:]:
        other = states[engine]
        diverged = [key for key in reference if other[key] != reference[key]]
        assert not diverged, (
            f"{context}: engine {engine!r} diverged from reference on "
            f"{diverged}: "
            + ", ".join(
                f"{key}={reference[key]!r} vs {other[key]!r}"
                for key in diverged[:3]
            )
        )


@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
def test_scalar_kernel_state_identical(name):
    states = {}
    for engine in ENGINES:
        kernel = make_kernel(name, seed=1)
        states[engine] = run_engine(kernel, kernel.program, engine)
    assert_states_equal(states, f"kernel {name}")


@pytest.mark.parametrize("name,option_name", COMPILED_CASES,
                         ids=[f"{k}-{o}" for k, o in COMPILED_CASES])
def test_compiled_kernel_state_identical(name, option_name):
    compiled = compile_case(name, option_name)
    if not compiled.cfg_table:
        pytest.skip(f"{name} maps nothing onto {option_name}")
    states = {}
    for engine in ENGINES:
        kernel = make_kernel(name, seed=1)
        states[engine] = run_engine(
            kernel, compiled.program, engine,
            cfg_table=compiled.cfg_table,
            replica=replica_for(compiled, kernel),
        )
    assert_states_equal(states, f"compiled {name} @ {option_name}")
    assert states["reference"]["cix_retired"] > 0


@pytest.mark.parametrize("variant", sorted(MEMORY_VARIANTS))
@pytest.mark.parametrize("name", VARIANT_KERNELS)
def test_scalar_kernel_state_identical_off_default_memory(name, variant):
    states = {}
    for engine in ENGINES:
        kernel = make_kernel(name, seed=1)
        states[engine] = run_engine(kernel, kernel.program, engine,
                                    new_memory=MEMORY_VARIANTS[variant])
    assert_states_equal(states, f"kernel {name} on {variant}")


@pytest.mark.parametrize("variant", ["spm_latency=2", "cache_hit_latency=2"])
@pytest.mark.parametrize("name,option_name", VARIANT_COMPILED,
                         ids=[f"{k}-{o}" for k, o in VARIANT_COMPILED])
def test_compiled_kernel_state_identical_off_default_memory(
        name, option_name, variant):
    compiled = compile_case(name, option_name)
    new_memory = MEMORY_VARIANTS[variant]
    states = {}
    for engine in ENGINES:
        kernel = make_kernel(name, seed=1)
        states[engine] = run_engine(
            kernel, compiled.program, engine,
            cfg_table=compiled.cfg_table,
            replica=replica_for(compiled, kernel, new_memory),
            new_memory=new_memory,
        )
    assert_states_equal(states, f"compiled {name} @ {option_name} on "
                                f"{variant}")
    assert states["reference"]["cix_retired"] > 0


def test_fast_loop_is_actually_faster():
    # Not a timing gate (benchmarks/interp_speed.py owns that) — just a
    # sanity check that the fast path engages on a real kernel: the
    # resident memo must have skipped most fetches.
    kernel = make_kernel("fir", seed=1)
    core = Core(kernel.program, MemorySystem.stitch(), engine="fast")
    kernel.setup(core)
    core.run(max_instructions=20_000_000)
    assert core._decoded.resident_ok
    assert any(core._resident)


#: Instructions each kernel of the engine speed guard
#: (benchmarks/interp_speed.py) retires at seed 1 on the Stitch tile
#: memory; the guard's fourth target, APP4 (401,692), is pinned tile by
#: tile by perfbench's exact co-sim gate.
PINNED_INSTRUCTIONS = [("fir", 9_725), ("fft", 6_101), ("2dconv", 16_119)]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name,instructions", PINNED_INSTRUCTIONS,
                         ids=[name for name, _ in PINNED_INSTRUCTIONS])
def test_pinned_instruction_counts(name, instructions, engine):
    # The count gate of the speed guard, which times only the ratio: a
    # workload whose count drifts would turn a changed program into a
    # changed speed.
    kernel = make_kernel(name, seed=1)
    core = Core(kernel.program, MemorySystem.stitch(), engine=engine)
    kernel.setup(core)
    outcome = core.run(max_instructions=20_000_000)
    assert core.selected_engine() == engine
    assert (outcome.reason, core.instret) == (STOP_HALT, instructions)


# -- block engine corners ----------------------------------------------------

def core_state(core):
    """The core and memory state a mid-program stop must leave."""
    memory = core.memory
    state = {
        "regs": list(core.regs),
        "pc": core.pc,
        "halted": core.halted,
        "cycles": core.cycles,
        "instret": core.instret,
        "stalls": (core.stall_memory, core.stall_icache, core.stall_branch,
                   core.stall_comm),
        "cix_retired": core.cix_retired,
        "icache": (memory.icache.hits, memory.icache.misses),
        "dcache": (memory.dcache.hits, memory.dcache.misses),
        "dram_words": dict(memory.dram._words),
    }
    if memory.spm is not None:
        state["spm"] = (memory.spm.reads, memory.spm.writes,
                        list(memory.spm._words))
    if core.patch is not None:
        state["patch"] = (core.patch.executions, core.patch.fused_executions)
    return state


def translated(core):
    """``{entry pc: length}`` of the core's translated blocks."""
    return {pc: entry[1] for pc, entry in enumerate(core._blocks or ())
            if entry is not None}


#: Ten trips of a loop whose body loads, stores and branches, with a
#: multi-word movi and a jal/jr pair around it.
LOOP = f"""
    movi r1, {SPM_BASE}
    movi r2, 10
    movi r5, 0
loop:
    lw   r3, 0(r1)
    addi r3, r3, 7
    sw   r3, 4(r1)
    movi r4, 0x12345
    add  r5, r5, r4
    slli r6, r5, 3
    addi r1, r1, 4
    addi r2, r2, -1
    bne  r2, r0, loop
    jal  tail
    halt
tail:
    xor  r7, r5, r6
    jr   r15
"""


def _loop_core(engine):
    return Core(assemble(LOOP), MemorySystem.stitch(), engine=engine)


def test_loop_translates_its_blocks():
    core = _loop_core("fast")
    assert core.run().reason == STOP_HALT
    assert 3 in translated(core)  # the loop body, from its third trip


def test_limit_stop_at_every_offset_matches_reference():
    total = _loop_core("reference")
    total.run()
    for limit in range(total.instret + 1):
        states = []
        for engine in ("reference", "fast"):
            core = _loop_core(engine)
            result = core.run(max_instructions=limit)
            states.append((result.reason, core_state(core)))
        assert states[1] == states[0], f"stop after {limit} instructions"


@pytest.mark.parametrize("slice_length", [1, 2, 3, 5, 8, 9, 13])
def test_resumable_slices_match_reference(slice_length):
    reference = _loop_core("reference")
    reference.run()
    core = _loop_core("fast")
    slices = 1
    while core.run(max_instructions=slice_length).reason == STOP_LIMIT:
        slices += 1
    assert slices > 1 and translated(core)
    assert core_state(core) == core_state(reference)


class _FlakyComm(CommPort):
    """A receive finds nothing on its first try, then its words."""

    def __init__(self):
        self.sent = []
        self.tries = 0

    def send(self, peer, values, now):
        self.sent.append(list(values))
        return now + 3

    def try_recv(self, peer, count, now):
        self.tries += 1
        if self.tries % 2:
            return None
        return [self.tries] * count, now + 5


def test_blocking_recv_resumes_into_translated_blocks():
    source = f"""
        movi r1, {SPM_BASE}
        movi r2, 2
        movi r3, 6
    loop:
        recv r2, r1, r2
        lw   r4, 0(r1)
        add  r5, r5, r4
        addi r3, r3, -1
        send r2, r1, r2
        addi r6, r6, 1
        bne  r3, r0, loop
        halt
    """
    runs = {}
    for engine in ("reference", "fast"):
        comm = _FlakyComm()
        core = Core(assemble(source), MemorySystem.stitch(), comm=comm,
                    engine=engine)
        blocked = 0
        while (result := core.run()).reason == STOP_RECV:
            blocked += 1
        assert result.reason == STOP_HALT
        runs[engine] = (blocked, comm.sent, core_state(core))
        if engine == "fast":
            assert translated(core)
    assert runs["fast"] == runs["reference"]
    assert runs["reference"][0] == 6


@pytest.mark.parametrize("target", [-3, 40])
def test_runaway_jr_after_translated_blocks(target):
    source = f"""
        movi r2, 5
    loop:
        addi r1, r1, 3
        addi r2, r2, -1
        bne  r2, r0, loop
        movi r3, {target}
        jr   r3
        halt
    """
    states = {}
    for engine in ("reference", "fast"):
        core = Core(assemble(source), MemorySystem.stitch(), engine=engine)
        with pytest.raises(ExecutionError) as excinfo:
            core.run()
        assert excinfo.value.pc == target
        states[engine] = core_state(core)
        if engine == "fast":
            assert translated(core)
    assert states["fast"] == states["reference"]


def test_fall_off_the_end_after_translated_blocks():
    source = ("movi r2, 4\nloop: addi r1, r1, 2\naddi r2, r2, -1\n"
              "bne r2, r0, loop\naddi r1, r1, 1")
    states = {}
    for engine in ("reference", "fast"):
        core = Core(assemble(source), MemorySystem.stitch(), engine=engine)
        with pytest.raises(ExecutionError) as excinfo:
            core.run()
        assert excinfo.value.pc == 5
        states[engine] = core_state(core)
        if engine == "fast":
            assert translated(core) == {1: 3}
    assert states["fast"] == states["reference"]


def test_short_blocks_stay_cold():
    # One- and two-instruction blocks would cost more per entry than
    # the cold steps they replace.
    source = "movi r2, 9\nloop: addi r2, r2, -1\nbne r2, r0, loop\nhalt"
    core = Core(assemble(source), MemorySystem.stitch(), engine="fast")
    assert core.run().reason == STOP_HALT
    assert translated(core) == {}


#: A loop whose load, then store, walk off the end of the SPM window
#: (the store one trip first) and on into DRAM, each in mid-block.
WALK = f"""
    movi r1, {SPM_BASE + SPM_SIZE - 44}
    movi r2, 12
loop:
    addi r5, r5, 1
    lw   r3, 0(r1)
    addi r3, r3, 1
    sw   r3, 4(r1)
    addi r1, r1, 8
    addi r2, r2, -1
    bne  r2, r0, loop
    halt
"""


@pytest.mark.parametrize("new_memory", [MemorySystem.stitch,
                                        MemorySystem.baseline],
                         ids=["stitch", "baseline"])
def test_accesses_leaving_the_spm_window_match_reference(new_memory):
    states = {}
    for engine in ("reference", "fast"):
        core = Core(assemble(WALK), new_memory(), engine=engine)
        assert core.run().reason == STOP_HALT
        states[engine] = core_state(core)
        if engine == "fast" and core.memory.spm is not None:
            assert 2 in translated(core)
    assert states["fast"] == states["reference"]
    assert states["reference"]["dcache"] != (0, 0)  # DRAM was reached


@pytest.mark.parametrize("new_memory", [MemorySystem.stitch,
                                        MemorySystem.baseline],
                         ids=["stitch", "baseline"])
@pytest.mark.parametrize("access", ["lw r3, 0(r1)", "sw r3, 0(r1)"])
def test_misaligned_access_inside_a_translated_block(new_memory, access):
    # The pointer turns misaligned at the end of the fourth trip, well
    # after the loop is translated; SPM and DRAM both refuse it.
    source = f"""
        movi r1, {SPM_BASE}
        movi r2, 6
    loop:
        addi r5, r5, 1
        {access}
        addi r1, r1, 4
        slti r4, r2, 4
        add  r1, r1, r4
        addi r2, r2, -1
        bne  r2, r0, loop
        halt
    """
    outcomes = {}
    for engine in ("reference", "fast"):
        core = Core(assemble(source), new_memory(), engine=engine)
        with pytest.raises(ValueError, match="unaligned") as excinfo:
            core.run()
        outcomes[engine] = (str(excinfo.value), core_state(core))
    assert outcomes["fast"] == outcomes["reference"]


def test_cores_share_translations_with_their_own_patch_and_memory():
    compiled = compile_case("fir", "AT-MA")
    cores = {}
    for seed in (1, 2):
        kernel = make_kernel("fir", seed=seed)
        states = {}
        for engine in ("reference", "fast"):
            memory = MemorySystem.stitch()
            core = Core(compiled.program, memory, engine=engine,
                        patch=PatchExecutor(compiled.cfg_table, memory))
            kernel.setup(core)
            assert core.run().reason == STOP_HALT
            states[engine] = (core_state(core), kernel.result(core))
        assert states["fast"] == states["reference"]
        cores[seed] = core
    first, second = cores[1], cores[2]
    assert translated(first) == translated(second)
    for pc in translated(first):
        assert first._blocks[pc][0] is second._blocks[pc][0]
    assert first.regs != second.regs


def test_hooked_translations_are_keyed_apart():
    compiled = compile_case("fir", "AT-MA")
    cores = []
    for probe in (None, Tracer()):
        kernel = make_kernel("fir", seed=1)
        memory = MemorySystem.stitch()
        core = Core(compiled.program, memory, probe=probe,
                    patch=PatchExecutor(compiled.cfg_table, memory))
        kernel.setup(core)
        core.run()
        cores.append(core)
    fast, hooked = cores
    assert hooked.selected_engine() == "instrumented"
    assert translated(fast) == translated(hooked) != {}
    for pc in translated(fast):
        assert fast._blocks[pc][0] is not hooked._blocks[pc][0]


def test_translations_die_with_their_last_core():
    compiled = compile_case("fir", "AT-MA")

    def run_fir(probe):
        kernel = make_kernel("fir", seed=1)
        memory = MemorySystem.stitch()
        core = Core(compiled.program, memory, probe=probe,
                    patch=PatchExecutor(compiled.cfg_table, memory))
        kernel.setup(core)
        core.run()
        return core

    for probe in (lambda: None, Tracer):  # engine fast, then instrumented
        first, second = run_fir(probe()), run_fir(probe())
        blocks = [weakref.ref(entry[0]) for entry in first._blocks
                  if entry is not None]
        assert blocks
        del first
        assert all(block() is not None for block in blocks)  # second's
        del second
        # No gc.collect(): a translation that captured a core, memory,
        # probe or patch would sit in a reference cycle and survive this.
        assert all(block() is None for block in blocks)


def _cix_core(engine):
    compiled = compile_case("2dconv", "AT-MA+AT-MA")
    kernel = make_kernel("2dconv", seed=1)
    memory = MemorySystem.stitch()
    core = Core(compiled.program, memory, engine=engine,
                patch=PatchExecutor(compiled.cfg_table, memory,
                                    replica_memory=replica_for(compiled,
                                                               kernel)))
    kernel.setup(core)
    return core, compiled


def _stop_at_cix_block():
    """Instructions 2dconv @ AT-MA+AT-MA retires before it next enters a
    translated block with a ``cix`` past the block's first instruction."""
    core, _ = _cix_core("fast")
    core.run(max_instructions=4000)
    code = core._decoded.code
    while True:
        length = translated(core).get(core.pc, 0)
        if any(code[pc][0] == K_CIX
               for pc in range(core.pc + 1, core.pc + length)):
            return core.instret
        assert core.run(max_instructions=1).reason == STOP_LIMIT


@pytest.mark.parametrize("bad_patch", [
    lambda compiled, memory: PatchExecutor([], memory),
    lambda compiled, memory: PatchExecutor(compiled.cfg_table, memory),
], ids=["unknown-config-id", "unbound-b-half-lmau"])
def test_cix_raising_inside_a_translated_block(bad_patch):
    stop = _stop_at_cix_block()
    errors, states = {}, {}
    for engine in ("reference", "fast"):
        core, compiled = _cix_core(engine)
        assert core.run(max_instructions=stop).reason == STOP_LIMIT
        entry = core.pc
        # The next cix raises: a table without its config, or a fused
        # config whose B half has no scratchpad bound.
        core.patch = bad_patch(compiled, core.memory)
        with pytest.raises((IndexError, RuntimeError)) as excinfo:
            core.run()
        errors[engine] = (type(excinfo.value), str(excinfo.value))
        states[engine] = core_state(core)
        if engine == "fast":
            assert entry < core.pc < entry + translated(core)[entry]
    assert errors["fast"] == errors["reference"]
    # pc, cycles and instret at the cix, with its fetch and cix_retired
    # charged: every counter matches the reference.
    assert states["fast"] == states["reference"]


class _ScriptedPatch(PatchPort):
    """A patch whose results are a script of its first operand: config
    0 returns one value, config 1 three, config 2 two values past the
    signed 32-bit range."""

    def __init__(self):
        self.executions = 0
        self.fused_executions = 0
        self.calls = []

    def execute(self, cfg_id, in_values):
        self.executions += 1
        self.calls.append((cfg_id, list(in_values)))
        a = in_values[0]
        if cfg_id == 0:
            return [3 * a + 1]
        if cfg_id == 1:
            return [a + 7, a - 7, a ^ 5]
        return [a * 0x1_0000_0003 + (1 << 31), -(1 << 40) - a]


#: Thirty trips of a loop of ``cix`` whose results are shorter or
#: longer than their out registers, or overflow 32 bits into outs that
#: name r0.
SCRIPTED = """
    movi r1, 1
    movi r2, 30
    movi r4, 99
loop:
    cix  0, (r3, r4), (r1)
    cix  1, (r5), (r3)
    cix  2, (r0, r6), (r1)
    cix  2, (r7, r0), (r5)
    add  r1, r1, r6
    addi r2, r2, -1
    bne  r2, r0, loop
    halt
"""


def test_scripted_cix_results_inside_translated_blocks():
    runs = {}
    for engine in ENGINES:
        patch = _ScriptedPatch()
        core = Core(assemble(SCRIPTED), MemorySystem.stitch(), patch=patch,
                    engine=engine)
        assert core.run().reason == STOP_HALT
        runs[engine] = (core_state(core), patch.calls)
        if engine != "reference":
            assert translated(core) == {3: 7}
    assert runs["fast"] == runs["reference"]
    assert runs["instrumented"] == runs["reference"]
    regs = runs["reference"][0]["regs"]
    assert regs[0] == 0 and regs[4] == 99  # one value leaves r4 alone
    assert len(runs["reference"][1]) == 4 * 30
