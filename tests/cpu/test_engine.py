"""Unit tests for the pluggable execution engines (fast/instrumented).

The exhaustive state-equality checks live in
``tests/cpu/test_engine_differential.py``; this file covers the engine
*plumbing*: selection, decode caching, the resident-line memo's
eligibility rule, typed off-end errors, and the fast loop's deferred
state sync across resumable slices.
"""

import dataclasses

import pytest

from repro.compiler.profiler import BlockProfiler
from repro.cpu import (
    ATTRIBUTION_BUCKETS,
    Core,
    ENGINES,
    ExecutionError,
    STOP_HALT,
    STOP_LIMIT,
)
from repro.isa import assemble
from repro.isa.decoded import decode_program
from repro.mem import MemorySystem, SPM_BASE
from repro.platform import PlatformConfig
from repro.probe import Probe
from repro.profile import PCProfiler
from repro.workloads import make_kernel

LOOP = (
    "movi r1, 0\nloop: addi r1, r1, 1\nslti r2, r1, 200\n"
    "bne r2, r0, loop\nhalt"
)


def make_core(source, engine="auto", **kwargs):
    return Core(assemble(source), MemorySystem.stitch(), engine=engine,
                **kwargs)


class TestEngineSelection:
    def test_engines_tuple(self):
        assert ENGINES == ("auto", "fast", "instrumented", "reference")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_core("halt", engine="turbo")

    def test_auto_resolves_to_fast_without_observability(self):
        assert make_core("halt").selected_engine() == "fast"

    @pytest.mark.parametrize("flags", [
        {"probe": BlockProfiler(assemble("halt"))},
        {"probe": PCProfiler()},
    ])
    def test_auto_resolves_to_instrumented_with_observability(self, flags):
        assert make_core("halt", **flags).selected_engine() == "instrumented"

    def test_auto_resolves_to_instrumented_with_tracer(self):
        from repro.telemetry import Tracer

        core = make_core("halt", probe=Tracer())
        assert core.selected_engine() == "instrumented"

    def test_explicit_engine_wins(self):
        core = make_core("halt", engine="reference")
        assert core.selected_engine() == "reference"

    def test_fast_engine_refuses_observability(self):
        with pytest.raises(ValueError, match="fast"):
            make_core("halt", engine="fast", probe=PCProfiler())

    def test_instrumented_supports_profile(self):
        program = assemble(LOOP)
        core = Core(program, MemorySystem.stitch(), engine="instrumented",
                    probe=BlockProfiler(program))
        core.run()
        assert sum(core.probe.block_counts) > 0


class TestExecutionError:
    @pytest.mark.parametrize("engine", ["reference", "instrumented", "fast"])
    def test_off_end_carries_context(self, engine):
        core = Core(assemble("nop", name="runaway"), MemorySystem.stitch(),
                    engine=engine, core_id=7)
        with pytest.raises(ExecutionError) as excinfo:
            core.run()
        err = excinfo.value
        assert err.core_id == 7
        assert err.program_name == "runaway"
        assert err.pc == 1
        assert "core 7" in str(err)
        assert "runaway" in str(err)

    def test_is_an_index_error(self):
        # Back-compat: callers that caught the old bare IndexError keep
        # working.
        assert issubclass(ExecutionError, IndexError)

    @pytest.mark.parametrize("engine", ["reference", "instrumented", "fast"])
    def test_negative_pc_raises_instead_of_wrapping(self, engine):
        # jr to a negative pc must not silently wrap-index the program
        # (the old interpreter did); a negative fetch would also poison
        # the resident-line memo's capacity argument.
        core = make_core("movi r1, -3\njr r1\nhalt", engine=engine)
        with pytest.raises(ExecutionError) as excinfo:
            core.run()
        assert excinfo.value.pc == -3


class TestDecodeCache:
    def test_decode_is_memoized_on_the_program(self):
        program = assemble(LOOP)
        memory = MemorySystem.stitch()
        first = decode_program(program, None, memory.params)
        again = decode_program(program, None, memory.params)
        assert again is first

    def test_distinct_geometry_decodes_separately(self):
        program = assemble(LOOP)
        stitch = MemorySystem.stitch()
        baseline = MemorySystem.baseline()
        assert decode_program(program, None, stitch.params) is not \
            decode_program(program, None, baseline.params)

    def test_two_cores_share_one_decode(self):
        program = assemble(LOOP)
        a = Core(program, MemorySystem.stitch())
        b = Core(program, MemorySystem.stitch())
        a.run()
        b.run()
        assert a._decoded is b._decoded


class TestResidentMemo:
    def test_small_code_is_memo_eligible(self):
        core = make_core(LOOP)
        core.run()
        assert core._decoded.resident_ok

    def test_oversized_code_falls_back_to_real_fetches(self):
        # 8 KB I$ holds 2048 words; a bigger image can evict, so the
        # memo must disable itself — and timing must still match the
        # reference interpreter exactly.
        body = "addi r1, r1, 1\n" * 2100 + "halt"
        fast = make_core(body, engine="fast")
        ref = make_core(body, engine="reference")
        fast.run()
        ref.run()
        assert not fast._decoded.resident_ok
        assert fast.cycles == ref.cycles
        assert fast.memory.icache.misses == ref.memory.icache.misses
        assert fast.memory.icache.hits == ref.memory.icache.hits

    def test_memo_flushes_exact_hit_counts(self):
        fast = make_core(LOOP, engine="fast")
        ref = make_core(LOOP, engine="reference")
        fast.run()
        ref.run()
        assert fast.memory.icache.hits == ref.memory.icache.hits
        assert fast.memory.icache.misses == ref.memory.icache.misses


class TestFastLoopStateSync:
    def test_resumable_slices_match_single_run(self):
        sliced = make_core(LOOP, engine="fast")
        whole = make_core(LOOP, engine="fast")
        slices = 0
        while sliced.run(max_instructions=37).reason == STOP_LIMIT:
            slices += 1
        whole.run()
        assert slices > 2
        assert sliced.halted and whole.halted
        assert list(sliced.regs) == list(whole.regs)
        assert sliced.cycles == whole.cycles
        assert sliced.instret == whole.instret
        assert sliced.memory.icache.hits == whole.memory.icache.hits

    def test_attribution_invariant_on_fast_loop(self):
        core = make_core(LOOP, engine="fast")
        while core.run(max_instructions=37).reason == STOP_LIMIT:
            pass
        attribution = core.attribution()
        assert sum(attribution[b] for b in ATTRIBUTION_BUCKETS) == core.cycles

    def test_halted_core_reenters_cleanly(self):
        core = make_core("movi r1, 5\nhalt", engine="fast")
        assert core.run().reason == STOP_HALT
        cycles = core.cycles
        assert core.run().reason == STOP_HALT  # no-op re-entry
        assert core.cycles == cycles
        assert core.regs[1] == 5

    def test_spm_unaligned_store_matches_reference(self):
        source = f"movi r1, {SPM_BASE + 2}\nsw r1, 0(r1)\nhalt"
        for engine in ("fast", "reference"):
            with pytest.raises(ValueError, match="unaligned"):
                make_core(source, engine=engine).run()

    def test_spm_counters_match_reference(self):
        source = (
            f"movi r1, {SPM_BASE}\nmovi r2, 42\nsw r2, 0(r1)\n"
            "lw r3, 0(r1)\nlw r4, 0(r1)\nhalt"
        )
        fast = make_core(source, engine="fast")
        ref = make_core(source, engine="reference")
        fast.run()
        ref.run()
        assert fast.regs[3] == ref.regs[3] == 42
        assert fast.memory.spm.reads == ref.memory.spm.reads
        assert fast.memory.spm.writes == ref.memory.spm.writes
        assert fast.cycles == ref.cycles


class _MissCounter(Probe):
    """Counts the ``cache_miss`` hook by level."""

    observes_core = True

    def __init__(self):
        self.misses = {"icache": 0, "dcache": 0}

    def cache_miss(self, tile, level, addr, time):
        self.misses[level] += 1


def _memory(preset, **fields):
    return MemorySystem(dataclasses.replace(preset().mem, **fields))


class TestCacheMissHook:
    """The hook fires on real misses: never on an SPM access or a
    multi-cycle hit."""

    @pytest.mark.parametrize("memory", [
        lambda: _memory(PlatformConfig.stitch, spm_latency=2),
        lambda: _memory(PlatformConfig.stitch, cache_hit_latency=2),
        lambda: _memory(PlatformConfig.baseline, cache_hit_latency=2),
    ], ids=["spm_latency=2", "cache_hit_latency=2", "baseline"])
    def test_hook_counts_equal_cache_misses(self, memory):
        kernel = make_kernel("fir", seed=1)
        probe = _MissCounter()
        core = Core(kernel.program, memory(), probe=probe)
        kernel.setup(core)
        assert core.run().reason == STOP_HALT
        assert core.selected_engine() == "instrumented"
        assert probe.misses == {"icache": core.memory.icache.misses,
                                "dcache": core.memory.dcache.misses}
        assert core.stall_memory + core.stall_icache > 0


class TestSystemThreading:
    def test_stitch_system_forwards_engine(self):
        from repro.sim.system import StitchSystem

        assert StitchSystem().engine == "auto"
        assert StitchSystem(engine="reference").engine == "reference"

    def test_build_system_forwards_engine(self):
        import inspect

        from repro.sim.baselines import AppEvaluator

        signature = inspect.signature(AppEvaluator.build_system)
        assert "engine" in signature.parameters
