"""Unit tests for the PC-attribution cycle profiler."""

import pytest

from repro.cpu import Core
from repro.isa import assemble
from repro.mem import MemorySystem
from repro.profile import (
    CycleProfile,
    PCProfiler,
    profile_kernel_cycles,
    render_annotated,
    render_folded,
    render_summary,
)

LOOP_SOURCE = """\
    movi r1, 8
    movi r2, 0
outer:
    movi r3, 4
inner:
    addi r2, r2, 1
    addi r3, r3, -1
    bne  r3, r0, inner
    addi r1, r1, -1
    bne  r1, r0, outer
    halt
"""


def run_profiled(source, **core_kwargs):
    program = assemble(source, name="probe")
    core = Core(program, MemorySystem.stitch(), probe=PCProfiler(),
                **core_kwargs)
    assert core.run(max_instructions=100_000).reason == "halt"
    return CycleProfile.from_core(core), core


class TestHistogram:
    def test_every_cycle_lands_on_a_pc(self):
        profile, core = run_profiled(LOOP_SOURCE)
        assert profile.profiled_cycles() == core.cycles
        assert profile.reconciles()
        assert profile.retired_instructions() == core.instret

    def test_requires_profile_cycles(self):
        program = assemble("halt\n")
        core = Core(program, MemorySystem.stitch())
        core.run()
        with pytest.raises(RuntimeError):
            CycleProfile.from_core(core)

    def test_retirement_counts_per_pc(self):
        profile, _core = run_profiled(LOOP_SOURCE)
        # The inner-loop body retires 8 * 4 = 32 times.
        inner_start = profile.program.labels["inner"]
        assert profile.pc_cycles[inner_start][1] == 32


class TestFolding:
    def test_loop_nesting_and_totals(self):
        profile, _core = run_profiled(LOOP_SOURCE)
        by_name = {loop.name: loop for loop in profile.loops}
        outer = by_name["loop@outer"]
        inner = by_name["loop@inner"]
        assert inner.parent is outer
        assert inner.depth == outer.depth + 1
        assert inner.blocks < outer.blocks
        # Totals nest: outer includes inner; self excludes it exactly.
        assert outer.total_cycles >= inner.total_cycles
        assert outer.self_cycles == outer.total_cycles - inner.total_cycles

    def test_block_cycles_sum_to_total(self):
        profile, core = run_profiled(LOOP_SOURCE)
        assert sum(b.cycles for b in profile.blocks) == core.cycles

    def test_folded_stacks_carry_loop_frames(self):
        profile, _core = run_profiled(LOOP_SOURCE)
        folded = dict(profile.folded_stacks())
        assert "probe;loop@outer;loop@inner;inner" in folded
        assert sum(folded.values()) == profile.total_cycles

    def test_to_dict_shape(self):
        profile, _core = run_profiled(LOOP_SOURCE)
        payload = profile.to_dict()
        assert payload["reconciled"] is True
        assert payload["total_cycles"] == payload["profiled_cycles"]
        assert payload["has_cfg"] is True
        inner = next(lp for lp in payload["loops"]
                     if lp["name"] == "loop@inner")
        assert inner["parent"] == "loop@outer"


class TestKernelEntry:
    def test_fft_reconciles_and_finds_the_hot_loop(self):
        profile, core = profile_kernel_cycles("fft")
        assert profile.reconciles()
        assert profile.total_cycles == core.cycles
        hottest = profile.loops[0]
        assert hottest.name == "loop@fft_bf"  # the butterfly loop
        assert hottest.total_cycles / profile.total_cycles > 0.5

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            profile_kernel_cycles("no-such-kernel")


class TestRendering:
    def test_summary_mentions_reconciliation(self):
        profile, _core = run_profiled(LOOP_SOURCE)
        text = render_summary(profile)
        assert "reconciled" in text
        assert "loop@inner" in text

    def test_annotated_covers_every_instruction(self):
        profile, _core = run_profiled(LOOP_SOURCE)
        text = render_annotated(profile)
        assert "outer:" in text and "inner:" in text
        assert len([ln for ln in text.splitlines() if "addi" in ln]) == 3

    def test_folded_render_format(self):
        profile, _core = run_profiled(LOOP_SOURCE)
        for line in render_folded(profile).splitlines():
            frames, cycles = line.rsplit(" ", 1)
            assert frames.startswith("probe")
            assert int(cycles) > 0
