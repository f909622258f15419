"""The selector's closure check against a trial rewrite.

Selection asks :class:`Schedule` whether contracting one more candidate
into a block keeps its dependence graph acyclic.  The selector used to
answer by rewriting the block with the candidates accepted so far plus
the new one and catching the cycle error; here both answers must agree
on every candidate offered:

* on random blocks (the property suite's ``random_blocks``, and blocks
  mixing loads, stores and ALU ops), for every candidate the enumerator
  finds, accepting an arbitrary subset of the admitted ones;
* inside real selections: every ``admits`` call the selector makes
  while compiling fir (tier-1) or every target of the enumeration
  golden (soak) at all 13 options.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments.kernels import FIG11_KERNELS
from repro.compiler import selector
from repro.compiler.codegen import (
    CodegenError,
    ImmPool,
    Schedule,
    rewrite_block,
)
from repro.compiler.dfg import DFG
from repro.compiler.driver import ALL_OPTIONS, LOCUS_OPTION, KernelCompiler
from repro.compiler.ise import Candidate, enumerate_candidates
from repro.compiler.mapper import Mapping
from repro.isa import assemble
from repro.workloads import make_kernel
from tests.compiler.test_enumeration_golden import kernels
from tests.property.test_compiler_properties import random_blocks


def trial_admits(dfg, accepted, candidate):
    """Whether rewriting the block with ``accepted`` plus ``candidate``
    contracted succeeds (operands bound to r0, so no constant needs a
    register)."""
    placements = [(Mapping(c, None, [None], [0]), 0)
                  for c in accepted + [candidate]]
    try:
        rewrite_block(dfg.block, placements, ImmPool(()))
    except CodegenError:
        return False
    return True


def replay(dfg, keep):
    """Offer every candidate of ``dfg`` in order; accept the admitted
    ones ``keep`` picks (by offer index).  Returns (offered, admitted)."""
    schedule = Schedule(dfg)
    accepted = []
    covered = set()
    offered = admitted = 0
    for index, candidate in enumerate(enumerate_candidates(dfg)):
        if candidate.node_ids & covered:
            continue
        offered += 1
        verdict = schedule.admits(candidate)
        assert verdict == trial_admits(dfg, accepted, candidate), \
            (sorted(candidate.node_ids), [sorted(c.node_ids) for c in accepted])
        if verdict and keep(index):
            admitted += 1
            schedule.accept(candidate)
            accepted.append(candidate)
            covered |= candidate.node_ids
    return offered, admitted


@st.composite
def memory_blocks(draw):
    """Blocks mixing ALU ops with loads and stores at small offsets."""
    lines = []
    for _ in range(draw(st.integers(min_value=2, max_value=10))):
        op = draw(st.sampled_from(("add", "xor", "mul", "sll", "lw", "sw")))
        rd, ra, rb = (draw(st.integers(min_value=1, max_value=6))
                      for _ in range(3))
        if op in ("lw", "sw"):
            offset = 4 * draw(st.integers(min_value=0, max_value=2))
            lines.append(f"{op} r{rd}, {offset}(r{ra})")
        else:
            lines.append(f"{op} r{rd}, r{ra}, r{rb}")
    lines.append("halt")
    return assemble("\n".join(lines))


@settings(max_examples=150, deadline=None)
@given(random_blocks(), st.lists(st.booleans(), min_size=64, max_size=64))
def test_closure_check_matches_trial_rewrites(program, keep):
    replay(DFG(program.basic_blocks()[0]), lambda index: keep[index % 64])


@settings(max_examples=150, deadline=None)
@given(memory_blocks(), st.lists(st.booleans(), min_size=64, max_size=64))
def test_closure_check_matches_trial_rewrites_across_memory_ops(program,
                                                                keep):
    block = program.basic_blocks()[0]
    spm = frozenset(range(block.start, block.start + len(block.instructions)))
    replay(DFG(block, spm_only=spm), lambda index: keep[index % 64])


def test_a_register_reuse_makes_a_convex_candidate_unschedulable():
    # The xor overwrites r2 after the add reads it and before the sub
    # reads the new value: {add, sub} is convex over value edges, but
    # as one instruction it would run both before and after the xor.
    dfg = DFG(assemble("add r1, r2, r3\nxor r2, r4, r5\nsub r6, r1, r2\n"
                       "halt").basic_blocks()[0])
    candidate = Candidate(dfg, {0, 2})
    assert dfg.is_convex(candidate.node_ids)
    assert not Schedule(dfg).admits(candidate)
    assert not trial_admits(dfg, [], candidate)


def test_two_placements_that_close_a_cycle_together():
    # {add r1, xor} and {add r4, sub} are independent pairs, each fine
    # alone; once one is contracted the other closes a cycle through it.
    dfg = DFG(assemble("add r1, r2, r3\nadd r4, r5, r6\nsub r7, r1, r8\n"
                       "xor r9, r4, r10\nhalt").basic_blocks()[0])
    first, second = Candidate(dfg, {0, 3}), Candidate(dfg, {1, 2})
    schedule = Schedule(dfg)
    assert schedule.admits(first) and schedule.admits(second)
    schedule.accept(first)
    assert not schedule.admits(second)
    assert not trial_admits(dfg, [first], second)
    assert trial_admits(dfg, [], second)


def test_a_cycle_through_two_earlier_placements():
    # Accepting {add r7, add r9} and then {add r4, add r12} leaves the
    # first add reaching the last only through both: it feeds the
    # first pair, which feeds the second, which feeds the last add.
    dfg = DFG(assemble(
        "add r1, r2, r3\nadd r4, r5, r6\nadd r7, r1, r8\n"
        "add r9, r10, r11\nadd r12, r9, r13\nadd r14, r4, r15\nhalt"
    ).basic_blocks()[0])
    placed = [Candidate(dfg, {2, 3}), Candidate(dfg, {1, 4})]
    last = Candidate(dfg, {0, 5})
    schedule = Schedule(dfg)
    for candidate in placed:
        assert schedule.admits(candidate) and schedule.admits(last)
        schedule.accept(candidate)
    assert not schedule.admits(last)
    assert not trial_admits(dfg, placed, last)


class CheckedSchedule(Schedule):
    """A Schedule whose every answer is checked by a trial rewrite."""

    checked = 0

    def __init__(self, dfg):
        super().__init__(dfg)
        self.accepted = []

    def admits(self, candidate):
        verdict = super().admits(candidate)
        assert verdict == trial_admits(self.dfg, self.accepted, candidate)
        CheckedSchedule.checked += 1
        return verdict

    def accept(self, candidate):
        super().accept(candidate)
        self.accepted.append(candidate)


def check_selections(kernel, replication):
    CheckedSchedule.checked = 0
    with mock.patch.object(selector, "Schedule", CheckedSchedule):
        KernelCompiler(kernel, allow_replication=replication).compile_options(
            ALL_OPTIONS + (LOCUS_OPTION,)
        )
    assert CheckedSchedule.checked


def test_every_selection_check_on_fir_matches_a_trial_rewrite():
    check_selections(make_kernel("fir", seed=1), replication=True)


@pytest.mark.soak
@pytest.mark.parametrize("label", list(kernels()))
def test_every_selection_check_matches_a_trial_rewrite(label):
    check_selections(kernels()[label], replication=label in FIG11_KERNELS)
