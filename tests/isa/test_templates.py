"""The source templates of ``repro.isa.decoded`` against the spec.

Every translated block, the cold step's ladder and every patch
configuration compile ``WRAP`` and the :data:`VALUES` sources; ``wrap32``
and the reference interpreter (``Core._run_reference``) are what they
must equal.  ``WRAP`` returns a value already in ``[-2**31, 2**31)`` as
it is, so an in-range operand must come back as the same object: that
catches a bound that folds an in-range value the slow way, which
``==`` alone cannot see.
"""

from hypothesis import example, given, settings, strategies as st

from repro.cpu import Core
from repro.isa import Instruction, Op, Program, wrap32
from repro.isa.decoded import (
    OP_KIND, VALUES, WRAP, compiled, decode_program, value_source,
)
from repro.mem import MemorySystem

#: The folding edges, and a value ``movi`` leaves unwrapped.
EDGES = (1 << 31, -(1 << 31), (1 << 31) - 1, -(1 << 31) - 1, 1 << 32,
         (1 << 32) - 1, 0xDEADBEEF)

wrapped = compiled(f"def wrapped(x):\n    return {WRAP.format('x')}\n",
                   "<wrap under test>")


def check_wrap(x):
    got = wrapped(x)
    assert got == wrap32(x)
    if -(1 << 31) <= x < 1 << 31:
        assert got is x  # returned as it is, not folded


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=-(1 << 64), max_value=1 << 64))
def test_wrap_matches_wrap32(x):
    check_wrap(x)


def test_wrap_at_the_edges():
    for edge in EDGES:
        for x in (edge, -edge):
            check_wrap(x)


# -- every VALUES kind against the reference interpreter ----------------------

KINDS = sorted(VALUES)
OPS = {kind: op for op, kind in OP_KIND.items()}
#: What ``movi`` can load: a register may hold an unwrapped value.
movi_values = st.one_of(
    st.integers(min_value=-(1 << 31), max_value=(1 << 32) - 1),
    st.sampled_from([edge for edge in EDGES if -(1 << 31) <= edge < 1 << 32]),
    st.integers(min_value=-40, max_value=40),
)


def _operand(slot, name):
    """The cold step's operand: an immediate or a register of code tuple
    ``t``."""
    return f"t[{slot}]" if name == "i" else f"regs[t[{slot}]]"


SOURCES = {
    kind: compiled("def value(t, regs):\n"
                   f"    return {value_source(kind, _operand)}\n",
                   "<value under test>")
    for kind in KINDS
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(KINDS), movi_values, movi_values, movi_values)
@example(OP_KIND[Op.ADD], 0xDEADBEEF, 0, 0)
@example(OP_KIND[Op.SRA], 0xDEADBEEF, 4, 0)
@example(OP_KIND[Op.MOV], 0xDEADBEEF, 0, 0)
def test_value_sources_match_the_reference(kind, a, b, imm):
    """``r3 = op(r1, r2 | imm)`` after ``movi r1, a`` and ``movi r2, b``."""
    program = Program([
        Instruction(Op.MOVI, rd=1, imm=a),
        Instruction(Op.MOVI, rd=2, imm=b),
        Instruction(OPS[kind], rd=3, ra=1, rb=2, imm=imm),
        Instruction(Op.HALT),
    ], name="template")
    core = Core(program, MemorySystem.stitch(), engine="reference")
    core.run()
    t = decode_program(program).code[2]
    assert SOURCES[kind](t, [0, a, b]) == core.regs[3]
