"""Instruction definitions and reference semantics.

Every operation the paper's patch-design study classifies is tagged with
its operation class (Section III-A of the paper):

* ``A`` — arithmetic and logic,
* ``S`` — shifts,
* ``M`` — multiplication,
* ``T`` — load/store to the local scratchpad,
* moves are "wiring" and carry no class.

Each register-form op's value is defined once, in :data:`OP_VALUE`:
the CPU interpreter evaluates through :func:`eval_alu`,
:func:`eval_shift` and :func:`eval_mul`, which dispatch through it, and
the patch executor binds its entries per configured unit, so that a
custom instruction is bit-identical to the software sequence it
replaces.
"""

import enum


_MASK32 = 0xFFFFFFFF


def wrap32(value):
    """Wrap an integer to signed 32-bit two's complement."""
    value &= _MASK32
    return value - 0x100000000 if value & 0x80000000 else value


def _u32(value):
    return value & _MASK32


class OpClass(enum.Enum):
    """Operation classes used by the patch-design analysis."""

    A = "A"
    S = "S"
    M = "M"
    T = "T"
    MOVE = "move"
    CTRL = "ctrl"
    COMM = "comm"
    CIX = "cix"
    MISC = "misc"


class Op(enum.Enum):
    """Mnemonics of the reproduction ISA."""

    # Arithmetic / logic (class A)
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLT = "slt"
    SLTU = "sltu"
    SEQ = "seq"
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLTI = "slti"
    # Shifts (class S)
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    SLLI = "slli"
    SRLI = "srli"
    SRAI = "srai"
    # Multiply (class M)
    MUL = "mul"
    MULH = "mulh"
    # Memory (class T when the address falls in the SPM window)
    LW = "lw"
    SW = "sw"
    # Moves (wiring)
    MOV = "mov"
    MOVI = "movi"
    # Control flow
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLTU = "bltu"
    BGEU = "bgeu"
    JMP = "jmp"
    JAL = "jal"
    JR = "jr"
    HALT = "halt"
    NOP = "nop"
    # Message passing (blocking, over the inter-core NoC)
    SEND = "send"
    RECV = "recv"
    # Custom instruction driving a configured (possibly fused) patch
    CIX = "cix"


# --------------------------------------------------------------------------
# Operand formats.  The assembler uses these to parse, the interpreter to
# dispatch.  Fields of Instruction used per format:
#   R3    op rd, ra, rb
#   RI    op rd, ra, imm
#   MOV   op rd, ra
#   MOVI  op rd, imm            (full 32-bit immediate; two-word encode)
#   MEM   lw rd, imm(ra) / sw rd, imm(ra)   (for sw, rd is the source)
#   BR    op ra, rb, target
#   J     op target             (jal also writes lr)
#   JR    op ra
#   NONE  op
#   COMM  op ra, rb, rc         (peer core, base address, word count)
#   CIX   op cfg, (outs...), (ins...)
# --------------------------------------------------------------------------

FMT_R3 = "r3"
FMT_RI = "ri"
FMT_MOV = "mov"
FMT_MOVI = "movi"
FMT_MEM = "mem"
FMT_BR = "br"
FMT_J = "j"
FMT_JR = "jr"
FMT_NONE = "none"
FMT_COMM = "comm"
FMT_CIX = "cix"

_R3_A = {Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SLT, Op.SLTU, Op.SEQ}
_RI_A = {Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLTI}
_R3_S = {Op.SLL, Op.SRL, Op.SRA}
_RI_S = {Op.SLLI, Op.SRLI, Op.SRAI}
_R3_M = {Op.MUL, Op.MULH}

OP_FORMAT = {}
OP_CLASS = {}
for _op in _R3_A | _R3_S | _R3_M:
    OP_FORMAT[_op] = FMT_R3
for _op in _RI_A | _RI_S:
    OP_FORMAT[_op] = FMT_RI
for _op in _R3_A | _RI_A:
    OP_CLASS[_op] = OpClass.A
for _op in _R3_S | _RI_S:
    OP_CLASS[_op] = OpClass.S
for _op in _R3_M:
    OP_CLASS[_op] = OpClass.M
OP_FORMAT.update(
    {
        Op.LW: FMT_MEM,
        Op.SW: FMT_MEM,
        Op.MOV: FMT_MOV,
        Op.MOVI: FMT_MOVI,
        Op.BEQ: FMT_BR,
        Op.BNE: FMT_BR,
        Op.BLT: FMT_BR,
        Op.BGE: FMT_BR,
        Op.BLTU: FMT_BR,
        Op.BGEU: FMT_BR,
        Op.JMP: FMT_J,
        Op.JAL: FMT_J,
        Op.JR: FMT_JR,
        Op.HALT: FMT_NONE,
        Op.NOP: FMT_NONE,
        Op.SEND: FMT_COMM,
        Op.RECV: FMT_COMM,
        Op.CIX: FMT_CIX,
    }
)
OP_CLASS.update(
    {
        Op.LW: OpClass.T,
        Op.SW: OpClass.T,
        Op.MOV: OpClass.MOVE,
        Op.MOVI: OpClass.MOVE,
        Op.BEQ: OpClass.CTRL,
        Op.BNE: OpClass.CTRL,
        Op.BLT: OpClass.CTRL,
        Op.BGE: OpClass.CTRL,
        Op.BLTU: OpClass.CTRL,
        Op.BGEU: OpClass.CTRL,
        Op.JMP: OpClass.CTRL,
        Op.JAL: OpClass.CTRL,
        Op.JR: OpClass.CTRL,
        Op.HALT: OpClass.CTRL,
        Op.NOP: OpClass.MISC,
        Op.SEND: OpClass.COMM,
        Op.RECV: OpClass.COMM,
        Op.CIX: OpClass.CIX,
    }
)

ALU_OPS = frozenset(op for op, cls in OP_CLASS.items() if cls is OpClass.A)
SHIFT_OPS = frozenset(op for op, cls in OP_CLASS.items() if cls is OpClass.S)
MUL_OPS = frozenset(op for op, cls in OP_CLASS.items() if cls is OpClass.M)
BRANCH_OPS = frozenset(
    {Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU, Op.JMP, Op.JAL, Op.JR}
)

# Base (register-register) operation computed by each mnemonic, used when a
# DFG node is placed on a patch functional unit: the immediate form of an
# op computes the same function as the register form.
BASE_OP = {
    Op.ADDI: Op.ADD,
    Op.ANDI: Op.AND,
    Op.ORI: Op.OR,
    Op.XORI: Op.XOR,
    Op.SLTI: Op.SLT,
    Op.SLLI: Op.SLL,
    Op.SRLI: Op.SRL,
    Op.SRAI: Op.SRA,
}


def base_op(op):
    """Map an immediate-form mnemonic to its register-form base operation."""
    return BASE_OP.get(op, op)


def op_class(op):
    """Return the :class:`OpClass` of a mnemonic."""
    return OP_CLASS[op]


def _add(lhs, rhs):
    return wrap32(lhs + rhs)


def _sub(lhs, rhs):
    return wrap32(lhs - rhs)


def _and(lhs, rhs):
    return wrap32(lhs & rhs)


def _or(lhs, rhs):
    return wrap32(lhs | rhs)


def _xor(lhs, rhs):
    return wrap32(lhs ^ rhs)


def _slt(lhs, rhs):
    return 1 if lhs < rhs else 0


def _sltu(lhs, rhs):
    return 1 if _u32(lhs) < _u32(rhs) else 0


def _seq(lhs, rhs):
    return 1 if lhs == rhs else 0


def _sll(value, amount):
    return wrap32(_u32(value) << (amount & 31))


def _srl(value, amount):
    return wrap32(_u32(value) >> (amount & 31))


def _sra(value, amount):
    return wrap32(value >> (amount & 31))


def _mul(lhs, rhs):
    return wrap32(lhs * rhs)


def _mulh(lhs, rhs):
    return wrap32((lhs * rhs) >> 32)


#: The value function ``(lhs, rhs) -> value`` of every register-form A,
#: S and M operation, on signed 32-bit operands (shift amounts use their
#: low 5 bits).  The only definition of each op's value: the interpreter
#: reaches it through :func:`eval_alu`, :func:`eval_shift` and
#: :func:`eval_mul`, and the patch executor binds it per unit when it
#: lowers a configuration.
OP_VALUE = {
    Op.ADD: _add, Op.SUB: _sub, Op.AND: _and, Op.OR: _or, Op.XOR: _xor,
    Op.SLT: _slt, Op.SLTU: _sltu, Op.SEQ: _seq,
    Op.SLL: _sll, Op.SRL: _srl, Op.SRA: _sra,
    Op.MUL: _mul, Op.MULH: _mulh,
}


def eval_alu(op, lhs, rhs):
    """Evaluate an A-class operation on signed 32-bit values."""
    if op in _R3_A:
        return OP_VALUE[op](lhs, rhs)
    raise ValueError(f"not an ALU register op: {op}")


def eval_shift(op, value, amount):
    """Evaluate an S-class operation; shift amounts use the low 5 bits."""
    if op in _R3_S:
        return OP_VALUE[op](value, amount)
    raise ValueError(f"not a shift register op: {op}")


def eval_mul(op, lhs, rhs):
    """Evaluate an M-class operation (signed 32x32 multiply)."""
    if op in _R3_M:
        return OP_VALUE[op](lhs, rhs)
    raise ValueError(f"not a multiply op: {op}")


IMM16_MIN = -(1 << 15)
IMM16_MAX = (1 << 15) - 1


class Instruction:
    """One decoded instruction.

    ``words`` is the encoded size: 2 for ``movi`` (32-bit immediate) and
    ``cix`` (19-bit patch control does not fit one word, Section III-A of
    the paper), 1 otherwise.
    """

    __slots__ = ("op", "rd", "ra", "rb", "imm", "target", "cfg", "outs", "ins")

    def __init__(
        self,
        op,
        rd=None,
        ra=None,
        rb=None,
        imm=None,
        target=None,
        cfg=None,
        outs=None,
        ins=None,
    ):
        self.op = op
        self.rd = rd
        self.ra = ra
        self.rb = rb
        self.imm = imm
        self.target = target
        self.cfg = cfg
        self.outs = outs
        self.ins = ins

    @property
    def fmt(self):
        return OP_FORMAT[self.op]

    @property
    def opclass(self):
        return OP_CLASS[self.op]

    @property
    def words(self):
        return 2 if self.op in (Op.MOVI, Op.CIX) else 1

    def is_branch(self):
        return self.op in BRANCH_OPS

    def reads(self):
        """Register indices this instruction reads, in operand order."""
        fmt = self.fmt
        if fmt == FMT_R3:
            return (self.ra, self.rb)
        if fmt == FMT_RI:
            return (self.ra,)
        if fmt == FMT_MOV:
            return (self.ra,)
        if fmt == FMT_MEM:
            return (self.ra,) if self.op is Op.LW else (self.rd, self.ra)
        if fmt == FMT_BR:
            return (self.ra, self.rb) if self.op not in (Op.JMP, Op.JAL) else ()
        if fmt == FMT_JR:
            return (self.ra,)
        if fmt == FMT_COMM:
            return (self.ra, self.rb, self.rd)
        if fmt == FMT_CIX:
            return tuple(self.ins)
        return ()

    def writes(self):
        """Register indices this instruction writes."""
        fmt = self.fmt
        if fmt in (FMT_R3, FMT_RI, FMT_MOV, FMT_MOVI):
            return (self.rd,)
        if fmt == FMT_MEM:
            return (self.rd,) if self.op is Op.LW else ()
        if self.op is Op.JAL:
            return (15,)
        if fmt == FMT_CIX:
            return tuple(self.outs)
        return ()

    def __repr__(self):
        return f"Instruction({self.text()})"

    def text(self):
        """Render back to assembly syntax."""
        op = self.op.value
        fmt = self.fmt
        if fmt == FMT_R3:
            return f"{op} r{self.rd}, r{self.ra}, r{self.rb}"
        if fmt == FMT_RI:
            return f"{op} r{self.rd}, r{self.ra}, {self.imm}"
        if fmt == FMT_MOV:
            return f"{op} r{self.rd}, r{self.ra}"
        if fmt == FMT_MOVI:
            return f"{op} r{self.rd}, {self.imm}"
        if fmt == FMT_MEM:
            return f"{op} r{self.rd}, {self.imm}(r{self.ra})"
        if fmt == FMT_BR:
            return f"{op} r{self.ra}, r{self.rb}, {self.target}"
        if fmt == FMT_J:
            return f"{op} {self.target}"
        if fmt == FMT_JR:
            return f"{op} r{self.ra}"
        if fmt == FMT_COMM:
            return f"{op} r{self.ra}, r{self.rb}, r{self.rd}"
        if fmt == FMT_CIX:
            outs = ", ".join(f"r{r}" for r in self.outs)
            ins = ", ".join(f"r{r}" for r in self.ins)
            return f"cix {self.cfg}, ({outs}), ({ins})"
        return op

    def copy(self):
        return Instruction(
            self.op,
            rd=self.rd,
            ra=self.ra,
            rb=self.rb,
            imm=self.imm,
            target=self.target,
            cfg=self.cfg,
            outs=list(self.outs) if self.outs is not None else None,
            ins=list(self.ins) if self.ins is not None else None,
        )
