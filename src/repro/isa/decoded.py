"""Pre-decoded execution form of a :class:`Program`.

The interpreter used to re-decode every instruction on every retire:
look up ``instr.op`` (an enum attribute), walk a ~30-arm ``if/elif``
ladder of enum identity tests, and — for the immediate ALU forms —
allocate a fresh ``{imm op: base op}`` dict per retired instruction.
This module performs all of that work once per ``(program, platform)``
pair and caches the result on the ``Program`` instance:

* every instruction is lowered to one plain tuple ``(kind,
  resident_cost, words, *operands)`` in the ``code`` list that both
  instantiations of the block engine in :mod:`repro.cpu.engine` read:
  a dense integer ``kind`` (the dispatch key), the fetch cost the slot
  charges when its code lines are I-cache resident, the encoded word
  count, and pre-bound register indices, immediates (shift amounts
  pre-masked to 5 bits) and targets — tuple indexing is the cheapest
  per-retire access path CPython offers;
* block-leader flags (the profiler's unit of accounting) ride along as
  metadata;
* ``entries`` marks the pcs where the engine may enter a translated
  block — every leader and every pc after a ``send``/``recv`` — with
  the number of visits it waits before translating one;
* ``resident_ok`` records whether the program's code footprint can ever
  be evicted from the I-cache (see :func:`code_fully_cacheable`), which
  is what licenses the engine's memoized resident-line fetch path.

Decodes are memoized per ``Program`` instance, keyed by the
``(CoreParams, MemParams)`` pair — the execution-relevant projection of
``PlatformConfig.cache_key()`` (NoC and power parameters cannot change
decode output).  Both params types are frozen dataclasses, so the key
is hashable and two configs that agree on core+mem share one decode.

Beside the decode live what the two code generators share: each op's
source template, and :func:`compiled`, the one cache of generated
functions by source text.
"""

import functools

from repro.isa.instructions import Op

# -- dispatch kinds ---------------------------------------------------------
#
# Dense small ints; the engine's cold step dispatches on them with an
# if/elif ladder ordered by dynamic frequency.  Grouped: value-computing
# families first, then control flow, then the comm pair (which manage
# cycles themselves).

K_ADDI = 0    # also the pre-folded home of rd = ra + imm
K_LW = 1
K_ADD = 2
K_SW = 3
K_CIX = 4
K_MOVI = 5
K_MUL = 6
K_MULH = 7
K_SUB = 8
K_AND = 9
K_OR = 10
K_XOR = 11
K_SLT = 12
K_SLTU = 13
K_SEQ = 14
K_ANDI = 15   # pre-folded: rd = ra & imm
K_ORI = 16
K_XORI = 17
K_SLTI = 18
K_SLL = 19
K_SRL = 20
K_SRA = 21
K_SLLI = 22   # imm shift amount pre-masked to the low 5 bits at decode
K_SRLI = 23
K_SRAI = 24
K_MOV = 25
K_NOP = 26
K_BEQ = 27
K_BNE = 28
K_BLT = 29
K_BGE = 30
K_BLTU = 31
K_BGEU = 32
K_JMP = 33
K_JAL = 34
K_JR = 35
K_HALT = 36
K_SEND = 37
K_RECV = 38

FIRST_CONTROL = K_BEQ  # kinds below this are simple (fall-through) ops
NUM_KINDS = 39

#: Visits to a block entry before the fast loop translates the block:
#: the third visit runs translated.
TRANSLATE_VISITS = 3

# -- per-kind source templates ----------------------------------------------
#
# One definition of each op's fast form.  The block engine
# (:mod:`repro.cpu.engine`) instantiates it into its cold step's ladder
# (operands read from the code tuple) and into every translated block
# (operands inlined as literals); the patch executor
# (:mod:`repro.core.executor`) instantiates it into every lowered
# configuration.  ``a``/``b`` read source operands, ``i`` is an
# immediate.

#: ``WRAP.format(x)`` is the source of ``wrap32(x)``: a value already in
#: ``[-2**31, 2**31)`` is returned as it is, one comparison chain in
#: place of three multi-digit operations, and only others are folded.
#: ``_u`` is a local of the generated function no generator names
#: otherwise; a nested ``WRAP`` reassigns it before the outer one reads
#: it.
WRAP = ("(_u if -2147483648 <= (_u := {}) <= 2147483647"
        " else (_u + 2147483648 & 4294967295) - 2147483648)")
_FLAG = "(1 if {} else 0)"

# Code-tuple slots of each template operand (see ``_code_tuple``).
_R3 = (("a", 4), ("b", 5))
_RI = (("a", 4), ("i", 5))

#: kind -> (operand slots, value, result form) for every op whose only
#: effect is ``rd = value``.
VALUES = {
    K_ADDI: (_RI, "{a} + {i}", WRAP),
    K_ADD: (_R3, "{a} + {b}", WRAP),
    K_SUB: (_R3, "{a} - {b}", WRAP),
    K_MUL: (_R3, "{a} * {b}", WRAP),
    K_MULH: (_R3, "{a} * {b} >> 32", WRAP),
    K_AND: (_R3, "{a} & {b}", WRAP),
    K_OR: (_R3, "{a} | {b}", WRAP),
    K_XOR: (_R3, "{a} ^ {b}", WRAP),
    K_SLT: (_R3, "{a} < {b}", _FLAG),
    K_SLTU: (_R3, "({a} & 4294967295) < ({b} & 4294967295)", _FLAG),
    K_SEQ: (_R3, "{a} == {b}", _FLAG),
    K_ANDI: (_RI, "{a} & {i}", WRAP),  # immediates pre-folded at decode
    K_ORI: (_RI, "{a} | {i}", WRAP),
    K_XORI: (_RI, "{a} ^ {i}", WRAP),
    K_SLTI: (_RI, "{a} < {i}", _FLAG),
    K_SLL: (_R3, "({a} & 4294967295) << ({b} & 31)", WRAP),
    K_SRL: (_R3, "({a} & 4294967295) >> ({b} & 31)", WRAP),
    K_SRA: (_R3, "{a} >> ({b} & 31)", WRAP),
    K_SLLI: (_RI, "({a} & 4294967295) << {i}", WRAP),  # i pre-masked
    K_SRLI: (_RI, "({a} & 4294967295) >> {i}", WRAP),
    K_SRAI: (_RI, "{a} >> {i}", WRAP),
    K_MOV: ((("a", 4),), "{a}", "{}"),
    K_MOVI: ((("i", 4),), "{i}", "{}"),  # movi keeps its value unwrapped
}

#: Code-tuple slots of a branch's operands; its target is in slot 5.
BRANCH = (("a", 3), ("b", 4))
#: branch kind -> taken condition.
CONDITIONS = {
    K_BEQ: "{a} == {b}",
    K_BNE: "{a} != {b}",
    K_BLT: "{a} < {b}",
    K_BGE: "{a} >= {b}",
    K_BLTU: "({a} & 4294967295) < ({b} & 4294967295)",
    K_BGEU: "({a} & 4294967295) >= ({b} & 4294967295)",
}


def fill(slots, template, operand):
    """``template`` with each operand ``name`` at code-tuple ``slot``
    replaced by ``operand(slot, name)``."""
    return template.format(**{name: operand(slot, name)
                              for name, slot in slots})


def value_source(kind, operand):
    """Source of the value a :data:`VALUES` kind writes to ``rd``."""
    slots, value, form = VALUES[kind]
    return form.format(fill(slots, value, operand))


def window_test(base, end):
    """Source of a test on ``i``, an address minus ``base``, that holds
    when the access must take the checked path: unaligned, or outside
    the scratchpad window ``[base, end)``."""
    size = end - base
    if not size or size & (size - 1) or base & 3:
        return f"(i + {base & 3}) & 3 or not 0 <= i < {size}"
    return f"i & {~(size - 4)}"  # one mask: unaligned, below or past


#: Generated functions kept, by source text, for both generators.  A
#: compile pass of the kernel suite meets 573 distinct sources (374
#: blocks, 199 patch configurations); an entry holds about 3.4 KB.
CODE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=CODE_CACHE_SIZE)
def compiled(source, filename):
    """The one function ``source`` defines, compiled once per process.

    The source fixes the function completely, so every caller that
    generates the same text shares one function: its globals hold only
    the builtins and it closes over nothing, so it keeps no caller
    alive.  Each compile costs about 0.3-0.5 ms.
    """
    namespace = {}
    exec(compile(source, filename, "exec"), {}, namespace)
    (function,) = namespace.values()
    return function


OP_KIND = {
    Op.ADDI: K_ADDI, Op.LW: K_LW, Op.ADD: K_ADD, Op.SW: K_SW,
    Op.CIX: K_CIX, Op.MOVI: K_MOVI, Op.MUL: K_MUL, Op.MULH: K_MULH,
    Op.SUB: K_SUB, Op.AND: K_AND, Op.OR: K_OR, Op.XOR: K_XOR,
    Op.SLT: K_SLT, Op.SLTU: K_SLTU, Op.SEQ: K_SEQ,
    Op.ANDI: K_ANDI, Op.ORI: K_ORI, Op.XORI: K_XORI, Op.SLTI: K_SLTI,
    Op.SLL: K_SLL, Op.SRL: K_SRL, Op.SRA: K_SRA,
    Op.SLLI: K_SLLI, Op.SRLI: K_SRLI, Op.SRAI: K_SRAI,
    Op.MOV: K_MOV, Op.NOP: K_NOP,
    Op.BEQ: K_BEQ, Op.BNE: K_BNE, Op.BLT: K_BLT, Op.BGE: K_BGE,
    Op.BLTU: K_BLTU, Op.BGEU: K_BGEU,
    Op.JMP: K_JMP, Op.JAL: K_JAL, Op.JR: K_JR, Op.HALT: K_HALT,
    Op.SEND: K_SEND, Op.RECV: K_RECV,
}

_SHIFT_IMM_KINDS = frozenset({K_SLLI, K_SRLI, K_SRAI})


class DecodedProgram:
    """The decode pass's output: one plain tuple per pc.

    ``code``
        list of plain tuples ``(kind, resident_cost, words,
        *operands)``, index == pc — the engines' representation.
    ``leaders``
        per-PC block-leader flags from the program's basic blocks.
    ``resident_ok``
        True when the code footprint fits the I-cache outright (no
        eviction is ever possible), licensing the resident-line fetch
        memo.
    ``entries``
        per-PC visit countdowns: :data:`TRANSLATE_VISITS` at block
        entries (leaders and the pc after each ``send``/``recv``), 0
        elsewhere.  Each core counts down its own copy.
    """

    __slots__ = ("code", "leaders", "n", "resident_ok", "key", "entries")

    def __init__(self, code, leaders, resident_ok, key):
        self.code = code
        self.leaders = leaders
        self.n = len(code)
        self.resident_ok = resident_ok
        self.key = key
        entries = bytearray(TRANSLATE_VISITS if leader else 0
                            for leader in leaders)
        for pc, t in enumerate(code[:-1]):
            if t[0] == K_SEND or t[0] == K_RECV:
                entries[pc + 1] = TRANSLATE_VISITS
        self.entries = bytes(entries)

    def __len__(self):
        return self.n


def code_fully_cacheable(num_words, mem_params):
    """True when a ``num_words``-word code image can never be evicted.

    The code window is contiguous starting at ``code_base``, so its
    lines map round-robin over the I-cache sets: no set ever holds more
    than ``ceil(lines / num_sets)`` code lines, which is within the
    associativity exactly when the total line count fits the cache.
    Data accesses go to the D-cache (a distinct tag store), so code
    lines have no other competitors — once fetched, a line is resident
    for the rest of the simulation and its LRU position is irrelevant
    (every future access would be a hit regardless of replacement
    order).
    """
    if num_words == 0:
        return True
    line = mem_params.cache_line_bytes
    shift = line.bit_length() - 1
    first = mem_params.code_base >> shift
    last = (mem_params.code_base + 4 * num_words - 1) >> shift
    total_lines = mem_params.icache_bytes // line
    return (last - first + 1) <= total_lines


def _code_tuple(instr, kind, resident_cost):
    """Lower one :class:`Instruction` to the engines' plain tuple."""
    head = (kind, resident_cost, instr.words)
    if kind in (K_ADD, K_SUB, K_MUL, K_MULH, K_AND, K_OR, K_XOR, K_SLT,
                K_SLTU, K_SEQ, K_SLL, K_SRL, K_SRA):
        return head + (instr.rd, instr.ra, instr.rb)
    if kind in _SHIFT_IMM_KINDS:
        return head + (instr.rd, instr.ra, instr.imm & 31)
    if kind in (K_ADDI, K_ANDI, K_ORI, K_XORI, K_SLTI, K_LW, K_SW):
        return head + (instr.rd, instr.ra, instr.imm)
    if kind == K_MOV:
        return head + (instr.rd, instr.ra)
    if kind == K_MOVI:
        return head + (instr.rd, instr.imm)
    if kind in (K_BEQ, K_BNE, K_BLT, K_BGE, K_BLTU, K_BGEU):
        return head + (instr.ra, instr.rb, instr.target)
    if kind in (K_JMP, K_JAL):
        return head + (instr.target,)
    if kind == K_JR:
        return head + (instr.ra,)
    if kind == K_CIX:
        return head + (instr.cfg, tuple(instr.outs), tuple(instr.ins))
    if kind in (K_SEND, K_RECV):
        return head + (instr.rd, instr.ra, instr.rb)
    return head  # HALT / NOP


def _decode(program, core_params, mem_params, key):
    if mem_params is not None:
        hit_latency = mem_params.cache_hit_latency
        resident_ok = code_fully_cacheable(
            program.static_words(), mem_params
        )
    else:
        # Custom memory model: fetch timing is unknowable at decode, so
        # the engine always takes the real fetch path.
        hit_latency = 1
        resident_ok = False
    leaders = [False] * len(program)
    for block in program.basic_blocks():
        leaders[block.start] = True
    code = []
    for instr in program.instructions:
        kind = OP_KIND.get(instr.op)
        if kind is None:  # pragma: no cover - full ISA covered above
            raise NotImplementedError(f"opcode {instr.op}")
        words = instr.words
        # fetch() charges hit_latency per word on an all-hit fetch; the
        # core folds multi-word overlap back out as cost = fetch - (w-1).
        resident_cost = words * hit_latency - (words - 1)
        code.append(_code_tuple(instr, kind, resident_cost))
    return DecodedProgram(code, leaders, resident_ok, key)


def decode_program(program, core_params=None, mem_params=None):
    """Decode ``program`` for one platform; memoized on the Program.

    The cache lives on the ``Program`` instance (``_decoded_cache``), so
    it dies with the program and never outlives a mutation-free
    lifetime; like ``Program.basic_blocks`` it assumes instructions are
    not mutated in place after first execution.
    """
    cache = getattr(program, "_decoded_cache", None)
    if cache is None:
        cache = program._decoded_cache = {}
    key = (core_params, mem_params)
    decoded = cache.get(key)
    if decoded is None:
        decoded = cache[key] = _decode(program, core_params, mem_params, key)
    return decoded


def decode_for_platform(program, platform):
    """Decode against a :class:`~repro.platform.PlatformConfig`.

    Convenience wrapper: projects the platform down to the
    ``(core, mem)`` params that actually determine decode output, so
    two platforms differing only in NoC/power share a cache entry.
    """
    return decode_program(program, platform.core, platform.mem)
