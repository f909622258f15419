"""Execution engines over pre-decoded programs.

Two entry loops share the decode pass of :mod:`repro.isa.decoded` and
the architectural/timing semantics of the reference interpreter
(``Core._run_reference``), which fires no hooks.  Both take each op's
semantics from one table of per-kind source templates (:data:`_VALUES`,
:data:`_CONDITIONS`), so each op is defined once:

* :func:`run_instrumented` — dispatches through :data:`HANDLERS` (one
  small function per op family) and is the one loop that fires the
  core's probe hooks (:mod:`repro.probe`): the boundary hook when the
  clock reaches ``core._boundary``, cache misses, ``cix``, the comm
  trio, and — only when the probe overrides them — the per-instruction
  ``retire`` and ``mem_access`` hooks.
* :func:`run_fast` — the block engine, selected when the probe does
  not observe the core.  It fires no hook and keeps architectural and
  timing state in locals.  On the third visit to a block entry (a
  leader, or the pc after a ``send``/``recv``) whose lines are all
  resident on the core, it translates the block up to its closing
  branch or jump into one Python function: registers, immediates and
  aligned SPM-window loads and stores inlined, each exit one constant
  tuple of deltas (next pc, cycles, instret, stall buckets, I-cache hit
  words, SPM reads and writes, ``cix`` count).  Everything else runs on
  the cold step, a frequency-ordered ladder over dense integer kinds:
  first visits, blocks under three instructions,
  ``send``/``recv``/``jr``/``halt``, a block that would cross the
  instruction limit, any cycle limit, accesses outside the SPM window,
  and tiles whose code may be evicted or that have no scratchpad.  The
  cold step keeps two memoized paths:

  - **resident-line fetch**: when the program's code footprint fits the
    I-cache outright (``DecodedProgram.resident_ok``), a per-PC flag
    marks slots whose lines have been fetched once; marked slots charge
    the pre-computed all-hit cost without touching the cache model.
    Hit counters are accumulated locally and flushed on exit, so cache
    statistics stay bit-identical to the reference.
  - **SPM direct access**: aligned loads/stores inside the scratchpad
    window index the backing word list directly; anything else falls
    back to ``MemorySystem.read``/``write`` (same errors, same timing).

  Translations are shared: a module-level weak dictionary keys each by
  everything its code depends on, and each core's pc-indexed block
  table holds its own strongly, so tiles running identical blocks share
  one and none outlives its last core.  A translation captures no core,
  memory or patch: the slice passes in the register list, the SPM words
  and the patch's ``execute``.

Both loops are resumable and idempotent: the fast loop syncs its locals
back to the core in a ``finally`` block, so limit stops, blocking
receives and even exceptions — a ``cix`` raising inside a block
included — leave the core in exactly the state the reference
interpreter would.
"""

import linecache
import math  # noqa: F401 (used by the generated run_fast)
import textwrap
import weakref

from repro.cpu.core import (
    ExecutionError,
    RunResult,
    STOP_FROZEN,
    STOP_HALT,
    STOP_LIMIT,
    STOP_RECV,
)
from repro.isa.decoded import (
    FIRST_CONTROL,
    K_ADD,
    K_ADDI,
    K_AND,
    K_ANDI,
    K_BEQ,
    K_BGE,
    K_BGEU,
    K_BLT,
    K_BLTU,
    K_BNE,
    K_CIX,
    K_HALT,
    K_JAL,
    K_JMP,
    K_JR,
    K_LW,
    K_MOV,
    K_MOVI,
    K_MUL,
    K_MULH,
    K_NOP,
    K_OR,
    K_ORI,
    K_RECV,
    K_SEND,
    K_SEQ,
    K_SLL,
    K_SLLI,
    K_SLT,
    K_SLTI,
    K_SLTU,
    K_SRA,
    K_SRAI,
    K_SRL,
    K_SRLI,
    K_SUB,
    K_SW,
    K_XOR,
    K_XORI,
    NUM_KINDS,
)
from repro.isa.instructions import wrap32
from repro.probe import overrides

_MASK32 = 0xFFFFFFFF


# -- per-kind source templates ----------------------------------------------
#
# One definition of each op, instantiated three times: into the
# instrumented loop's handlers (operands read from the ``ExecOp``), into
# the cold step's ladder inside :func:`run_fast` (operands read from
# the code tuple ``t``) and into every translated block (operands
# inlined as literals).  ``a``/``b`` read source registers, ``i`` is an
# immediate.

_WRAP = "(({}) + 2147483648 & 4294967295) - 2147483648"  # == wrap32(...)
_FLAG = "(1 if {} else 0)"

# Code-tuple slots of each template operand (see ``_fast_tuple`` in
# :mod:`repro.isa.decoded`).
_R3 = (("a", 4), ("b", 5))
_RI = (("a", 4), ("i", 5))

#: kind -> (operand slots, value, result form) for every op whose only
#: effect is ``rd = value``.
_VALUES = {
    K_ADDI: (_RI, "{a} + {i}", _WRAP),
    K_ADD: (_R3, "{a} + {b}", _WRAP),
    K_SUB: (_R3, "{a} - {b}", _WRAP),
    K_MUL: (_R3, "{a} * {b}", _WRAP),
    K_MULH: (_R3, "{a} * {b} >> 32", _WRAP),
    K_AND: (_R3, "{a} & {b}", _WRAP),
    K_OR: (_R3, "{a} | {b}", _WRAP),
    K_XOR: (_R3, "{a} ^ {b}", _WRAP),
    K_SLT: (_R3, "{a} < {b}", _FLAG),
    K_SLTU: (_R3, "({a} & 4294967295) < ({b} & 4294967295)", _FLAG),
    K_SEQ: (_R3, "{a} == {b}", _FLAG),
    K_ANDI: (_RI, "{a} & {i}", _WRAP),  # immediates pre-folded at decode
    K_ORI: (_RI, "{a} | {i}", _WRAP),
    K_XORI: (_RI, "{a} ^ {i}", _WRAP),
    K_SLTI: (_RI, "{a} < {i}", _FLAG),
    K_SLL: (_R3, "({a} & 4294967295) << ({b} & 31)", _WRAP),
    K_SRL: (_R3, "({a} & 4294967295) >> ({b} & 31)", _WRAP),
    K_SRA: (_R3, "{a} >> ({b} & 31)", _WRAP),
    K_SLLI: (_RI, "({a} & 4294967295) << {i}", _WRAP),  # i pre-masked
    K_SRLI: (_RI, "({a} & 4294967295) >> {i}", _WRAP),
    K_SRAI: (_RI, "{a} >> {i}", _WRAP),
    K_MOV: ((("a", 4),), "{a}", "{}"),
    K_MOVI: ((("i", 4),), "{i}", "{}"),  # movi keeps its value unwrapped
}

#: branch kind -> taken condition; ``a``/``b`` in slots 3/4, target in 5.
_BRANCH = (("a", 3), ("b", 4))
_CONDITIONS = {
    K_BEQ: "{a} == {b}",
    K_BNE: "{a} != {b}",
    K_BLT: "{a} < {b}",
    K_BGE: "{a} >= {b}",
    K_BLTU: "({a} & 4294967295) < ({b} & 4294967295)",
    K_BGEU: "({a} & 4294967295) >= ({b} & 4294967295)",
}

#: Output write-back of a ``cix``: ``zip`` keeps the reference's
#: truncation when the patch returns fewer values than registers.
_CIX = "for k, v in zip({outs}, {call}):\n    if k:\n        {regs}[k] = " \
    + _WRAP.format("v")


def _fill(slots, template, operand):
    return template.format(**{name: operand(slot, name) for name, slot in slots})


# -- handler table (instrumented loop) --------------------------------------
#
# One small function per op family, ``handler(core, ex, regs) -> extra
# cycles beyond the fetch cost``.  Control flow, halt and the comm pair
# are not in the table: they steer the loop (next pc, retire-without-
# regs[0]-reset), so the instrumented loop keeps them inline, exactly
# like the reference interpreter.  The value ops are generated from
# :data:`_VALUES`.

def _h_lw(core, ex, regs):
    addr = (regs[ex.ra] + ex.imm) & _MASK32
    misses = core.memory.dcache.misses
    value, mem_cycles = core.memory.read(addr)
    if ex.rd != 0:
        regs[ex.rd] = value
    extra = mem_cycles - 1
    if extra > 0:
        core.stall_memory += extra
        # Not for an SPM access or a multi-cycle hit.
        if core.memory.dcache.misses != misses:
            core.probe.cache_miss(core.core_id, "dcache", addr, core.cycles)
    return extra


def _h_sw(core, ex, regs):
    addr = (regs[ex.ra] + ex.imm) & _MASK32
    misses = core.memory.dcache.misses
    mem_cycles = core.memory.write(addr, regs[ex.rd])
    extra = mem_cycles - 1
    if extra > 0:
        core.stall_memory += extra
        if core.memory.dcache.misses != misses:
            core.probe.cache_miss(core.core_id, "dcache", addr, core.cycles)
    return extra


def _h_cix(core, ex, regs):
    core.cix_retired += 1
    core.probe.cix(core.core_id, ex.cfg, core.cycles)
    outs = core._execute_cix(ex)
    for reg, value in zip(ex.outs, outs):
        if reg != 0:
            regs[reg] = wrap32(value)
    return 0


def _generated_handlers():
    """A handler per op in :data:`_VALUES` and a ``taken(a, b)`` test
    per branch in :data:`_CONDITIONS`, both indexed by kind."""
    def operand(slot, name):
        return "ex.imm" if name == "i" else f"regs[ex.r{name}]"

    source = "".join(
        f"def h{kind}(core, ex, regs):\n"
        f"    if ex.rd != 0:\n"
        f"        regs[ex.rd] = {form.format(_fill(slots, value, operand))}\n"
        f"    return 0\n"
        for kind, (slots, value, form) in _VALUES.items()
    ) + "".join(
        f"def t{kind}(a, b):\n    return {condition.format(a='a', b='b')}\n"
        for kind, condition in _CONDITIONS.items()
    )
    namespace = {}
    exec(compile(source, f"<{__name__} handlers>", "exec"), {}, namespace)
    handlers = [namespace.get(f"h{kind}") for kind in range(NUM_KINDS)]
    taken = [namespace.get(f"t{kind}") for kind in range(NUM_KINDS)]
    return handlers, taken


HANDLERS, _TAKEN_IF = _generated_handlers()
HANDLERS[K_LW] = _h_lw
HANDLERS[K_SW] = _h_sw
HANDLERS[K_CIX] = _h_cix
HANDLERS[K_NOP] = lambda core, ex, regs: 0


# -- instrumented loop ------------------------------------------------------

def run_instrumented(core, max_instructions=None, max_cycles=None):
    """Pre-decoded loop that fires the core's probe hooks.

    Identical timing to ``Core._run_reference`` — same limit checks,
    same state update order — with the per-retire decode replaced by an
    :class:`ExecOp` slot lookup, the value-op ladder by the
    :data:`HANDLERS` table and the branch tests by ``_TAKEN_IF``.
    """
    decoded = core._ensure_decoded()
    ops = decoded.ops
    n = decoded.n
    regs = core.regs
    memory = core.memory
    fetch = memory.fetch
    penalty = core.taken_branch_penalty
    probe = core.probe
    # Per-instruction hooks are looked up once, and skipped entirely
    # for probes that leave them as no-ops.
    retire = probe.retire if overrides(probe, "retire") else None
    mem_access = probe.mem_access if overrides(probe, "mem_access") else None
    boundary = core._boundary
    start_instret = core.instret
    handlers = HANDLERS
    taken_if = _TAKEN_IF

    while not core.halted:
        if (max_instructions is not None
                and core.instret - start_instret >= max_instructions):
            return RunResult(STOP_LIMIT, core.cycles, core.instret)
        if max_cycles is not None and core.cycles >= max_cycles:
            return RunResult(STOP_LIMIT, core.cycles, core.instret)
        if core.cycles >= boundary:
            boundary = core._boundary = probe.boundary(core)
            if core.frozen:
                return RunResult(STOP_FROZEN, core.cycles, core.instret)
        pc = core.pc
        if not 0 <= pc < n:
            raise ExecutionError(core.core_id, core.program.name, pc)
        ex = ops[pc]
        kind = ex.kind

        cost = fetch(pc, ex.words) - (ex.words - 1)
        if cost != 1:
            core.stall_icache += cost - 1
            # A miss costs the DRAM latency (>= 1) over the all-hit
            # cost; a multi-cycle hit does not.
            if cost != ex.resident_cost:
                probe.cache_miss(core.core_id, "icache", pc, core.cycles)
        next_pc = pc + 1

        if kind < FIRST_CONTROL:
            if mem_access is not None and (kind == K_LW or kind == K_SW):
                mem_access(core, pc, (regs[ex.ra] + ex.imm) & _MASK32)
            cost += handlers[kind](core, ex, regs)
        elif kind <= K_BGEU:
            if taken_if[kind](regs[ex.ra], regs[ex.rb]):
                next_pc = ex.target
                cost += penalty
                core.stall_branch += penalty
        elif kind == K_JMP or kind == K_JAL:
            if kind == K_JAL:
                regs[15] = pc + 1
            next_pc = ex.target
            cost += penalty
            core.stall_branch += penalty
        elif kind == K_JR:
            next_pc = regs[ex.ra]
            cost += penalty
            core.stall_branch += penalty
        elif kind == K_HALT:
            core.halted = True
        elif kind == K_SEND:
            peer = regs[ex.ra]
            base = regs[ex.rb]
            count = regs[ex.rd]
            values = memory.dump(base, count)  # NIC DMA bypasses the cache
            start = core.cycles
            finish = core.comm.send(peer, values, start)
            core.cycles = finish
            core.stall_comm += finish - start - 1  # 1 = the issue slot
            probe.comm_send(core.core_id, peer, count, start, finish)
            if retire is not None:
                retire(core, pc, finish - start)
            core.pc = next_pc
            core.instret += 1
            continue
        elif kind == K_RECV:
            peer = regs[ex.ra]
            base = regs[ex.rb]
            count = regs[ex.rd]
            result = core.comm.try_recv(peer, count, core.cycles)
            if result is None:
                probe.comm_blocked(core.core_id, peer, count, core.cycles)
                return RunResult(STOP_RECV, core.cycles, core.instret)
            values, finish = result
            memory.load(base, values)  # NIC DMA bypasses the cache
            start = core.cycles
            core.cycles = finish
            core.stall_comm += finish - start - 1  # 1 = the issue slot
            probe.comm_recv(core.core_id, peer, count, start, finish)
            if retire is not None:
                retire(core, pc, finish - start)
            core.pc = next_pc
            core.instret += 1
            continue
        else:  # pragma: no cover - all kinds handled above
            raise NotImplementedError(f"kind {kind}")

        regs[0] = 0
        core.cycles += cost
        core.instret += 1
        core.pc = next_pc
        if retire is not None:
            retire(core, pc, cost)

    return RunResult(STOP_HALT, core.cycles, core.instret)


# -- the cold step ----------------------------------------------------------

def _cold_operand(slot, name):
    return f"t[{slot}]" if name == "i" else f"regs[t[{slot}]]"


_TAKEN = """\
stall_branch += penalty
cycles += cost + penalty
instret += 1
pc = {}
continue"""

_SPM_ACCESS = """\
addr = regs[t[4]] + t[5] & 4294967295
if spm_base <= addr < spm_end and not addr & 3:
    {spm}
    cost += spm_extra
    stall_memory += spm_stall
else:
    {checked}
    cost += mem_cycles - 1
    if mem_cycles > 1:
        stall_memory += mem_cycles - 1"""

#: The cold step's arms for kinds outside the two tables above.
_COLD_ARMS = {
    K_LW: _SPM_ACCESS.format(
        spm="value = spm_words[addr - spm_base >> 2]\n    spm_reads += 1",
        checked="value, mem_cycles = read(addr)",
    ) + "\nrd = t[3]\nif rd:\n    regs[rd] = value",
    K_SW: _SPM_ACCESS.format(
        spm="spm_words[addr - spm_base >> 2] = "
            + _WRAP.format("regs[t[3]]") + "\n    spm_writes += 1",
        checked="mem_cycles = write(addr, regs[t[3]])",
    ),
    K_CIX: "cix_retired += 1\n" + _CIX.format(
        outs="t[4]", call="execute(t[3], [regs[r] for r in t[5]])",
        regs="regs",
    ),
    K_NOP: "pass",
    K_JMP: _TAKEN.format("t[3]"),
    K_JAL: "regs[15] = pc + 1\n" + _TAKEN.format("t[3]"),
    K_JR: _TAKEN.format("regs[t[3]]"),
    K_HALT: """\
core.halted = True
cycles += cost
instret += 1
pc += 1
return RunResult(STOP_HALT, cycles, instret)""",
    K_SEND: """\
values = memory.dump(regs[t[5]], regs[t[3]])  # NIC DMA, cache bypass
finish = comm.send(regs[t[4]], values, cycles)
stall_comm += finish - cycles - 1  # 1 = the issue slot
cycles = finish
instret += 1
pc += 1
continue""",
    K_RECV: """\
result = comm.try_recv(regs[t[4]], regs[t[3]], cycles)
if result is None:
    return RunResult(STOP_RECV, cycles, instret)
values, finish = result
memory.load(regs[t[5]], values)  # NIC DMA, cache bypass
stall_comm += finish - cycles - 1  # 1 = the issue slot
cycles = finish
instret += 1
pc += 1
continue""",
}

#: Ladder order: dynamic frequency over the kernel suite.
_LADDER_ORDER = (
    K_ADDI, K_LW, K_ADD, K_SW, K_BNE, K_CIX, K_MOVI, K_BEQ, K_BLT, K_BGE,
    K_MUL, K_SLLI, K_SRLI, K_SRAI, K_SUB, K_MOV, K_AND, K_OR, K_XOR,
    K_SLT, K_SLTU, K_SEQ, K_ANDI, K_ORI, K_XORI, K_SLTI, K_SLL, K_SRL,
    K_SRA, K_MULH, K_BLTU, K_BGEU, K_JMP, K_JAL, K_JR, K_HALT, K_NOP,
    K_SEND, K_RECV,
)


def _cold_arm(kind):
    if kind in _VALUES:
        slots, value, form = _VALUES[kind]
        return ("rd = t[3]\nif rd:\n    regs[rd] = "
                + form.format(_fill(slots, value, _cold_operand)))
    if kind in _CONDITIONS:
        condition = _fill(_BRANCH, _CONDITIONS[kind], _cold_operand)
        return f"if {condition}:\n" + textwrap.indent(
            _TAKEN.format("t[5]"), "    ")
    return _COLD_ARMS[kind]


def _ladder():
    """The cold step's dispatch ladder, one ``if``/``elif`` arm per kind."""
    arms = [
        f"elif kind == {kind}:\n" + textwrap.indent(_cold_arm(kind), "    ")
        for kind in _LADDER_ORDER
    ]
    arms.append("else:  # pragma: no cover - all kinds handled above\n"
                "    raise NotImplementedError(f\"kind {kind}\")")
    return "\n".join(arms)[2:]  # the first arm is the ``if``


# A translated block returns the index of its exit; each exit is one
# constant tuple of deltas: (next pc, cycles, instret, branch, icache
# and memory stalls, I-cache hit words, SPM reads and writes, cix).
_APPLY = """\
pc, dc, di, db, dic, dm, dh, dr, dw, dx = {}
cycles += dc
instret += di
stall_branch += db
stall_icache += dic
stall_memory += dm
hit_words += dh
spm_reads += dr
spm_writes += dw
cix_retired += dx"""

_RUN_FAST = '''\
def run_fast(core, max_instructions=None, max_cycles=None):
    """Hook-free block engine: translated blocks, then a cold step.

    Fires no probe hook (``Core`` refuses ``engine="fast"`` for a probe
    that observes the core).  Produces bit-identical architectural
    state, cycles, stall attribution and cache/SPM counters to the
    reference interpreter; the differential suites in ``tests/cpu``
    and ``tests/property`` hold it to that.
    """
    if core.halted:
        return RunResult(STOP_HALT, core.cycles, core.instret)
    decoded = core._ensure_decoded()
    code = decoded.code
    n = decoded.n
    flags = core._resident
    mark = decoded.resident_ok
    visits = core._visits
    blocks = core._blocks
    regs = core.regs
    memory = core.memory
    fetch = memory.fetch
    read = memory.read
    write = memory.write
    comm = core.comm
    execute = _cix_entry(core)
    penalty = core.taken_branch_penalty

    spm = getattr(memory, "spm", None)
    if spm is not None:
        spm_words, spm_base, spm_end, spm_latency = spm.window()
    else:  # empty window: the test always fails
        spm_words, spm_base, spm_end, spm_latency = None, 1, 0, 1
    spm_extra = spm_latency - 1
    spm_stall = max(spm_extra, 0)
    shape = (penalty, spm_extra, spm_base, spm_end)

    pc = core.pc
    cycles = core.cycles
    instret = core.instret
    stall_memory = core.stall_memory
    stall_icache = core.stall_icache
    stall_branch = core.stall_branch
    stall_comm = core.stall_comm
    # Deferred counter deltas, flushed once on exit.
    hit_words = 0
    spm_reads = 0
    spm_writes = 0
    cix_retired = 0

    stop_instret = (math.inf if max_instructions is None
                    else instret + max_instructions)
    stop_cycles = math.inf if max_cycles is None else max_cycles
    # A block runs only if it ends by the instruction limit; a cycle
    # limit runs everything on the cold step.
    block_stop = stop_instret if max_cycles is None else -1
    entry = None

    try:
        while True:
            if instret >= stop_instret or cycles >= stop_cycles:
                return RunResult(STOP_LIMIT, cycles, instret)
            if not 0 <= pc < n:
                raise ExecutionError(core.core_id, core.program.name, pc)
            entry = blocks[pc]
            if entry is not None:
                if instret + entry[1] <= block_stop:
{apply_block}
                    if di:
                        continue
                    # A memory access outside the SPM window at the
                    # block's first instruction: step it cold.
            elif visits[pc]:
                visits[pc] -= 1
                if not visits[pc]:
                    entry = _translate(code, flags, visits, pc, shape)
                    if entry is not None:
                        blocks[pc] = entry
                        continue

            t = code[pc]
            if flags[pc]:
                cost = t[1]
                hit_words += t[2]
            else:
                words = t[2]
                cost = fetch(pc, words) - words + 1
                if mark:
                    flags[pc] = 1
            if cost != 1:
                stall_icache += cost - 1
            kind = t[0]
{ladder}
            cycles += cost
            instret += 1
            pc += 1
    except BaseException as exc:
        fault = _fault_exit(entry, exc)
        if fault is not None:
{apply_fault}
        raise
    finally:
        # Idempotent write-back: limit stops, blocking receives and
        # exceptions leave the core where the reference would.
        core.pc = pc
        core.cycles = cycles
        core.instret = instret
        core.stall_memory = stall_memory
        core.stall_icache = stall_icache
        core.stall_branch = stall_branch
        core.stall_comm = stall_comm
        if cix_retired:
            core.cix_retired += cix_retired
        if hit_words:
            memory.icache.hits += hit_words
        if spm_reads:
            spm.reads += spm_reads
        if spm_writes:
            spm.writes += spm_writes
'''


def _cix_entry(core):
    """The slice's ``cix`` target: the patch's ``execute``, looked up once."""
    if core.patch is None:  # every cix raises the reference's BlockedError
        return lambda cfg_id, in_values: core._execute_cix(None)
    return core.patch.execute


def _build_run_fast():
    source = _RUN_FAST.format(
        apply_block=textwrap.indent(
            _APPLY.format("entry[2][entry[0](regs, spm_words, execute)]"),
            " " * 20),
        apply_fault=textwrap.indent(_APPLY.format("fault"), " " * 12),
        ladder=textwrap.indent(_ladder(), " " * 12),
    )
    filename = f"<{__name__}.run_fast>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace["run_fast"]


# -- block translation ------------------------------------------------------

#: Shortest and longest block translated, in instructions.  A block's
#: call and exit cost about two cold steps, so a shorter one gains
#: nothing for its compile.
_MIN_BLOCK = 3
_MAX_BLOCK = 64

#: Kinds a block stops before: they end a slice or leave for an
#: unknown pc, so the cold step runs them.
_COLD_ONLY = frozenset({K_JR, K_HALT, K_SEND, K_RECV})

#: Live translations, keyed by everything their code depends on.  Each
#: core's block table holds its translations strongly, so tiles running
#: identical blocks share one and none outlives its last core.
_TRANSLATIONS = weakref.WeakValueDictionary()

def _translate(code, flags, visits, pc, shape):
    """``(block, length, exits)`` for the block entered at ``pc``, or None.

    The block runs up to its closing branch or jump, stopping before
    any :data:`_COLD_ONLY` kind.  A block with a line this core has not
    fetched yet retries on the next visit; a short one never does.
    """
    end = pc
    limit = min(len(code), pc + _MAX_BLOCK)
    while end < limit:
        kind = code[end][0]
        if kind in _COLD_ONLY:
            break
        if not flags[end]:
            visits[pc] = 1
            return None
        end += 1
        if kind >= FIRST_CONTROL:
            break
    if end - pc < _MIN_BLOCK:
        return None
    body = tuple(code[pc:end])
    key = (pc, body) + shape
    block = _TRANSLATIONS.get(key)
    if block is None:
        block = _TRANSLATIONS[key] = _generate(pc, body, *shape)
    return block, end - pc, block.exits


def _generate(start, body, penalty, spm_extra, spm_base, spm_end):
    """Compile one block to ``block(r, w, x) -> exit index``.

    ``r`` is the register list, ``w`` the SPM's backing words and ``x``
    the patch's ``execute``.  Registers, immediates and the SPM window
    are inlined; ``block.exits`` holds the exits' deltas.  A load or
    store outside the window exits before the access, so the cold step
    runs it.  ``block.faults`` maps the line of each ``cix`` call to the
    exit that leaves the reference state when that ``cix`` raises.
    """
    size = spm_end - spm_base
    if size & (size - 1) or spm_base & 3:
        outside = f"(i + {spm_base & 3}) & 3 or not 0 <= i < {size}"
    else:  # one mask test: unaligned, below or past the window
        outside = f"i & {~(size - 4)}"
    spm_stall = max(spm_extra, 0)
    lines, exits, faults = [], [], {}
    cycles = icache = memory = hits = reads = writes = cixes = 0

    def leave(next_pc, instret, taken=0):
        exits.append((next_pc, cycles + taken, instret, taken, icache,
                      memory, hits, reads, writes, cixes))
        return len(exits) - 1

    def reg(index):
        return f"r[{index}]" if index else "0"  # r0 reads as zero

    def operand(slot, name):
        return repr(t[slot]) if name == "i" else reg(t[slot])

    for offset, t in enumerate(body):
        pc = start + offset
        kind = t[0]
        if kind == K_LW or kind == K_SW:
            lines.append(f"i = {operand(4, 'a')} + {t[5] - spm_base}")
            lines.append(f"if {outside}:")
            lines.append(f"    return {leave(pc, offset)}")
        cost = t[1]
        icache += cost - 1
        hits += t[2]
        if kind in _VALUES:
            if t[3]:
                slots, value, form = _VALUES[kind]
                lines.append(f"r[{t[3]}] = "
                             + form.format(_fill(slots, value, operand)))
        elif kind == K_LW:
            if t[3]:
                lines.append(f"r[{t[3]}] = w[i >> 2]")
            reads += 1
            cost += spm_extra
            memory += spm_stall
        elif kind == K_SW:
            lines.append("w[i >> 2] = " + _WRAP.format(operand(3, "a")))
            writes += 1
            cost += spm_extra
            memory += spm_stall
        elif kind == K_CIX:
            cixes += 1
            # Line numbers count from 1, and line 1 is the ``def``.
            faults[len(lines) + 2] = exits[leave(pc, offset)]
            ins = ", ".join(reg(index) for index in t[5])
            lines.extend(_CIX.format(
                outs=repr(t[4]), call=f"x({t[3]!r}, [{ins}])", regs="r",
            ).splitlines())
        cycles += cost
        instret = offset + 1
        if kind in _CONDITIONS:
            condition = _fill(_BRANCH, _CONDITIONS[kind], operand)
            lines.append(f"if {condition}:")
            lines.append(f"    return {leave(t[5], instret, penalty)}")
            lines.append(f"return {leave(pc + 1, instret)}")
        elif kind == K_JMP or kind == K_JAL:
            if kind == K_JAL:
                lines.append(f"r[15] = {pc + 1}")
            lines.append(f"return {leave(t[3], instret, penalty)}")
    if body[-1][0] < FIRST_CONTROL:
        lines.append(f"return {leave(start + len(body), len(body))}")
    source = "def block(r, w, x):\n" + "".join(f"    {line}\n" for line in lines)
    namespace = {}
    exec(compile(source, f"<block at pc {start}>", "exec"), {}, namespace)
    block = namespace["block"]
    block.exits = tuple(exits)
    block.faults = faults
    return block


def _fault_exit(entry, exc):
    """The exit of the block ``entry`` at the ``cix`` that raised ``exc``.

    ``None`` when ``exc`` did not come out of that block's ``cix`` (the
    cold step raised it, or no block was entered).
    """
    tb = exc.__traceback__
    while entry is not None and tb is not None:
        if tb.tb_frame.f_code is entry[0].__code__:
            return entry[0].faults.get(tb.tb_lineno)
        tb = tb.tb_next
    return None


run_fast = _build_run_fast()
