"""The block engine over pre-decoded programs, in two instantiations.

One generated loop runs every engine but ``reference`` (the hook-free
``Core._run_reference``).  It is generated twice from one template
(:data:`_RUN_FAST`) and one block translator (:func:`_generate`), and
takes each op's semantics from the per-kind source templates of
:mod:`repro.isa.decoded` (``VALUES``, ``CONDITIONS``), which the patch
executor also instantiates, so each op is defined once:

* :func:`run_fast` — engine ``fast``, selected when the probe does not
  observe the core.  It fires no hook.
* :func:`run_hooked` — engine ``instrumented``, selected when it does.
  The template's lines tagged ``# hooked`` exist only here.  They fire
  the core's probe hooks (:mod:`repro.probe`) where the reference
  interpreter's timing puts them, with its arguments: ``boundary``
  before the first instruction whose start cycle reaches
  ``core._boundary``; ``cix`` before each custom instruction, also
  from inside translated blocks; ``cache_miss`` from the cold step;
  and — only when the probe overrides them, which turns translation
  off — the per-instruction ``retire`` and ``mem_access`` hooks.  The
  core's counters are written back before ``boundary`` and before the
  fabric is entered, whose hooks (a send's, a receive's or a blocked
  receive's) read them.

Both keep architectural and timing state in locals.  On the third
visit to a block entry (a leader, or the pc after a ``send``/``recv``)
whose lines are all resident on the core, the engine translates the
block up to its closing branch or jump into one Python function:
registers, immediates and aligned SPM-window loads and stores inlined,
every 32-bit result wrapped through :data:`repro.isa.decoded.WRAP`,
which returns an in-range value as it is, each ``cix`` one call of the
patch's ``execute`` (a dispatch to the configuration's generated
function, which counts itself) whose results are written back in
straight-line code (one store per nonzero out register, guarded by the
result's length, each wrapped), each exit one constant tuple of deltas
(next pc, cycles, instret, stall buckets, I-cache hit words, SPM reads
and writes, ``cix`` count).  A block whose closing branch or ``jmp``
targets its own start is a loop block: one call runs its trips in a
``while`` loop, up to a trip budget ``m`` — the passes past the first
that still end by the instruction limit (hooked: and by the boundary
cycle) — and returns its exit with the trips taken, so the engine adds
the exit's deltas plus trips times the back edge's.
Everything else runs on the cold step, a frequency-ordered ladder over
dense integer kinds: first visits, blocks under three instructions,
``send``/``recv``/``jr``/``halt``, a block that would cross the
instruction limit (or, hooked, the boundary cycle), any cycle limit,
accesses outside the SPM window, and tiles whose code may be evicted or
that have no scratchpad.  The cold step keeps two memoized paths:

- **resident-line fetch**: when the program's code footprint fits the
  I-cache outright (``DecodedProgram.resident_ok``), a per-PC flag
  marks slots whose lines have been fetched once; marked slots charge
  the pre-computed all-hit cost without touching the cache model, and
  can never miss.  Hit counters are accumulated locally and flushed on
  exit, so cache statistics stay bit-identical to the reference.
- **SPM direct access**: aligned loads/stores inside the scratchpad
  window index the backing word list directly; anything else falls
  back to ``MemorySystem.read``/``write`` (same errors, same timing).

A block's code is shared by its source text: the generated function
comes from :func:`repro.isa.decoded.compiled`, the code cache the patch
executor's configurations share, so every pc, core, tile and compile
that generates the same source runs one function, hooked sources apart.
What differs between pcs, the exits and the fault map, stays in the
core's pc-indexed block table; :func:`_generate` is itself cached by
block, start pc and timing, so each block is generated once per process
however many cores and builds translate it.  A function captures no
core, memory, probe or patch: the slice passes in the register list,
the SPM words, the patch's ``execute``, hooked the tile's ``cix`` hook
and the entry cycle, and to a loop block its trip budget.

The loops are resumable and idempotent: they sync their locals back to
the core in a ``finally`` block, so limit stops, blocking receives and
even exceptions — a ``cix`` or its hook raising inside a block, on any
trip of a loop block, included — leave the core in exactly the state
the reference interpreter would.
"""

import functools
import linecache
import math  # noqa: F401 (used by the generated loops)
import textwrap
from functools import partial  # noqa: F401 (used by run_hooked)

from repro.cpu.core import (
    ExecutionError,
    RunResult,
    STOP_FROZEN,
    STOP_HALT,
    STOP_LIMIT,
    STOP_RECV,
)
from repro.isa.decoded import (
    BRANCH,
    CODE_CACHE_SIZE,
    CONDITIONS,
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
    VALUES,
    WRAP,
    compiled,
    fill,
    value_source,
    window_test,
)
from repro.probe import overrides  # noqa: F401 (used by run_hooked)


# -- the cold step ----------------------------------------------------------
#
# A line ending in ``# hooked`` exists only in :func:`run_hooked`.

_HOOKED = "  # hooked"


def _cold_operand(slot, name):
    return f"t[{slot}]" if name == "i" else f"regs[t[{slot}]]"


_TAKEN = """\
stall_branch += penalty
cycles += cost + penalty
instret += 1
if retire is not None:  # hooked
    retire(core, pc, cost + penalty)  # hooked
pc = {}
continue"""

_SPM_ACCESS = """\
addr = regs[t[4]] + t[5] & 4294967295
if mem_access is not None:  # hooked
    mem_access(core, pc, addr)  # hooked
if spm_base <= addr < spm_end and not addr & 3:
    {spm}
    cost += spm_extra
    stall_memory += spm_stall
else:
    misses = memory.dcache.misses  # hooked
    {checked}
    cost += mem_cycles - 1
    if mem_cycles > 1:
        stall_memory += mem_cycles - 1
        if memory.dcache.misses != misses:  # hooked
            probe.cache_miss(tile, "dcache", addr, cycles)  # hooked"""

#: Every local and deferred counter written back to the core.
_WRITE_BACK = """\
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
    spm.writes += spm_writes"""

#: The hooked write-back before a hook that may read the core's
#: counters (``boundary``, and the fabric's inside a send or receive).
_SYNC = "\n".join(
    line + _HOOKED for line in (
        _WRITE_BACK + "\nhit_words = spm_reads = spm_writes = cix_retired = 0"
    ).splitlines()
)

#: The cold step's arms for kinds outside the two tables above.
_COLD_ARMS = {
    K_LW: _SPM_ACCESS.format(
        spm="value = spm_words[addr - spm_base >> 2]\n    spm_reads += 1",
        checked="value, mem_cycles = read(addr)",
    ) + "\nrd = t[3]\nif rd:\n    regs[rd] = value",
    K_SW: _SPM_ACCESS.format(
        spm="spm_words[addr - spm_base >> 2] = "
            + WRAP.format("regs[t[3]]") + "\n    spm_writes += 1",
        checked="mem_cycles = write(addr, regs[t[3]])",
    ),
    # ``zip`` keeps the reference's truncation when the patch returns
    # fewer values than registers.
    K_CIX: "cix_retired += 1\non_cix(t[3], cycles)" + _HOOKED + """
for k, v in zip(t[4], execute(t[3], [regs[r] for r in t[5]])):
    if k:
        regs[k] = """ + WRAP.format("v"),
    K_NOP: "pass",
    K_JMP: _TAKEN.format("t[3]"),
    K_JAL: "regs[15] = pc + 1\n" + _TAKEN.format("t[3]"),
    K_JR: _TAKEN.format("regs[t[3]]"),
    K_HALT: """\
core.halted = True
cycles += cost
instret += 1
if retire is not None:  # hooked
    retire(core, pc, cost)  # hooked
pc += 1
return RunResult(STOP_HALT, cycles, instret)""",
    K_SEND: """\
values = memory.dump(regs[t[5]], regs[t[3]])  # NIC DMA, cache bypass
""" + _SYNC + """
finish = comm.send(regs[t[4]], values, cycles)
if retire is not None:  # hooked
    retire(core, pc, finish - cycles)  # hooked
stall_comm += finish - cycles - 1  # 1 = the issue slot
cycles = finish
instret += 1
pc += 1
continue""",
    K_RECV: _SYNC + """
result = comm.try_recv(regs[t[4]], regs[t[3]], cycles)
if result is None:
    return RunResult(STOP_RECV, cycles, instret)
values, finish = result
memory.load(regs[t[5]], values)  # NIC DMA, cache bypass
if retire is not None:  # hooked
    retire(core, pc, finish - cycles)  # hooked
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
    if kind in VALUES:
        return ("rd = t[3]\nif rd:\n    regs[rd] = "
                + value_source(kind, _cold_operand))
    if kind in CONDITIONS:
        condition = fill(BRANCH, CONDITIONS[kind], _cold_operand)
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


# A translated block returns the index of its exit (a loop block also
# its trips); each exit is one constant tuple of deltas: (next pc,
# cycles, instret, branch, icache and memory stalls, I-cache hit words,
# SPM reads and writes, cix).
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

#: The instruction limit of a slice given none: an int, so a loop
#: block's trip budget is one.
_UNLIMITED = 1 << 62

_RUN_FAST = '''\
def {name}(core, max_instructions=None, max_cycles=None):
    """{doc}
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
    probe = core.probe  # hooked
    tile = core.core_id  # hooked
    boundary = core._boundary  # hooked
    on_cix = partial(probe.cix, tile)  # hooked
    retire = probe.retire if overrides(probe, "retire") else None  # hooked
    mem_access = (probe.mem_access  # hooked
                  if overrides(probe, "mem_access") else None)  # hooked

    spm = getattr(memory, "spm", None)
    if spm is not None:
        spm_words, spm_base, spm_end, spm_latency = spm.window()
    else:  # empty window: the test always fails
        spm_words, spm_base, spm_end, spm_latency = None, 1, 0, 1
    spm_extra = spm_latency - 1
    spm_stall = max(spm_extra, 0)
    shape = (penalty, spm_extra, spm_base, spm_end)
    shape += (True,)  # hooked translations are keyed apart  # hooked

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

    stop_instret = (_UNLIMITED if max_instructions is None
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
            if cycles >= boundary:  # hooked
{sync}
                boundary = core._boundary = probe.boundary(core)  # hooked
                cycles = core.cycles  # an ECC scrub charges cycles  # hooked
                if core.frozen:  # hooked
                    return RunResult(STOP_FROZEN, cycles, instret)  # hooked
            if not 0 <= pc < n:
                raise ExecutionError(core.core_id, core.program.name, pc)
            entry = blocks[pc]
            if entry is not None:
                if instret + entry[1] <= block_stop{gate}:
                    trip = entry[5]
                    if trip is None:
                        deltas = entry[2][
                            entry[0](regs, spm_words, execute{hook_args})]
                    else:
                        # A self-loop: trips past the first pass while
                        # each pass ends by the limit (and the boundary).
                        m = (block_stop - instret) // entry[1] - 1
                        if boundary != math.inf:  # hooked
                            m = min(m, (boundary - cycles - entry[3])  # hooked
                                    // trip[1])  # hooked
                        index, trips = entry[0](regs, spm_words,
                                                execute{hook_args}, m)
                        deltas = entry[2][index]
                        if trips:
{apply_trips}
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
                if cost != t[1]:  # a miss, not a multi-cycle hit  # hooked
                    probe.cache_miss(tile, "icache", pc, cycles)  # hooked
            if cost != 1:
                stall_icache += cost - 1
            kind = t[0]
{ladder}
            cycles += cost
            instret += 1
            if retire is not None:  # hooked
                retire(core, pc, cost)  # hooked
            pc += 1
    except BaseException as exc:
        fault = _fault_exit(entry, exc)
        if fault is not None:
{apply_fault}
        raise
    finally:
        # Idempotent write-back: limit stops, blocking receives and
        # exceptions leave the core where the reference would.
{write_back}
'''

#: The hooked engine enters a block only if none of its instructions
#: starts at or past the boundary cycle.
_HOOKED_GATE = " and cycles + entry[3] <= boundary"


def _cix_entry(core):
    """The slice's ``cix`` target: the patch's ``execute``, looked up once."""
    if core.patch is None:  # every cix raises the reference's BlockedError
        return lambda cfg_id, in_values: core._execute_cix(None)
    return core.patch.execute


def _build(name, doc, hooked=False):
    """Generate one instantiation of :data:`_RUN_FAST`."""
    source = _RUN_FAST.format(
        name=name,
        doc=doc,
        sync=textwrap.indent(_SYNC, " " * 16),
        gate=_HOOKED_GATE if hooked else "",
        hook_args=", on_cix, cycles" if hooked else "",
        # Each trip adds the taken back edge's deltas.
        apply_trips=textwrap.indent(
            _APPLY.format("trip").replace("+= d", "+= trips * d"), " " * 28),
        apply_block=textwrap.indent(_APPLY.format("deltas"), " " * 20),
        ladder=textwrap.indent(_ladder(), " " * 12),
        apply_fault=textwrap.indent(_APPLY.format("fault"), " " * 12),
        write_back=textwrap.indent(_WRITE_BACK, " " * 8),
    )
    if not hooked:
        source = "".join(line for line in source.splitlines(True)
                         if not line.endswith(_HOOKED + "\n"))
    filename = f"<{__name__}.{name}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace[name]


# -- block translation ------------------------------------------------------

#: Shortest and longest block translated, in instructions.  A block's
#: call and exit cost about two cold steps, so a shorter one gains
#: nothing for its compile.
_MIN_BLOCK = 3
_MAX_BLOCK = 64

#: Kinds a block stops before: they end a slice or leave for an
#: unknown pc, so the cold step runs them.
_COLD_ONLY = frozenset({K_JR, K_HALT, K_SEND, K_RECV})


def _translate(code, flags, visits, pc, shape):
    """``(block, length, exits, cycles, faults, loop)`` for the block
    entered at ``pc``, or None; ``cycles`` is its longest exit's.

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
    block, exits, faults, loop = _generate(pc, tuple(code[pc:end]), *shape)
    return (block, end - pc, exits, max(deltas[1] for deltas in exits),
            faults, loop)


@functools.lru_cache(maxsize=CODE_CACHE_SIZE)
def _generate(start, body, penalty, spm_extra, spm_base, spm_end,
              hooked=False):
    """``(block, exits, faults, loop)``: one block compiled to ``block(r,
    w, x) -> exit index``, its exits' deltas, its fault map, and the
    deltas of one trip of a loop block (None for any other block).

    ``r`` is the register list, ``w`` the SPM's backing words and ``x``
    the patch's ``execute``, which dispatches each ``cix`` to its
    configuration's function.  Registers, immediates and the SPM window
    are inlined.  A load or store outside the window exits before the
    access, so the cold step runs it.  A ``hooked`` block is ``block(r,
    w, x, h, c)``: it calls ``h(cfg, cycle)``, the tile's ``cix`` hook,
    before each ``cix``, with ``c`` the cycle it was entered at.
    ``faults`` maps the line of each ``cix`` call, and of its hook's, to
    the index of the exit that leaves the reference state when that
    line raises.  A ``cix``'s results are written back in straight-line
    code: one store per nonzero out register, guarded by the result's
    length as ``zip`` truncates.

    A block whose closing branch or ``jmp`` targets its own start is a
    loop block, ``block(r, w, x, m)`` (hooked ``block(r, w, x, h, c,
    m)``) ``-> (exit index, trips)``.  It runs its body in a ``while``
    loop, taking the back edge at most ``m`` times, the trip budget, and
    returns the exit of its last pass with ``k``, the trips before it;
    ``loop`` is the back edge's exit, so the block's deltas are its
    exit's plus ``k`` times ``loop``'s; hooked, ``c`` advances by a
    trip's cycles on each trip.  A raising ``cix`` leaves its ``k`` in
    the block's frame.

    ``block`` comes from the shared code cache, so it serves every pc
    that generates the same source; ``exits`` holds the pcs and the
    timing (the penalty and the SPM latency appear only there).  The
    whole result is cached by the arguments, ``body`` a tuple of code
    tuples, so every core and build translating the block at ``start``
    generates it once per process and shares it: no caller may change
    ``faults``.
    """
    outside = window_test(spm_base, spm_end)
    spm_stall = max(spm_extra, 0)
    last = body[-1]
    loops = (last[0] in CONDITIONS and last[5] == start
             or last[0] == K_JMP and last[3] == start)
    done = "return {}, k" if loops else "return {}"
    head = ["k = 0", "while True:"] if loops else []
    # Line numbers count from 1: line 1 is the ``def``, then the head.
    first_line = 2 + len(head)
    lines, exits, faults = [], [], {}
    cycles = icache = memory = hits = reads = writes = cixes = 0

    def leave(next_pc, instret, taken=0):
        exits.append((next_pc, cycles + taken, instret, taken, icache,
                      memory, hits, reads, writes, cixes))
        return len(exits) - 1

    def again(index):
        """The back edge to exit ``index``: another pass while the
        budget lasts."""
        edge = ["if k >= m:", f"    return {index}, k", "k += 1"]
        if hooked:
            edge.append(f"c += {exits[index][1]}")
        return edge + ["continue"]

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
            lines.append("    " + done.format(leave(pc, offset)))
        cost = t[1]
        icache += cost - 1
        hits += t[2]
        if kind in VALUES:
            if t[3]:
                lines.append(f"r[{t[3]}] = " + value_source(kind, operand))
        elif kind == K_LW:
            if t[3]:
                lines.append(f"r[{t[3]}] = w[i >> 2]")
            reads += 1
            cost += spm_extra
            memory += spm_stall
        elif kind == K_SW:
            lines.append("w[i >> 2] = " + WRAP.format(operand(3, "a")))
            writes += 1
            cost += spm_extra
            memory += spm_stall
        elif kind == K_CIX:
            cixes += 1
            fault = leave(pc, offset)
            if hooked:
                faults[first_line + len(lines)] = fault
                lines.append(f"h({t[3]!r}, c + {cycles})")
            faults[first_line + len(lines)] = fault
            ins = ", ".join(reg(index) for index in t[5])
            lines.append(f"v = x({t[3]!r}, [{ins}])")
            for position, out in enumerate(t[4]):
                if out:
                    lines.append(f"if len(v) > {position}:" if position
                                 else "if v:")
                    lines.append(f"    r[{out}] = "
                                 + WRAP.format(f"v[{position}]"))
        cycles += cost
        instret = offset + 1
        if kind in CONDITIONS:
            condition = fill(BRANCH, CONDITIONS[kind], operand)
            lines.append(f"if {condition}:")
            taken = leave(t[5], instret, penalty)
            edge = again(taken) if loops else [f"return {taken}"]
            lines.extend("    " + line for line in edge)
            lines.append(done.format(leave(pc + 1, instret)))
        elif kind == K_JMP or kind == K_JAL:
            if kind == K_JAL:
                lines.append(f"r[15] = {pc + 1}")
            taken = leave(t[3], instret, penalty)
            lines.extend(again(taken) if loops else [f"return {taken}"])
    if last[0] < FIRST_CONTROL:
        lines.append(f"return {leave(start + len(body), len(body))}")
    params = "r, w, x, h, c" if hooked else "r, w, x"
    if loops:
        params += ", m"
        lines = head + ["    " + line for line in lines]
    source = (f"def block({params}):\n"
              + "".join(f"    {line}\n" for line in lines))
    return (compiled(source, "<translated block>"), tuple(exits), faults,
            exits[taken] if loops else None)


def _fault_exit(entry, exc):
    """The deltas of the block ``entry`` at the ``cix`` that raised
    ``exc``: that ``cix``'s exit, plus, in a loop block, the trips
    before its pass (``k`` in the frame that raised) times the back
    edge's.

    ``None`` when ``exc`` did not come out of that block's ``cix`` or
    its hook (the cold step raised it, or no block was entered).
    """
    tb = exc.__traceback__
    while entry is not None and tb is not None:
        if tb.tb_frame.f_code is entry[0].__code__:
            index = entry[4].get(tb.tb_lineno)
            if index is None:
                return None
            deltas, trip = entry[2][index], entry[5]
            if trip is None:
                return deltas
            trips = tb.tb_frame.f_locals["k"]
            return (deltas[0],) + tuple(
                delta + trips * step for delta, step in zip(deltas[1:],
                                                            trip[1:]))
        tb = tb.tb_next
    return None


run_fast = _build("run_fast", """\
Hook-free block engine: translated blocks, then a cold step.

    Fires no probe hook (``Core`` refuses ``engine="fast"`` for a probe
    that observes the core).  Produces bit-identical architectural
    state, cycles, stall attribution and cache/SPM counters to the
    reference interpreter; the differential suites in ``tests/cpu``
    and ``tests/property`` hold it to that.""")

run_hooked = _build("run_hooked", """\
The block engine with the core's probe hooks (engine ``instrumented``).

    :func:`run_fast` plus the template's ``# hooked`` lines.  Produces
    the reference interpreter's state, and fires each core hook where
    the instrumented loop it replaced did, with its arguments;
    ``tests/cpu/test_hook_streams.py`` holds it to that.""", hooked=True)
