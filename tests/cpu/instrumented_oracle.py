"""The instrumented loop the hooked block engine replaced: an oracle.

``run_instrumented`` dispatched each pre-decoded :class:`ExecOp`
through a handler table and was the one loop that fired the core's
probe hooks.  It is kept here verbatim, with its handlers and the
``ExecOp`` decode; only the imports changed, its ops now come from
:func:`exec_ops` because ``DecodedProgram`` no longer carries them, and
its ``comm_send``/``comm_recv``/``comm_blocked`` calls are gone because
the fabric fires the comm hooks.
``test_hook_streams.py`` holds :func:`repro.cpu.engine.run_hooked` to
the hook calls, arguments and final state this loop produced.
"""

from repro.cpu.core import (
    ExecutionError,
    RunResult,
    STOP_FROZEN,
    STOP_HALT,
    STOP_LIMIT,
    STOP_RECV,
)
from repro.isa.decoded import (
    CONDITIONS as _CONDITIONS,
    OP_KIND as _OP_KIND,
    VALUES as _VALUES,
    fill as _fill,
    FIRST_CONTROL,
    K_BGEU,
    K_CIX,
    K_HALT,
    K_JAL,
    K_JMP,
    K_JR,
    K_LW,
    K_NOP,
    K_RECV,
    K_SEND,
    K_SLLI,
    K_SRAI,
    K_SRLI,
    K_SW,
    NUM_KINDS,
)
from repro.isa.instructions import wrap32
from repro.probe import overrides

_MASK32 = 0xFFFFFFFF

_SHIFT_IMM_KINDS = frozenset({K_SLLI, K_SRLI, K_SRAI})


class ExecOp:
    """One pre-decoded execution slot (rich form).

    Carries everything a loop or an analysis pass might want about the
    instruction at ``pc`` without touching the enum or re-deriving
    metadata: the dispatch ``kind``, the original :class:`Instruction`
    fields (with immediates already folded to base-op semantics), the
    encoded word count, the block-leader flag and the fetch cost the
    slot charges when its code lines are I-cache resident.
    """

    __slots__ = ("pc", "kind", "op", "rd", "ra", "rb", "imm", "target",
                 "cfg", "outs", "ins", "words", "is_leader",
                 "resident_cost")

    def __init__(self, pc, kind, instr, is_leader, resident_cost):
        self.pc = pc
        self.kind = kind
        self.op = instr.op
        self.rd = instr.rd
        self.ra = instr.ra
        self.rb = instr.rb
        imm = instr.imm
        if kind in _SHIFT_IMM_KINDS and imm is not None:
            imm = imm & 31
        self.imm = imm
        self.target = instr.target
        self.cfg = instr.cfg
        self.outs = tuple(instr.outs) if instr.outs is not None else None
        self.ins = tuple(instr.ins) if instr.ins is not None else None
        self.words = instr.words
        self.is_leader = is_leader
        self.resident_cost = resident_cost

    def __repr__(self):
        return f"ExecOp(pc={self.pc}, kind={self.kind}, {self.op.value})"


def exec_ops(core, decoded):
    """The :class:`ExecOp` slots of ``core``'s program, memoized on it
    like its decode."""
    cache = core.program.__dict__.setdefault("_exec_ops", {})
    ops = cache.get(decoded.key)
    if ops is None:
        ops = cache[decoded.key] = [
            ExecOp(pc, _OP_KIND[instr.op], instr, decoded.leaders[pc], t[1])
            for pc, (instr, t) in enumerate(zip(core.program.instructions,
                                                decoded.code))
        ]
    return ops


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
    ops = exec_ops(core, decoded)
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
                return RunResult(STOP_RECV, core.cycles, core.instret)
            values, finish = result
            memory.load(base, values)  # NIC DMA bypasses the cache
            start = core.cycles
            core.cycles = finish
            core.stall_comm += finish - start - 1  # 1 = the issue slot
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

