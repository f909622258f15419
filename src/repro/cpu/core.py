"""Interpreter + cycle model for the in-order core.

Timing model (validated against the paper's counts in Figure 4):

* every instruction issues in 1 cycle, including the two-word ``movi``
  and ``cix`` encodings (the second word is fetched in parallel);
* loads/stores add the memory system's latency beyond the first cycle;
* taken branches pay a 1-cycle redirect bubble;
* instruction-cache misses stall the front end for the DRAM latency;
* ``cix`` executes the configured (possibly fused) patch in exactly one
  cycle — scratchpad accesses made by the LMAU inside the custom
  instruction are part of that cycle (Section III-C);
* ``send``/``recv`` timing is delegated to the attached comm port, and
  ``recv`` blocks (without retiring) until data is available.

Execution is pluggable (``engine=`` on :class:`Core`): ``auto`` selects
the pre-decoded fast loop of :mod:`repro.cpu.engine` unless the core's
``probe`` observes the core, and the instrumented loop — the only loop
that fires probe hooks — when it does; ``reference`` forces the
retained original interpreter below (:meth:`Core._run_reference`), the
hook-free timing specification the differential tests hold both loops
to.  All three produce identical architectural state, cycles, stall
attribution and cache/SPM counters.
"""

from repro.isa.instructions import (
    Op,
    eval_alu,
    eval_mul,
    eval_shift,
    wrap32,
)
from repro.platform import DEFAULT_PLATFORM
from repro.probe import NULL_PROBE
from repro.telemetry.rollup import ATTRIBUTION_BUCKETS  # noqa: F401 (re-export)

STOP_HALT = "halt"
STOP_LIMIT = "limit"
STOP_RECV = "recv"
STOP_FROZEN = "frozen"

#: Engine names accepted by :class:`Core`.  ``auto`` picks the fast
#: loop unless the probe observes the core, and the instrumented loop
#: when it does; ``reference`` forces the retained original interpreter
#: (the differential-testing oracle).
ENGINES = ("auto", "fast", "instrumented", "reference")

# Immediate-form -> base-op folds, hoisted out of the hot loop (the
# interpreter used to allocate these dicts afresh per retired imm-ALU /
# imm-shift instruction).
_IMM_ALU_BASE = {
    Op.ANDI: Op.AND, Op.ORI: Op.OR, Op.XORI: Op.XOR, Op.SLTI: Op.SLT,
}
_IMM_SHIFT_BASE = {Op.SLLI: Op.SLL, Op.SRLI: Op.SRL, Op.SRAI: Op.SRA}


class BlockedError(RuntimeError):
    """Raised when a comm operation is attempted with no port attached."""


class ExecutionError(IndexError):
    """The pc left the program's instruction range (missing halt?).

    Subclasses :class:`IndexError` so existing callers that caught the
    interpreter's old bare ``IndexError`` keep working; carries the
    core id, program name and offending pc as attributes for
    diagnostics.
    """

    def __init__(self, core_id, program_name, pc):
        super().__init__(
            f"core {core_id}: pc {pc} ran off the end of "
            f"{program_name!r} (missing halt?)"
        )
        self.core_id = core_id
        self.program_name = program_name
        self.pc = pc


class RunResult:
    """Outcome of a :meth:`Core.run` call."""

    __slots__ = ("reason", "cycles", "instructions")

    def __init__(self, reason, cycles, instructions):
        self.reason = reason
        self.cycles = cycles
        self.instructions = instructions

    def __repr__(self):
        return (
            f"RunResult({self.reason}, cycles={self.cycles}, "
            f"instructions={self.instructions})"
        )


class PatchPort:
    """Interface of the tile's patch as seen by the core.

    ``execute(cfg_id, in_values)`` returns up to two output values; any
    SPM traffic happens through the LMAU inside the same cycle.
    """

    def execute(self, cfg_id, in_values):
        raise NotImplementedError


class CommPort:
    """Interface of the tile's NIC as seen by the core (blocking MPI).

    ``send`` always succeeds (the NIC injects at line rate) and returns
    the local finish time.  ``try_recv`` returns ``None`` when no
    matching message is ready, else ``(values, finish_time)``.
    """

    def send(self, peer, values, now):
        raise NotImplementedError

    def try_recv(self, peer, count, now):
        raise NotImplementedError


class NullComm(CommPort):
    """Comm port for single-core runs: any use is a programming error."""

    def send(self, peer, values, now):
        raise BlockedError("send executed but no network is attached")

    def try_recv(self, peer, count, now):
        raise BlockedError("recv executed but no network is attached")


class Core:
    """One in-order core executing an assembled :class:`Program`.

    ``probe`` (a :class:`repro.probe.Probe`) observes the core.  The
    fast and reference loops fire no hooks, so naming either for a
    probe that observes the core is a ``ValueError``.
    """

    def __init__(
        self,
        program,
        memory,
        patch=None,
        comm=None,
        core_id=0,
        taken_branch_penalty=None,
        params=None,
        engine="auto",
        probe=None,
    ):
        if params is None:
            params = DEFAULT_PLATFORM.core
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        probe = probe if probe is not None else NULL_PROBE
        if probe.observes_core and engine in ("fast", "reference"):
            raise ValueError(
                f"engine={engine!r} fires no probe hooks, but {probe!r} "
                f"observes the core; use engine='auto' or 'instrumented'"
            )
        self.engine = engine
        # Pre-decoded execution form + resident-line memo, built lazily
        # on first run (the reference engine never needs either).
        self._decoded = None
        self._resident = None
        self.program = program
        self.memory = memory
        self.patch = patch
        self.comm = comm if comm is not None else NullComm()
        self.core_id = core_id
        self.params = params
        self.taken_branch_penalty = (
            taken_branch_penalty
            if taken_branch_penalty is not None
            else params.taken_branch_penalty
        )
        #: Set by an armed injector's ``freeze`` fault: the core stops
        #: retiring and its run() returns ``STOP_FROZEN`` forever.
        self.frozen = False

        self.regs = [0] * params.num_regs
        self.pc = 0
        self.cycles = 0
        self.instret = 0
        self.halted = False

        # Cycle attribution (always on — plain integer bumps): stall
        # cycles beyond the issue slot, by cause.  The issue slots
        # themselves are ``instret`` (one compute cycle per retired
        # instruction), so ``cycles == instret + sum(stalls)`` holds at
        # every instruction boundary.
        self.stall_memory = 0
        self.stall_icache = 0
        self.stall_branch = 0
        self.stall_comm = 0
        self.cix_retired = 0

        self.cfg_table = getattr(program, "cfg_table", None)

        # The instrumented loop calls ``probe.boundary`` once the clock
        # reaches this cycle (interval sampling, fault injection); the
        # null probe pins it at +inf, one comparison per instruction.
        self.probe = probe
        self._boundary = probe.attach(self)

    # -- register helpers ----------------------------------------------------

    def write_reg(self, index, value):
        if index != 0:
            self.regs[index] = wrap32(value)

    def set_regs(self, **named):
        """Harness helper: ``core.set_regs(r1=addr, r2=count)``."""
        for name, value in named.items():
            self.write_reg(int(name[1:]), value)

    # -- execution -------------------------------------------------------------

    def run(self, max_instructions=None, max_cycles=None):
        """Run until halt, a blocking receive, or a limit; resumable."""
        probe = self.probe
        if not probe.enabled:
            return self._dispatch(max_instructions, max_cycles)
        slice_cycles = self.cycles
        slice_instret = self.instret
        result = self._dispatch(max_instructions, max_cycles)
        retired = self.instret - slice_instret
        if retired or self.cycles > slice_cycles:
            probe.tile_span(
                self.core_id, self.program.name, slice_cycles, self.cycles,
                result.reason, retired,
            )
        return result

    def selected_engine(self):
        """The loop ``run`` will enter: resolves ``auto`` to a mode."""
        if self.engine != "auto":
            return self.engine
        return "instrumented" if self.probe.observes_core else "fast"

    def _dispatch(self, max_instructions, max_cycles):
        from repro.cpu import engine as engine_mod

        if self.frozen:
            return RunResult(STOP_FROZEN, self.cycles, self.instret)
        mode = self.selected_engine()
        if mode == "fast":
            return engine_mod.run_fast(self, max_instructions, max_cycles)
        if mode == "instrumented":
            return engine_mod.run_instrumented(
                self, max_instructions, max_cycles
            )
        return self._run_reference(max_instructions, max_cycles)

    def _ensure_decoded(self):
        """Decode (memoized on the Program) + allocate the resident memo."""
        decoded = self._decoded
        if decoded is None:
            from repro.isa.decoded import decode_program

            decoded = decode_program(
                self.program, self.params, getattr(self.memory, "params", None)
            )
            self._decoded = decoded
            self._resident = bytearray(decoded.n)
        return decoded

    def _run_reference(self, max_instructions=None, max_cycles=None):
        """The retained original interpreter (re-decodes per retire).

        Kept as the executable specification of the timing model: the
        dispatch engines in :mod:`repro.cpu.engine` are held
        bit-identical to this loop by the differential suite
        (``tests/cpu/test_engine_differential.py``).  It calls no
        observer.  Select it with ``Core(..., engine="reference")``.
        """
        program = self.program.instructions
        regs = self.regs
        memory = self.memory
        fetch = memory.fetch
        penalty = self.taken_branch_penalty
        start_instret = self.instret

        while not self.halted:
            if max_instructions is not None and self.instret - start_instret >= max_instructions:
                return RunResult(STOP_LIMIT, self.cycles, self.instret)
            if max_cycles is not None and self.cycles >= max_cycles:
                return RunResult(STOP_LIMIT, self.cycles, self.instret)
            pc = self.pc
            if not 0 <= pc < len(program):
                raise ExecutionError(self.core_id, self.program.name, pc)
            instr = program[pc]
            op = instr.op

            cost = fetch(pc, instr.words) - (instr.words - 1)
            # fetch() returns hit_latency per word + miss stalls; the
            # issue slot already covers one cycle, extra words overlap.
            self.stall_icache += cost - 1
            next_pc = pc + 1

            if op is Op.LW:
                addr = (regs[instr.ra] + instr.imm) & 0xFFFFFFFF
                value, mem_cycles = memory.read(addr)
                if instr.rd != 0:
                    regs[instr.rd] = value
                cost += mem_cycles - 1
                if mem_cycles > 1:
                    self.stall_memory += mem_cycles - 1
            elif op is Op.SW:
                addr = (regs[instr.ra] + instr.imm) & 0xFFFFFFFF
                mem_cycles = memory.write(addr, regs[instr.rd])
                cost += mem_cycles - 1
                if mem_cycles > 1:
                    self.stall_memory += mem_cycles - 1
            elif op is Op.ADD:
                if instr.rd != 0:
                    regs[instr.rd] = wrap32(regs[instr.ra] + regs[instr.rb])
            elif op is Op.ADDI:
                if instr.rd != 0:
                    regs[instr.rd] = wrap32(regs[instr.ra] + instr.imm)
            elif op is Op.SUB:
                if instr.rd != 0:
                    regs[instr.rd] = wrap32(regs[instr.ra] - regs[instr.rb])
            elif op is Op.MUL:
                if instr.rd != 0:
                    regs[instr.rd] = wrap32(regs[instr.ra] * regs[instr.rb])
            elif op is Op.MULH:
                if instr.rd != 0:
                    regs[instr.rd] = eval_mul(op, regs[instr.ra], regs[instr.rb])
            elif op in (Op.AND, Op.OR, Op.XOR, Op.SLT, Op.SLTU, Op.SEQ):
                if instr.rd != 0:
                    regs[instr.rd] = eval_alu(op, regs[instr.ra], regs[instr.rb])
            elif op in (Op.ANDI, Op.ORI, Op.XORI, Op.SLTI):
                if instr.rd != 0:
                    regs[instr.rd] = eval_alu(
                        _IMM_ALU_BASE[op], regs[instr.ra], instr.imm
                    )
            elif op in (Op.SLL, Op.SRL, Op.SRA):
                if instr.rd != 0:
                    regs[instr.rd] = eval_shift(op, regs[instr.ra], regs[instr.rb])
            elif op in (Op.SLLI, Op.SRLI, Op.SRAI):
                if instr.rd != 0:
                    regs[instr.rd] = eval_shift(
                        _IMM_SHIFT_BASE[op], regs[instr.ra], instr.imm
                    )
            elif op is Op.MOV:
                if instr.rd != 0:
                    regs[instr.rd] = regs[instr.ra]
            elif op is Op.MOVI:
                if instr.rd != 0:
                    regs[instr.rd] = instr.imm
            elif op is Op.CIX:
                self.cix_retired += 1
                outs = self._execute_cix(instr)
                for reg, value in zip(instr.outs, outs):
                    if reg != 0:
                        regs[reg] = wrap32(value)
            elif op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU):
                lhs = regs[instr.ra]
                rhs = regs[instr.rb]
                if op is Op.BEQ:
                    taken = lhs == rhs
                elif op is Op.BNE:
                    taken = lhs != rhs
                elif op is Op.BLT:
                    taken = lhs < rhs
                elif op is Op.BGE:
                    taken = lhs >= rhs
                elif op is Op.BLTU:
                    taken = (lhs & 0xFFFFFFFF) < (rhs & 0xFFFFFFFF)
                else:
                    taken = (lhs & 0xFFFFFFFF) >= (rhs & 0xFFFFFFFF)
                if taken:
                    next_pc = instr.target
                    cost += penalty
                    self.stall_branch += penalty
            elif op is Op.JMP:
                next_pc = instr.target
                cost += penalty
                self.stall_branch += penalty
            elif op is Op.JAL:
                regs[15] = pc + 1
                next_pc = instr.target
                cost += penalty
                self.stall_branch += penalty
            elif op is Op.JR:
                next_pc = regs[instr.ra]
                cost += penalty
                self.stall_branch += penalty
            elif op is Op.HALT:
                self.halted = True
            elif op is Op.NOP:
                pass
            elif op is Op.SEND:
                peer = regs[instr.ra]
                base = regs[instr.rb]
                count = regs[instr.rd]
                values = memory.dump(base, count)  # NIC DMA bypasses the cache
                start = self.cycles
                finish = self.comm.send(peer, values, start)
                self.cycles = finish
                self.stall_comm += finish - start - 1  # 1 = the issue slot
                self.pc = next_pc
                self.instret += 1
                continue
            elif op is Op.RECV:
                peer = regs[instr.ra]
                base = regs[instr.rb]
                count = regs[instr.rd]
                result = self.comm.try_recv(peer, count, self.cycles)
                if result is None:
                    return RunResult(STOP_RECV, self.cycles, self.instret)
                values, finish = result
                memory.load(base, values)  # NIC DMA bypasses the cache
                start = self.cycles
                self.cycles = finish
                self.stall_comm += finish - start - 1  # 1 = the issue slot
                self.pc = next_pc
                self.instret += 1
                continue
            else:  # pragma: no cover - all opcodes handled above
                raise NotImplementedError(f"opcode {op}")

            regs[0] = 0
            self.cycles += cost
            self.instret += 1
            self.pc = next_pc

        return RunResult(STOP_HALT, self.cycles, self.instret)

    # -- telemetry ---------------------------------------------------------------

    def attribution(self):
        """Cycle attribution: every cycle in exactly one bucket.

        ``compute`` is the retired-instruction count (each instruction
        owns one issue cycle); the stall buckets are tracked
        independently in the interpreter, so ``sum(buckets) == total``
        is a real cross-check of the timing model, not an identity
        (see :func:`repro.verify.check_cycle_attribution`).
        """
        return {
            "compute": self.instret,
            "memory_stall": self.stall_memory,
            "icache_stall": self.stall_icache,
            "branch_bubble": self.stall_branch,
            "comm_blocked": self.stall_comm,
            "total": self.cycles,
        }

    def _execute_cix(self, instr):
        if self.patch is None:
            raise BlockedError(
                f"core {self.core_id}: cix executed but no patch is attached"
            )
        in_values = [self.regs[r] for r in instr.ins]
        return self.patch.execute(instr.cfg, in_values)
