"""Code generation: rewriting blocks with custom instructions.

Each selected mapping's member instructions are contracted into one
``cix`` node inside the block's full dependence graph (register RAW /
WAR / WAW plus a conservative total order over memory, communication
and control operations); list scheduling re-emits the block.  A cycle
after contraction means the candidate cannot be placed safely — the
selector treats that as infeasible, testing it on the graph's
transitive closure (:class:`Schedule`) rather than by rewriting.

Immediate operands of custom instructions are materialized once, into
registers the program never otherwise touches, by an entry-block
prologue (:class:`ImmPool`) — constants are loop-invariant by nature so
per-iteration ``movi`` setup would waste the very cycles ISEs save.
"""

import heapq

from repro.isa.instructions import Instruction, Op, OpClass, op_class
from repro.isa.program import Program


class CodegenError(ValueError):
    """The requested rewrite cannot be done safely."""


class ImmPool:
    """Registers reserved for custom-instruction constants."""

    # The streaming wrapper (repro.sim.streaming / workloads.base) owns
    # r11 (its item counter) across the whole run; constants must never
    # live there even when the standalone kernel leaves it free.  The
    # wrapper's other scratch (r1-r3) is always program-referenced, so
    # the pool never sees it anyway.
    RESERVED = frozenset({11})

    def __init__(self, free_regs):
        self._free = [r for r in free_regs if r not in self.RESERVED]
        self._by_value = {}

    @classmethod
    def for_program(cls, program):
        """Pool of registers the program never reads or writes."""
        used = set()
        for instr in program.instructions:
            used.update(instr.reads())
            used.update(instr.writes())
        free = [r for r in range(1, 16) if r not in used]
        return cls(free)

    def get(self, value):
        """Register that will hold ``value``; allocates on first use."""
        if value == 0:
            return 0  # r0 is architecturally zero
        if value not in self._by_value:
            if not self._free:
                raise CodegenError("no free register for an ISE constant")
            self._by_value[value] = self._free.pop(0)
        return self._by_value[value]

    def can_allocate(self, values):
        fresh = {
            v for v in values if v != 0 and v not in self._by_value
        }
        return len(fresh) <= len(self._free)

    def prologue(self):
        """``movi`` instructions materializing every pooled constant."""
        return [
            Instruction(Op.MOVI, rd=reg, imm=value)
            for value, reg in sorted(self._by_value.items(), key=lambda kv: kv[1])
        ]


def _build_dependences(instructions):
    """Edge set (i -> j means i must precede j) over block positions.

    Registers get RAW/WAR/WAW edges.  Memory ordering is load/store
    precise: loads commute with each other, while stores, comm ops and
    ``cix`` (which may contain loads *and* stores) act as barriers
    against every earlier memory operation.
    """
    edges = set()
    last_def = {}
    uses_since_def = {}
    last_barrier = None
    loads_since_barrier = []
    count = len(instructions)
    for index, instr in enumerate(instructions):
        for reg in instr.reads():
            if reg == 0:
                continue
            if reg in last_def:
                edges.add((last_def[reg], index))
            uses_since_def.setdefault(reg, []).append(index)
        for reg in instr.writes():
            if reg == 0:
                continue
            for user in uses_since_def.get(reg, ()):
                if user != index:
                    edges.add((user, index))
            if reg in last_def:
                edges.add((last_def[reg], index))
            last_def[reg] = index
            uses_since_def[reg] = []
        op = instr.op
        cls = op_class(op)
        if op is Op.LW:
            if last_barrier is not None:
                edges.add((last_barrier, index))
            loads_since_barrier.append(index)
        elif op is Op.SW or cls is OpClass.COMM or op is Op.CIX:
            if last_barrier is not None:
                edges.add((last_barrier, index))
            for load in loads_since_barrier:
                edges.add((load, index))
            last_barrier = index
            loads_since_barrier = []
    # Control flow terminates the block: everything precedes it.
    if count and (instructions[-1].is_branch() or instructions[-1].op is Op.HALT):
        for index in range(count - 1):
            edges.add((index, count - 1))
    return edges


def _block_dependences(block, placements):
    """``block``'s dependence edges, kept on the placements' DFG."""
    if not placements:
        return _build_dependences(block.instructions)
    return _dependence_graph(placements[0][0].candidate.dfg)[0]


def _dependence_graph(dfg):
    """``(edges, closure)`` of ``dfg``'s block, built once per DFG.

    ``closure[i]`` has bit ``j`` set when a path of edges leads from
    position ``i`` to position ``j``.  Every option of a kernel selects
    over and rewrites the same blocks, so both are shared.
    """
    if dfg.dependences is None:
        edges = _build_dependences(dfg.block.instructions)
        closure = [0] * len(dfg.block.instructions)
        # Every edge points forward, so by the time an edge's source is
        # reached its target's closure is complete.
        for src, dst in sorted(edges, reverse=True):
            closure[src] |= closure[dst] | 1 << dst
        dfg.dependences = frozenset(edges)
        dfg.dependence_closure = tuple(closure)
    return dfg.dependences, dfg.dependence_closure


class Schedule:
    """Which candidates one block can still contract without a cycle.

    It holds the block's dependence closure with the candidates accepted
    so far contracted, and answers what a :func:`rewrite_block` of those
    candidates plus one more would, without rewriting.
    """

    def __init__(self, dfg):
        self.dfg = dfg
        self.reach = list(_dependence_graph(dfg)[1])

    def _members(self, candidate):
        """The candidate's block positions as a bitset."""
        nodes = self.dfg.nodes
        members = 0
        for node_id in candidate.node_ids:
            members |= 1 << nodes[node_id].pos
        return members

    def _after(self, members):
        """The positions following any of ``members``."""
        reach = self.reach
        after = 0
        while members:
            low = members & -members
            after |= reach[low.bit_length() - 1]
            members ^= low
        return after

    def admits(self, candidate):
        """False when an outside position both follows and precedes the
        candidate: contracting it would close a cycle."""
        members = self._members(candidate)
        outside = self._after(members) & ~members
        reach = self.reach
        while outside:
            low = outside & -outside
            if reach[low.bit_length() - 1] & members:
                return False
            outside ^= low
        return True

    def accept(self, candidate):
        """Contract the candidate: it, and every position preceding it,
        now precedes everything that follows any member."""
        members = self._members(candidate)
        after = self._after(members)
        reach = self.reach
        for pos, mask in enumerate(reach):
            if mask & members or members >> pos & 1:
                reach[pos] = mask | after


def operand_registers(binding, pool):
    """The register each operand ref reads: r0 for an unbound slot, the
    ref's own register, or the pool's for a constant (allocated on
    first use, so the binding's order fixes the allocation order)."""
    return [
        0 if ref is None else ref[1] if ref[0] == "reg" else pool.get(ref[1])
        for ref in binding
    ]


def _make_cix(mapping, cfg_id, pool):
    # Operand position IS the patch's ext slot index: unused slots up
    # to the last bound one must be kept (as r0), never collapsed.
    binding = list(mapping.ext_binding)
    while len(binding) > 1 and binding[-1] is None:
        binding.pop()
    ins = operand_registers(binding, pool)
    outs = list(mapping.out_binding) or [0]
    if not ins:
        ins = [0]
    return Instruction(Op.CIX, cfg=cfg_id, outs=outs, ins=ins)


def rewrite_block(block, placements, pool):
    """Re-emit ``block`` with each placement's members fused into a cix.

    ``placements`` is a list of ``(mapping, cfg_id)``; member sets must
    be disjoint.  Returns the new instruction list (branch targets still
    refer to old program indices; :func:`rewrite_program` fixes those).
    Raises :class:`CodegenError` if contraction creates a cycle.
    """
    instructions = block.instructions
    edges = _block_dependences(block, placements)
    # Each node of the contracted graph is named by its first position,
    # which is also its scheduling priority (original order).
    leader = list(range(len(instructions)))
    cix_at = {}                 # a group's first position -> placement
    for mapping, cfg_id in placements:
        members = sorted(
            mapping.candidate.dfg.nodes[node_id].pos
            for node_id in mapping.candidate.node_ids
        )
        for pos in members:
            if leader[pos] != pos or pos in cix_at:
                raise CodegenError("overlapping candidate placements")
            leader[pos] = members[0]
        cix_at[members[0]] = (mapping, cfg_id)

    # Contract members, inheriting edges.
    contracted = {
        (leader[src], leader[dst]) for src, dst in edges
        if leader[src] != leader[dst]
    }

    # Kahn's algorithm with original-order priority.
    incoming = dict.fromkeys(leader, 0)
    adjacency = {node: [] for node in incoming}
    for src, dst in contracted:
        adjacency[src].append(dst)
        incoming[dst] += 1
    heap = [node for node, count in incoming.items() if count == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        node = heapq.heappop(heap)
        order.append(node)
        for succ in adjacency[node]:
            incoming[succ] -= 1
            if incoming[succ] == 0:
                heapq.heappush(heap, succ)
    if len(order) != len(incoming):
        raise CodegenError("contraction created a dependence cycle")

    result = [
        _make_cix(*cix_at[node], pool) if node in cix_at
        else instructions[node].copy()
        for node in order
    ]
    return _eliminate_dead_moves(result)


def _eliminate_dead_moves(instructions):
    """Drop mov/movi whose value is provably dead within the block."""
    keep = [True] * len(instructions)
    for index, instr in enumerate(instructions):
        if instr.op not in (Op.MOV, Op.MOVI):
            continue
        dest = instr.rd
        if dest == 0:
            keep[index] = False
            continue
        dead = False
        for later in instructions[index + 1:]:
            if dest in later.reads():
                break
            if dest in later.writes():
                dead = True
                break
        keep[index] = not dead
    return [instr for index, instr in enumerate(instructions) if keep[index]]


def rewrite_program(program, block_rewrites, pool, cfg_table):
    """Assemble the final program: prologue + rewritten blocks.

    ``block_rewrites`` maps block index to its new instruction list
    (defaulting to the original instructions).  Branch targets — always
    block leaders — are remapped to the new leader positions.  The
    returned :class:`Program` carries ``cfg_table`` for the executor.
    """
    blocks = program.basic_blocks()
    prologue = pool.prologue()
    new_instructions = list(prologue)
    new_start = {}
    for block in blocks:
        new_start[block.start] = len(new_instructions)
        body = block_rewrites.get(block.index)
        if body is None:
            body = [instr.copy() for instr in block.instructions]
        new_instructions.extend(body)

    for instr in new_instructions:
        if instr.target is not None and instr.op is not Op.JR:
            if instr.target not in new_start:
                raise CodegenError(
                    f"branch targets non-leader index {instr.target}"
                )
            instr.target = new_start[instr.target]

    labels = {
        label: new_start[target]
        for label, target in program.labels.items()
        if target in new_start
    }
    result = Program(
        new_instructions, labels=labels,
        name=f"{program.name}+ise", symbols=dict(program.symbols),
    )
    result.cfg_table = list(cfg_table)
    return result
