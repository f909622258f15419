"""Dataflow graphs over basic blocks.

Each computational instruction of a block becomes a node; moves are
treated as wiring (Section III-A: "move instructions ... can be
converted into wiring when synthesized") and folded by copy/constant
propagation.  Value edges follow register def-use; a separate total
order is kept over memory and communication operations so candidates
and the scheduler never reorder them unsafely.

Reachability, the memory order and each node's register-file traffic
are precomputed once per graph as Python-int bitsets (bit ``j`` stands
for node ``j``, or for rank ``j`` in the memory order), so a candidate's
convexity and port-budget tests are a few mask operations instead of a
graph walk (the reachability form of Pozzi, Atasu & Ienne, IEEE TCAD
2006).

Input references are tuples:

* ``('node', id)`` — the value of another node in the block,
* ``('reg', r)`` — a register live into the block,
* ``('imm', v)`` — a compile-time constant.
"""

from repro.isa.instructions import Op, OpClass, base_op, op_class

# Operations placeable on some patch unit (SLTU/MULH-only menus apply
# at mapping time; SLTU never appears on a patch, so it is excluded).
MAPPABLE_OPS = frozenset(
    {
        Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SLT, Op.SEQ,
        Op.SLL, Op.SRL, Op.SRA, Op.MUL, Op.MULH, Op.LW, Op.SW,
    }
)


class DFGNode:
    """One computational instruction inside a block."""

    __slots__ = (
        "id", "pos", "instr", "op", "base", "cls", "inputs", "out_reg",
        "mem_offset", "uses", "live_out", "spm_safe", "replicable",
    )

    def __init__(self, node_id, pos, instr, inputs, mem_offset=0,
                 spm_safe=False, replicable=False):
        self.id = node_id
        self.pos = pos                      # block-relative position
        self.instr = instr
        self.op = instr.op
        self.base = base_op(instr.op)
        self.cls = op_class(instr.op)
        self.inputs = tuple(inputs)
        self.out_reg = instr.rd if instr.op is not Op.SW else None
        self.mem_offset = mem_offset        # immediate offset of lw/sw
        self.uses = []                      # block positions reading the value
        self.live_out = False               # final def of out_reg in block
        self.spm_safe = spm_safe            # all observed addresses in SPM
        self.replicable = replicable        # load confined to a const region

    @property
    def is_mem(self):
        return self.cls is OpClass.T

    def value_pred_ids(self):
        return [ref[1] for ref in self.inputs if ref[0] == "node"]

    def __repr__(self):
        return f"DFGNode(#{self.id} {self.op.value} @{self.pos})"


_COMPUTE_CLASSES = (OpClass.A, OpClass.S, OpClass.M, OpClass.T)


class DFG:
    """Dataflow graph of one basic block."""

    def __init__(self, block, spm_only=frozenset(), live_out=None,
                 replicable=frozenset()):
        self.block = block
        self.replicable_pcs = frozenset(replicable)
        self.live_out_regs = (
            frozenset(range(1, 16)) if live_out is None else frozenset(live_out)
        )
        self.nodes = []
        self.node_at_pos = {}
        self.mem_order = []       # positions of mem/comm ops, program order
        self._consumers = {}      # node id -> [node ids]
        self._build(spm_only)
        self._build_masks()
        # Codegen's dependence edges over block positions and their
        # transitive closure, built on first use by selection or a
        # rewrite of this block and shared by every later one.
        self.dependences = None
        self.dependence_closure = None

    # -- construction -----------------------------------------------------

    def _build(self, spm_only):
        defs = {}  # register -> ref

        def resolve(reg):
            if reg == 0:
                return ("imm", 0)
            return defs.get(reg, ("reg", reg))

        def new_node(pos, instr, inputs, mem_offset=0, spm_safe=False,
                     replicable=False):
            node = DFGNode(len(self.nodes), pos, instr, inputs, mem_offset,
                           spm_safe, replicable)
            self.nodes.append(node)
            self.node_at_pos[pos] = node
            for ref in inputs:
                if ref[0] == "node":
                    producer = self.nodes[ref[1]]
                    producer.uses.append(pos)
                    self._consumers.setdefault(ref[1], []).append(node.id)
            if node.out_reg is not None and node.out_reg != 0:
                defs[node.out_reg] = ("node", node.id)
            return node

        def record_plain_reads(pos, instr):
            for reg in instr.reads():
                ref = resolve(reg)
                if ref[0] == "node":
                    self.nodes[ref[1]].uses.append(pos)

        for pos, instr in enumerate(self.block.instructions):
            op = instr.op
            cls = op_class(op)
            program_index = self.block.start + pos
            if op is Op.MOV:
                record_plain_reads(pos, instr)
                if instr.rd != 0:
                    defs[instr.rd] = resolve(instr.ra)
            elif op is Op.MOVI:
                if instr.rd != 0:
                    defs[instr.rd] = ("imm", instr.imm)
            elif op is Op.LW:
                new_node(
                    pos, instr, [resolve(instr.ra)],
                    mem_offset=instr.imm,
                    spm_safe=program_index in spm_only,
                    replicable=program_index in self.replicable_pcs,
                )
                self.mem_order.append(pos)
            elif op is Op.SW:
                new_node(
                    pos, instr, [resolve(instr.rd), resolve(instr.ra)],
                    mem_offset=instr.imm,
                    spm_safe=program_index in spm_only,
                )
                self.mem_order.append(pos)
            elif cls in _COMPUTE_CLASSES:
                if instr.fmt == "ri":
                    inputs = [resolve(instr.ra), ("imm", instr.imm)]
                else:
                    inputs = [resolve(instr.ra), resolve(instr.rb)]
                new_node(pos, instr, inputs)
            else:
                # Control, comm, cix, nop: consume values, produce none
                # visible to patterns.  Comm ops join the memory order.
                record_plain_reads(pos, instr)
                if cls is OpClass.COMM or op is Op.CIX:
                    self.mem_order.append(pos)
                if op is Op.JAL:
                    defs[15] = ("reg", 15)  # opaque redefinition

        # Mark live-out nodes: last definition of a register that stays
        # live past the block (per the CFG liveness analysis).
        for reg, ref in defs.items():
            if ref[0] == "node" and reg in self.live_out_regs:
                self.nodes[ref[1]].live_out = True

    def _build_masks(self):
        """Per-node Python-int bitsets for candidate tests.

        Bit ``j`` stands for node ``j`` unless said otherwise.

        * ``ancestors[i]`` / ``descendants[i]``: the nodes with a
          value-edge path to / from node ``i``.  Producers precede their
          consumers, so one pass each way builds both.
        * ``mem_bits[i]``: bit ``k`` for a memory node at rank ``k`` of
          ``mem_order`` (0 for other nodes); ``load_bits`` marks the
          ranks holding loads.
        * ``input_bits[i]``: the refs node ``i`` reads, a node ref as its
          node's bit and each distinct register or immediate ref (memory
          offsets included, see :meth:`external_inputs`) as a bit past
          the nodes.
        * ``consumer_bits[i]``: the nodes reading node ``i``'s value;
          ``escape_bits``: the nodes whose value always leaves a
          candidate (live out, or read by a move, branch or comm op).
        """
        count = len(self.nodes)
        self.ancestors = ancestors = [0] * count
        for node in self.nodes:
            mask = 0
            for pred in node.value_pred_ids():
                mask |= ancestors[pred] | 1 << pred
            ancestors[node.id] = mask
        self.descendants = descendants = [0] * count
        for node_id in reversed(range(count)):
            mask = 0
            for consumer in self.consumers(node_id):
                mask |= descendants[consumer] | 1 << consumer
            descendants[node_id] = mask

        self.mem_bits = [0] * count
        self.load_bits = 0
        for rank, pos in enumerate(self.mem_order):
            node = self.node_at_pos.get(pos)
            if node is not None:
                self.mem_bits[node.id] = 1 << rank
                if node.op is Op.LW:
                    self.load_bits |= 1 << rank

        ref_bits = {}
        self.input_bits = [0] * count
        self.consumer_bits = [0] * count
        self.escape_bits = 0
        for node in self.nodes:
            refs = list(node.inputs)
            if node.is_mem and node.mem_offset != 0:
                refs.append(("imm", node.mem_offset))
            for kind, value in refs:
                if kind == "node":
                    self.input_bits[node.id] |= 1 << value
                else:
                    bit = ref_bits.setdefault(
                        (kind, value), 1 << (count + len(ref_bits))
                    )
                    self.input_bits[node.id] |= bit
            if node.out_reg is None:
                continue
            if node.live_out:
                self.escape_bits |= 1 << node.id
            for pos in node.uses:
                reader = self.node_at_pos.get(pos)
                if reader is None:
                    self.escape_bits |= 1 << node.id
                else:
                    self.consumer_bits[node.id] |= 1 << reader.id

    # -- queries ---------------------------------------------------------------

    def consumers(self, node_id):
        """Node ids (within the DFG) consuming ``node_id``'s value."""
        return self._consumers.get(node_id, [])

    def eligible_nodes(self):
        """Nodes a custom-instruction candidate may contain."""
        result = []
        for node in self.nodes:
            if node.base not in MAPPABLE_OPS:
                continue
            if node.is_mem and not node.spm_safe:
                continue
            result.append(node)
        return result

    def external_inputs(self, member_ids):
        """Distinct outside refs feeding the candidate (mapping view).

        Non-zero memory offsets count as immediate inputs because the
        patch must receive them as operands to form addresses.
        """
        members = set(member_ids)
        refs = []
        seen = set()

        def add(ref):
            if ref not in seen:
                seen.add(ref)
                refs.append(ref)

        for node_id in sorted(members):
            node = self.nodes[node_id]
            for ref in node.inputs:
                if ref[0] == "node" and ref[1] in members:
                    continue
                add(ref)
            if node.is_mem and node.mem_offset != 0:
                add(("imm", node.mem_offset))
        return refs

    def outputs(self, member_ids):
        """Node ids whose values must be written to the register file."""
        members = self.masks(member_ids)[0]
        return [
            node_id for node_id in sorted(set(member_ids))
            if self.escapes(node_id, members)
        ]

    def escapes(self, node_id, members):
        """True if node ``node_id``'s value is read outside the candidate
        whose node mask is ``members``."""
        return bool(
            self.escape_bits >> node_id & 1
            or self.consumer_bits[node_id] & ~members
        )

    def is_convex(self, member_ids):
        """No outside path from a member back into the candidate.

        Checked over value edges plus the memory/comm order (a candidate
        may not straddle a non-member memory or communication op that
        both depends on it and feeds it).
        """
        members, desc, anc, mem, _ = self.masks(member_ids)
        return self.convex(members, desc, anc, mem)

    def masks(self, member_ids):
        """``(members, desc, anc, mem, ins)`` of a candidate: its node
        bits and the unions of its members' ``descendants``,
        ``ancestors``, ``mem_bits`` and ``input_bits``."""
        members = desc = anc = mem = ins = 0
        for node_id in member_ids:
            members |= 1 << node_id
            desc |= self.descendants[node_id]
            anc |= self.ancestors[node_id]
            mem |= self.mem_bits[node_id]
            ins |= self.input_bits[node_id]
        return members, desc, anc, mem, ins

    def convex(self, members, desc, anc, mem):
        """:meth:`is_convex` over masks: the members, the unions of their
        descendants and ancestors, and their memory-order bits.

        An outside node both reachable from and reaching the candidate
        lies on a path out of it and back.  Across the memory span,
        outside *loads* commute with member loads, so they only block a
        candidate that contains a store; outside stores and comm ops
        always do.
        """
        if desc & anc & ~members:
            return False
        if mem & (mem - 1) == 0:                # fewer than two mem ops
            return True
        # Ranks strictly between the first and the last member mem op.
        span = (1 << (mem.bit_length() - 1)) - ((mem & -mem) << 1)
        outside = span & ~mem
        if mem & ~self.load_bits:               # the candidate stores
            return not outside
        return not (outside & ~self.load_bits)
