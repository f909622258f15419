# The mapper as it was before mapping templates: every call searched its
# own candidate afresh.  Kept verbatim as the oracle that
# test_mapper_oracle.py holds the memoized mapper to.
"""Mapping ISE candidates onto patches (Figure 6's "mapper").

A candidate maps onto a single patch or a fused pair by assigning each
DFG node (plus synthetic address adders for non-zero load/store
offsets) to a unit position, subject to the datapath's reality:

* unit kinds and per-position op menus must match,
* within a patch, an internal value travels only on the *chain* wire —
  the consumer must be the next active unit, and only through a port
  that can select the chain (``in1`` of late units, the LMAU address,
  or the LMAU store-data port),
* external values enter through the four operand slots, with the
  narrow per-port slot choices of the 19-bit encoding,
* across a fused pair, values flow A to B only, through B's rewireable
  operand slots, and only patch A's two exposable outputs
  (chain end / first-half tap) can cross,
* at most 4 distinct external inputs and 2 register-file outputs.

The search is exact (backtracking over at most 8 nodes x 8 positions
with early pruning), so "no mapping" answers are trustworthy.
"""

from repro.core.config import PatchConfig, TMode, UnitConfig
from repro.core.fusion import FusedConfig
from repro.core.units import Source, UnitKind
from repro.isa.instructions import Op, OpClass


_KIND_FOR_CLASS = {
    OpClass.A: UnitKind.ALU,
    OpClass.S: UnitKind.SHIFT,
    OpClass.M: UnitKind.MUL,
    OpClass.T: UnitKind.LMAU,
}

_ANY_SLOT = frozenset((0, 1, 2, 3))


class MapNode:
    """A unit-granularity operation to place (candidate node or synthetic)."""

    __slots__ = ("idx", "kind", "op", "ins", "addr_in", "data_in", "orig_id",
                 "is_output", "replicable")

    def __init__(self, idx, kind, op, ins=(), addr_in=None, data_in=None,
                 orig_id=None, is_output=False, replicable=False):
        self.idx = idx
        self.kind = kind
        self.op = op
        self.ins = tuple(ins)
        self.addr_in = addr_in
        self.data_in = data_in
        self.orig_id = orig_id
        self.is_output = is_output
        self.replicable = replicable

    def internal_producers(self):
        refs = self.ins if self.kind is not UnitKind.LMAU else tuple(
            r for r in (self.addr_in, self.data_in) if r is not None
        )
        return [ref[1] for ref in refs if ref[0] == "m"]

    def __repr__(self):
        return f"MapNode(#{self.idx} {self.op.value})"


class Mapping:
    """A successful mapping: the config plus its register-file bindings."""

    __slots__ = ("candidate", "config", "ext_binding", "out_binding",
                 "remote_node_ids")

    def __init__(self, candidate, config, ext_binding, out_binding,
                 remote_node_ids=()):
        self.candidate = candidate
        self.config = config
        self.ext_binding = ext_binding    # operand slot -> external ref
        self.out_binding = out_binding    # config outs order -> node out_reg
        self.remote_node_ids = tuple(remote_node_ids)

    @property
    def is_fused(self):
        return isinstance(self.config, FusedConfig)

    def __repr__(self):
        kind = "fused" if self.is_fused else "single"
        return f"Mapping({kind}, {self.candidate!r})"


def _build_map_nodes(candidate):
    """Expand candidate nodes into unit-granularity MapNodes."""
    dfg = candidate.dfg
    outputs = set(candidate.outputs)
    mnodes = []
    id_map = {}

    def convert(ref):
        if ref[0] == "node":
            if ref[1] in candidate.node_ids:
                return ("m", id_map[ref[1]])
            return ("reg", dfg.nodes[ref[1]].out_reg)
        return ref

    def add(kind, op, **kwargs):
        node = MapNode(len(mnodes), kind, op, **kwargs)
        mnodes.append(node)
        return node

    for node in candidate.nodes():
        if node.is_mem:
            if node.op is Op.LW:
                addr = convert(node.inputs[0])
                data = None
            else:
                data = convert(node.inputs[0])
                addr = convert(node.inputs[1])
            if node.mem_offset != 0:
                synth = add(
                    UnitKind.ALU, Op.ADD,
                    ins=(addr, ("imm", node.mem_offset)),
                )
                addr = ("m", synth.idx)
            placed = add(
                UnitKind.LMAU, node.op, addr_in=addr, data_in=data,
                orig_id=node.id, is_output=node.id in outputs,
                replicable=node.replicable and node.op is Op.LW,
            )
        else:
            placed = add(
                _KIND_FOR_CLASS[node.cls], node.base,
                ins=tuple(convert(ref) for ref in node.inputs),
                orig_id=node.id, is_output=node.id in outputs,
            )
        id_map[node.id] = placed.idx
    return mnodes


class _Assignment:
    """Search state: map-node idx -> (patch index, position)."""

    def __init__(self, ptypes, mnodes):
        self.ptypes = ptypes
        self.mnodes = mnodes
        self.place = {}
        self.used = set()

    def options(self, node):
        """Legal (patch, position) placements given earlier choices."""
        result = []
        min_patch = 0
        producer_pos = {}
        for producer in node.internal_producers():
            patch, pos = self.place[producer]
            min_patch = max(min_patch, patch)
            producer_pos.setdefault(patch, []).append(pos)
        for patch_index in range(min_patch, len(self.ptypes)):
            ptype = self.ptypes[patch_index]
            if (node.kind is UnitKind.LMAU and patch_index > 0
                    and not node.replicable):
                # Memory ops stay on the origin patch unless the load is
                # confined to a read-only region the compiler can
                # replicate into the remote scratchpad (Section III-C's
                # per-region data placement); stores never cross.
                continue
            for position in range(4):
                if (patch_index, position) in self.used:
                    continue
                spec = ptype.unit(position)
                if spec.kind is not node.kind:
                    continue
                if node.kind is not UnitKind.LMAU and not spec.allows_op(node.op):
                    continue
                same = producer_pos.get(patch_index, [])
                if any(pos >= position for pos in same):
                    continue
                result.append((patch_index, position))
        return result


def _verify(ptypes, mnodes, assignment):
    """Check chain/port/slot/exposure rules; build the config or None."""
    num_patches = len(ptypes)
    per_patch = [{} for _ in range(num_patches)]  # position -> node
    for node in mnodes:
        patch, pos = assignment[node.idx]
        per_patch[patch][pos] = node

    actives = [sorted(p.keys()) for p in per_patch]
    if num_patches == 2 and (not actives[0] or not actives[1]):
        return None  # degenerate fusion; the single-patch path covers it

    # chain predecessor per (patch, position)
    def chain_pred(patch, pos):
        earlier = [p for p in actives[patch] if p < pos]
        return per_patch[patch][earlier[-1]] if earlier else None

    # Values that must cross from A to B.
    cross = set()
    # slot demands: per patch, list of (value_key, allowed slots, tag)
    demands = [[] for _ in range(num_patches)]
    # T unit mode chosen per patch (position 1)
    t_modes = [None] * num_patches
    # port wiring per node: (in1_source, in2_source) filled later
    wiring = {}

    def value_key(ref):
        return ref  # refs are hashable tuples

    def classify(node, ref):
        """'chain' if ref is this patch's chain predecessor, else None."""
        patch, pos = assignment[node.idx]
        if ref[0] == "m":
            p_patch, _ = assignment[ref[1]]
            if p_patch == patch:
                pred = chain_pred(patch, pos)
                if pred is None or pred.idx != ref[1]:
                    return "bad"
                return "chain"
            cross.add(ref[1])
            return "ext"
        return "ext"

    def first_active(node):
        patch, pos = assignment[node.idx]
        return actives[patch][0] == pos

    for node in mnodes:
        patch, pos = assignment[node.idx]
        if node.kind is UnitKind.LMAU:
            addr_class = classify(node, node.addr_in)
            if addr_class == "bad":
                return None
            if node.op is Op.LW:
                # Address is chain-only: internal chain pred, or the
                # ext0 chain default when the LMAU opens the patch.
                if addr_class == "ext":
                    if not first_active(node):
                        return None
                    demands[patch].append((value_key(node.addr_in), frozenset((0,)), None))
                t_modes[patch] = TMode.LOAD
            else:
                data_class = classify(node, node.data_in)
                if data_class == "bad":
                    return None
                if addr_class == "chain" and data_class == "chain":
                    return None
                if data_class == "chain":
                    # SPM[ext2] = chain
                    demands[patch].append((value_key(node.addr_in), frozenset((2,)), None))
                    t_modes[patch] = TMode.STORE_DATA_CHAIN
                elif addr_class == "chain":
                    # SPM[chain] = ext3
                    demands[patch].append((value_key(node.data_in), frozenset((3,)), None))
                    t_modes[patch] = TMode.STORE_ADDR_CHAIN
                else:
                    # Both external: address can ride the ext0 chain
                    # default if the LMAU opens the patch.
                    if not first_active(node):
                        return None
                    demands[patch].append((value_key(node.addr_in), frozenset((0,)), None))
                    demands[patch].append((value_key(node.data_in), frozenset((3,)), None))
                    t_modes[patch] = TMode.STORE_ADDR_CHAIN
            continue

        # Compute units.  Port capabilities come from the unit spec;
        # a first-active unit can additionally read an external value
        # through the chain default (chain == ext0 when nothing earlier
        # is active).
        spec = ptypes[patch].unit(pos)
        in_refs = list(node.ins)
        if len(in_refs) != 2:
            return None
        classes = [classify(node, ref) for ref in in_refs]
        if "bad" in classes:
            return None
        opens_patch = first_active(node)
        choice_sets = (spec.in1_choices, spec.in2_choices)

        def chain_ok(port):
            return Source.CHAIN in choice_sets[port]

        def ext_slots(port):
            slots = frozenset(
                Source.ext_index(s) for s in choice_sets[port] if Source.is_ext(s)
            )
            if opens_patch and chain_ok(port):
                slots = slots | frozenset((0,))
            return slots

        chain_count = classes.count("chain")
        sources = [None, None]
        if chain_count == 2:
            # One chain wire: both ports may tap it only for the same
            # value (squaring/doubling) and only if both muxes allow it.
            if in_refs[0] != in_refs[1]:
                return None
            if not (chain_ok(0) and chain_ok(1)):
                return None
            sources = [Source.CHAIN, Source.CHAIN]
        elif chain_count == 1:
            chain_port = classes.index("chain")
            if not chain_ok(chain_port):
                if _commutative(node.op) and chain_ok(1 - chain_port):
                    in_refs = [in_refs[1], in_refs[0]]
                    classes = [classes[1], classes[0]]
                    chain_port = classes.index("chain")
                else:
                    return None
            other = 1 - chain_port
            if not ext_slots(other):
                return None
            sources[chain_port] = Source.CHAIN
            demands[patch].append(
                (value_key(in_refs[other]), ext_slots(other), (node.idx, other))
            )
        else:
            for port in range(2):
                slots = ext_slots(port)
                if not slots:
                    return None
                demands[patch].append(
                    (value_key(in_refs[port]), slots, (node.idx, port))
                )
        wiring[node.idx] = (in_refs, sources)

    # -- exposure of cross values and outputs --------------------------------

    def exposables(patch):
        """{map idx: source tag} of values the patch can emit."""
        act = actives[patch]
        if not act:
            return {}
        result = {per_patch[patch][act[-1]].idx: 0}  # out0: chain end
        head = [p for p in act if p <= 1]
        tail = [p for p in act if p >= 2]
        if head and tail:
            result.setdefault(per_patch[patch][head[-1]].idx, 1)  # out1 tap
        return result

    expos = [exposables(p) for p in range(num_patches)]
    for idx in cross:
        patch, _ = assignment[idx]
        if idx not in expos[patch]:
            return None

    out_nodes = [node for node in mnodes if node.is_output]
    if len(out_nodes) > 2:
        return None
    out_sources = []
    prefix = ("a_", "b_") if num_patches == 2 else ("", "")
    for node in out_nodes:
        patch, _ = assignment[node.idx]
        tag = expos[patch].get(node.idx)
        if tag is None:
            return None
        out_sources.append((f"{prefix[patch]}out{tag}", node.orig_id))

    # -- solve operand slots --------------------------------------------------

    slot_maps = []
    for patch in range(num_patches):
        solved = _solve_slots(demands[patch])
        if solved is None:
            return None
        slot_maps.append(solved)

    # Global operand list: A's slots pin original operand indices; B's
    # external (non-cross) values reuse or claim free indices.
    operands = [None] * 4
    for value, slot in slot_maps[0].items():
        if value[0] == "m":
            return None  # patch A cannot take internal values externally
        operands[slot] = value

    b_ext = ["ext0", "ext1", "ext2", "ext3"]
    if num_patches == 2:
        for value, slot in slot_maps[1].items():
            if value[0] == "m":
                tag = expos[0][value[1]]
                b_ext[slot] = f"a_out{tag}"
            else:
                if value in operands:
                    index = operands.index(value)
                else:
                    try:
                        index = operands.index(None)
                    except ValueError:
                        return None
                    operands[index] = value
                b_ext[slot] = f"ext{index}"

    # -- build unit configs ----------------------------------------------------

    def build_patch_config(patch):
        slot_of = slot_maps[patch]
        kwargs = {"u0": None, "t": TMode.OFF, "u1": None, "u2": None, "u3": None}
        for pos, node in per_patch[patch].items():
            if node.kind is UnitKind.LMAU:
                kwargs["t"] = t_modes[patch]
                continue
            spec = ptypes[patch].unit(pos)
            in_refs, sources = wiring[node.idx]
            resolved = []
            for port, choices in enumerate((spec.in1_choices, spec.in2_choices)):
                if sources[port] == Source.CHAIN:
                    resolved.append(Source.CHAIN)
                    continue
                slot = slot_of[value_key(in_refs[port])]
                picked = Source.ext(slot)
                if picked not in choices:
                    # The port reads slot 0 through the chain default
                    # (this unit opens the patch; verified above).
                    picked = Source.CHAIN
                resolved.append(picked)
            kwargs[f"u{pos}"] = UnitConfig(node.op, resolved[0], resolved[1])
        try:
            return PatchConfig(ptypes[patch], **kwargs)
        except ValueError:
            return None

    cfg_a = build_patch_config(0)
    if cfg_a is None:
        return None
    if num_patches == 1:
        outs_order = sorted(out_sources, key=lambda s: s[0])
        return {
            "config": cfg_a,
            "operands": operands,
            "outs": outs_order,
        }
    cfg_b = build_patch_config(1)
    if cfg_b is None:
        return None
    outs_order = sorted(out_sources, key=lambda s: s[0])
    if not outs_order:
        outs_order = [("b_out0", None)]
    fused = FusedConfig(
        cfg_a, cfg_b, b_ext=tuple(b_ext),
        outs=tuple(source for source, _ in outs_order),
    )
    remote_ids = [
        node.orig_id for node in mnodes
        if assignment[node.idx][0] == 1 and node.orig_id is not None
    ]
    return {"config": fused, "operands": operands, "outs": outs_order,
            "remote_ids": remote_ids}


def _commutative(op):
    return op in (Op.ADD, Op.AND, Op.OR, Op.XOR, Op.SEQ, Op.MUL, Op.MULH)


def _solve_slots(demands):
    """Assign each demanded value to an operand slot.

    Multiple demands of the same value share one slot; the chosen slot
    must satisfy every demand's allowed set.  Returns
    ``{value: slot}`` or None.
    """
    merged = {}
    for value, allowed, _tag in demands:
        merged[value] = merged.get(value, _ANY_SLOT) & allowed
    values = sorted(merged, key=lambda v: len(merged[v]))
    result = {}
    taken = set()

    def backtrack(index):
        if index == len(values):
            return True
        value = values[index]
        for slot in sorted(merged[value]):
            if slot in taken:
                continue
            result[value] = slot
            taken.add(slot)
            if backtrack(index + 1):
                return True
            taken.discard(slot)
            del result[value]
        return False

    return result if backtrack(0) else None


def map_candidate(candidate, target):
    """Map ``candidate`` onto ``target`` (a PatchType or a 2-tuple).

    Returns a :class:`Mapping` or ``None``.
    """
    ptypes = (target,) if not isinstance(target, tuple) else tuple(target)
    if not 1 <= len(ptypes) <= 2:
        raise ValueError("target must be one patch type or a pair")
    if len(ptypes) == 2 and not all(p.fusible for p in ptypes):
        return None
    mnodes = _build_map_nodes(candidate)
    if len(mnodes) > 4 * len(ptypes):
        return None
    has_mem = any(node.kind is UnitKind.LMAU for node in mnodes)
    if has_mem and not any(p.has_lmau for p in ptypes):
        return None

    state = _Assignment(ptypes, mnodes)
    solution = {}

    def search(index):
        if index == len(mnodes):
            return _verify(ptypes, mnodes, state.place)
        node = mnodes[index]
        for option in state.options(node):
            state.place[node.idx] = option
            state.used.add(option)
            found = search(index + 1)
            state.used.discard(option)
            if found is not None:
                return found
            del state.place[node.idx]
        if node.idx in state.place:
            del state.place[node.idx]
        return None

    found = search(0)
    if found is None:
        return None

    def reg_of(orig):
        return candidate.dfg.nodes[orig].out_reg if orig is not None else 0

    if isinstance(found["config"], FusedConfig):
        # FusedConfig.outs is explicit; bindings follow the same order.
        out_binding = [reg_of(orig) for _source, orig in found["outs"]]
    else:
        # A single patch always returns [out0, out1]; align registers
        # with that fixed order, discarding unused trailing slots.
        tags = dict(found["outs"])
        if "out1" in tags:
            out_binding = [reg_of(tags.get("out0")), reg_of(tags["out1"])]
        else:
            out_binding = [reg_of(tags.get("out0"))]
    return Mapping(candidate, found["config"], found["operands"], out_binding,
                   remote_node_ids=found.get("remote_ids", ()))
