"""ISE candidate enumeration (Figure 6's "ISE identifier").

Candidates are connected, convex subgraphs of a hot block's DFG obeying
the register-file constraint: at most 4 inputs and 2 outputs
(Section IV).  Connected subgraphs are enumerated exactly once with the
ESU algorithm (Wernicke 2006); convexity and I/O limits filter the
stream.  Each subgraph carries the bitset unions of its members'
descendant and ancestor closures, memory-order bits and input refs, so
its convexity test (:meth:`DFG.convex`) and port counts are a few mask
operations; a :class:`Candidate` is built only for feasible ones.  The
``max_size`` bound (default 8 — the unit budget of a fused pair) keeps
enumeration tractable on large blocks.
"""

from repro.provenance.records import (
    REJECT_CONVEXITY,
    REJECT_INPUTS,
    REJECT_OUTPUTS,
)


class Candidate:
    """One custom-instruction candidate over a block DFG."""

    __slots__ = ("dfg", "node_ids", "inputs", "outputs")

    def __init__(self, dfg, node_ids):
        self.dfg = dfg
        self.node_ids = frozenset(node_ids)
        self.inputs = dfg.external_inputs(self.node_ids)
        self.outputs = dfg.outputs(self.node_ids)

    @property
    def size(self):
        return len(self.node_ids)

    def nodes(self):
        """Member nodes in topological (block-position) order."""
        return sorted(
            (self.dfg.nodes[node_id] for node_id in self.node_ids),
            key=lambda node: node.pos,
        )

    def software_instructions(self):
        """Instruction count the candidate replaces."""
        return self.size

    def signature(self):
        """Op-class string of members in position order (e.g. ``MAAT``)."""
        return "".join(node.cls.value for node in self.nodes())

    def __repr__(self):
        ops = "+".join(node.op.value for node in self.nodes())
        return f"Candidate({ops}, in={len(self.inputs)}, out={len(self.outputs)})"

    def __eq__(self, other):
        return (
            isinstance(other, Candidate)
            and self.dfg is other.dfg
            and self.node_ids == other.node_ids
        )

    def __hash__(self):
        return hash(self.node_ids)


def _adjacency(dfg, eligible_ids):
    """Undirected value-edge adjacency restricted to eligible nodes."""
    adj = {node_id: set() for node_id in eligible_ids}
    for node_id in eligible_ids:
        node = dfg.nodes[node_id]
        for pred in node.value_pred_ids():
            if pred in adj:
                adj[node_id].add(pred)
                adj[pred].add(node_id)
    return adj


def enumerate_candidates(
    dfg,
    max_size=8,
    min_size=2,
    max_inputs=4,
    max_outputs=2,
    limit=20000,
    observer=None,
):
    """All feasible candidates of a block DFG, largest first.

    ``limit`` bounds the number of connected subgraphs visited; blocks
    big enough to hit it get a truncated (still valid) candidate set.

    ``observer`` optionally receives provenance callbacks (the
    :class:`repro.provenance.EnumerationLog` protocol):
    ``note_visited()`` per subgraph examined, ``note_rejected(reason)``
    per infeasible one — convexity or the 4-input/2-output register-file
    budget — and ``note_truncated()`` when ``limit`` cuts the sweep
    short.  Passing ``None`` (the default) costs nothing.
    """
    eligible_ids = [node.id for node in dfg.eligible_nodes()]
    sweep = _Sweep(dfg, _adjacency(dfg, eligible_ids), max_size, min_size,
                   max_inputs, max_outputs, limit, observer)
    for root in sorted(eligible_ids):
        ext0 = [u for u in sweep.adjacency[root] if u > root]
        sweep.extend({root}, ext0, root, {root} | sweep.adjacency[root],
                     *dfg.masks((root,)))
    found = sweep.found
    found.extend(_independent_pairs(dfg, eligible_ids, sweep.feasible))
    found.sort(key=lambda c: (-c.size, sorted(c.node_ids)))
    return found


class _Sweep:
    """One ESU sweep: its bounds, its observer and what it has found."""

    def __init__(self, dfg, adjacency, max_size, min_size, max_inputs,
                 max_outputs, limit, observer):
        self.dfg = dfg
        self.adjacency = adjacency
        self.max_size = max_size
        self.min_size = min_size
        self.max_inputs = max_inputs
        self.max_outputs = max_outputs
        self.limit = limit
        self.observer = observer
        self.found = []
        self.visited = 0

    def feasible(self, node_set, members, desc, anc, mem, ins):
        """The candidate over ``node_set``, or ``None``; the masks are
        ``dfg.masks(node_set)``, carried incrementally by ``extend``."""
        dfg, observer = self.dfg, self.observer
        if observer is not None:
            observer.note_visited()
        if not dfg.convex(members, desc, anc, mem):
            if observer is not None:
                observer.note_rejected(REJECT_CONVEXITY)
            return None
        if bin(ins & ~members).count("1") > self.max_inputs:
            if observer is not None:
                observer.note_rejected(REJECT_INPUTS)
            return None
        # Zero outputs is legal (pure store patterns); codegen binds a
        # placeholder destination register.
        outputs = sum(dfg.escapes(node_id, members) for node_id in node_set)
        if outputs > self.max_outputs:
            if observer is not None:
                observer.note_rejected(REJECT_OUTPUTS)
            return None
        return Candidate(dfg, node_set)

    def extend(self, sub, ext, root, sub_neighborhood, members, desc, anc,
               mem, ins):
        if self.visited >= self.limit:
            if self.observer is not None:
                self.observer.note_truncated()
            return
        self.visited += 1
        if len(sub) >= self.min_size:
            candidate = self.feasible(sub, members, desc, anc, mem, ins)
            if candidate is not None:
                self.found.append(candidate)
        if len(sub) >= self.max_size:
            return
        adjacency = self.adjacency
        dfg = self.dfg
        ext = list(ext)
        while ext:
            w = ext.pop()
            exclusive = [
                u for u in adjacency[w]
                if u > root and u not in sub and u not in sub_neighborhood
            ]
            self.extend(
                sub | {w},
                ext + exclusive,
                root,
                sub_neighborhood | {w} | adjacency[w],
                members | 1 << w,
                desc | dfg.descendants[w],
                anc | dfg.ancestors[w],
                mem | dfg.mem_bits[w],
                ins | dfg.input_bits[w],
            )


def _independent_pairs(dfg, eligible_ids, feasible):
    """Disconnected two-node candidates.

    A patch's two outputs let it execute two *independent* operations
    in one cycle (e.g. the paired pointer bumps of a streaming loop),
    so dataflow-disconnected pairs are legal custom instructions too.
    Memory operations are excluded — the single LMAU cannot pair and
    reordering-safety analysis for disconnected stores is not worth
    the marginal gain.
    """
    descendants, ancestors = dfg.descendants, dfg.ancestors
    compute_ids = [
        node_id for node_id in eligible_ids if not dfg.nodes[node_id].is_mem
    ]
    pairs = []
    for index, a in enumerate(compute_ids):
        for b in compute_ids[index + 1:]:
            if (descendants[a] | ancestors[a]) >> b & 1:
                continue  # one reaches the other
            candidate = feasible({a, b}, *dfg.masks((a, b)))
            if candidate is not None:
                pairs.append(candidate)
    return pairs
