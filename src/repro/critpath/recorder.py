"""Causal execution-graph recording for multi-tile runs.

A :class:`DependencyRecorder` observes one run of the co-simulator and
keeps, per tile, the alternating compute/communication segments in
program order, plus the cross-tile provenance of every received word.
The recorder is a :class:`~repro.probe.Probe` with no per-instruction
hook: compute segments are reconstructed from the tile-local clock at
the comm events that bracket them.

The fabric records each communication op as it completes it:
``fabric_send`` knows the NoC arrival, the injection-done cycle and
the per-link crossings, ``fabric_recv`` the ready time, the drain and
the FIFO provenance of the popped words (via :class:`ChannelMatcher`).
Each record also snapshots the counters of the core it was attached
to (instructions, stall buckets, cache misses/writebacks), so each
compute segment carries an exact attribution and miss composition (the
substrate of DRAM-latency what-ifs).

``run_end`` finalizes the run; a ``deadlock``/``timeout``/``budget``
outcome finalizes a *partial* graph whose blocked receives become
frontier nodes instead of crashing the analysis.

This module must not import :mod:`repro.telemetry` or the simulator —
both import it.
"""

from repro.critpath.matcher import ChannelMatcher
from repro.probe import Probe

#: Counter snapshot order (see :func:`counters`).  The first four
#: partition a compute segment's cycles exactly
#: (``cycles == instructions + memory + icache + branch`` between comm
#: ops — the attribution invariant); the last three are the DRAM-touch
#: counts a ``dram_latency`` what-if needs (each miss/writeback costs
#: exactly one DRAM latency).
COUNTER_FIELDS = (
    "instructions",
    "memory_stall",
    "icache_stall",
    "branch_bubble",
    "icache_misses",
    "dcache_misses",
    "dcache_writebacks",
    "cix",
)

_ZEROS = (0,) * len(COUNTER_FIELDS)


def counters(core):
    """``core``'s counter snapshot in :data:`COUNTER_FIELDS` order."""
    memory = core.memory
    return (
        core.instret,
        core.stall_memory,
        core.stall_icache,
        core.stall_branch,
        memory.icache.misses,
        memory.dcache.misses,
        memory.dcache.writebacks,
        core.cix_retired,
    )

KIND_SEND = "send"
KIND_RECV = "recv"
KIND_HALT = "halt"
KIND_BLOCKED = "blocked"
KIND_CUT = "cut"


class OpRecord:
    """One tile-local event: a comm op, the halt, or a blocked recv.

    ``issue``/``end`` are tile-local cycles; the compute segment that
    *precedes* the event (from the previous event's ``end``) is stored
    on the record as ``compute`` plus its counter deltas, so each
    record fully describes one "compute then operate" step.
    """

    __slots__ = (
        "index", "kind", "tile", "seq", "issue", "end", "compute",
        "counters", "peer", "words",
        "arrival", "inject", "crossings",       # send
        "ready", "drain", "sources",            # recv
    )

    def __init__(self, index, kind, tile, seq, issue, end, compute,
                 counters, peer=None, words=None, arrival=None,
                 inject=None, crossings=(), ready=None, drain=None,
                 sources=()):
        self.index = index
        self.kind = kind
        self.tile = tile
        self.seq = seq
        self.issue = issue
        self.end = end
        self.compute = compute
        self.counters = counters
        self.peer = peer
        self.words = words
        self.arrival = arrival
        self.inject = inject
        self.crossings = list(crossings)
        self.ready = ready
        self.drain = drain
        self.sources = list(sources)

    @property
    def noc(self):
        """NoC flight time of a send: issue to last-flit arrival."""
        return self.arrival - self.issue if self.arrival is not None else None

    @property
    def wait(self):
        """Cycles a recv stalled beyond its local issue point."""
        if self.ready is None:
            return 0
        return max(0, self.ready - self.issue)

    @property
    def binding(self):
        """Record index of the send that delivered the last word."""
        return self.sources[-1][0] if self.sources else None

    def to_dict(self):
        payload = {
            "index": self.index,
            "kind": self.kind,
            "tile": self.tile,
            "seq": self.seq,
            "issue": self.issue,
            "end": self.end,
            "compute": self.compute,
            "counters": dict(self.counters),
        }
        if self.peer is not None:
            payload["peer"] = self.peer
        if self.words is not None:
            payload["words"] = self.words
        if self.kind == KIND_SEND:
            payload["arrival"] = self.arrival
            payload["inject"] = self.inject
            if self.crossings:
                payload["crossings"] = [list(c) for c in self.crossings]
        if self.kind == KIND_RECV:
            payload["ready"] = self.ready
            payload["drain"] = self.drain
            payload["sources"] = [list(s) for s in self.sources]
        return payload

    @classmethod
    def from_dict(cls, payload):
        return cls(
            payload["index"], payload["kind"], payload["tile"],
            payload["seq"], payload["issue"], payload["end"],
            payload["compute"], dict(payload.get("counters", {})),
            peer=payload.get("peer"), words=payload.get("words"),
            arrival=payload.get("arrival"), inject=payload.get("inject"),
            crossings=[tuple(c) for c in payload.get("crossings", ())],
            ready=payload.get("ready"), drain=payload.get("drain"),
            sources=[tuple(s) for s in payload.get("sources", ())],
        )

    def __repr__(self):
        return (f"OpRecord({self.kind} tile {self.tile} seq {self.seq} "
                f"@{self.issue}..{self.end})")


class DependencyRecorder(Probe):
    """Records the causal dependency structure of one run."""

    observes_core = True

    def __init__(self, platform=None):
        self.records = []
        self.outcome = None   # "complete" | "deadlock" | "timeout" | "budget"
        self.snapshot = {}             # error snapshot for partial runs
        self.blocked = {}              # tile -> {"peer", "words", "cycles"}
        self.meta = {}
        if platform is not None:
            self.meta = {
                "platform": platform.name,
                "dram_latency": platform.mem.dram_latency,
            }
        self.chaos_events = []         # (tile, kind, site, cycle) tuples
        self._matcher = ChannelMatcher()
        self._snap = {}                # tile -> counter tuple
        self._prev_end = {}            # tile -> local clock after last event
        self._seq = {}                 # tile -> next sequence number
        self._crossings = []           # scratch: current packet's links
        self._cores = {}               # tile -> core (counter snapshots)

    def attach(self, core):
        self._cores[core.core_id] = core
        return super().attach(core)

    # -- fabric-side hooks --------------------------------------------------

    def link_reserved(self, link, src, dst, start, flits, waited):
        """One packet crossing one directed link (from the NoC model)."""
        self._crossings.append((f"{link[0]}->{link[1]}", start, flits,
                                waited))

    def fabric_send(self, src, dst, words, now, arrival, injection_done,
                    dropped=False):
        """A send left its core, which is busy until ``injection_done``.
        A dropped message arrives nowhere, so no receive can pop it."""
        record = self._record(KIND_SEND, src, now, injection_done,
                              counters(self._cores[src]), peer=dst,
                              words=words,
                              arrival=injection_done if dropped else arrival,
                              inject=injection_done - now,
                              crossings=self._crossings)
        self._crossings = []
        if not dropped:
            self._matcher.push(src, dst, record.index, words)

    def fabric_recv(self, src, dst, words, now, ready, finish, drain):
        """A receive popped its words: the core is busy until ``finish``."""
        self.blocked.pop(dst, None)
        self._record(KIND_RECV, dst, now, finish, counters(self._cores[dst]),
                     peer=src, words=words, ready=ready, drain=drain,
                     sources=self._matcher.pop(src, dst, words))

    # -- core-side hooks -----------------------------------------------------

    def comm_blocked(self, tile, peer, words, time):
        """A receive found no data; overwritten on every re-poll."""
        self.blocked[tile] = {"peer": peer, "words": words, "cycles": time}

    def chaos_event(self, tile, kind, site, cycle, detail):
        """A fault-injection event (fault/detect/recover) on one tile.

        Kept as a side-band annotation stream so causal analyses can
        correlate anomalous segments with the injected faults that
        caused them.
        """
        self.chaos_events.append((tile, kind, site, cycle))

    # -- finalization --------------------------------------------------------

    def run_end(self, cores, reasons, outcome, snapshot=None, energy=None,
                rollup=None):
        """Close every tile's timeline: its final compute segment + state.

        A core whose stop reason is ``halt`` ends finished; anything
        else (a blocked receive, an exhausted round budget) yields a
        ``blocked`` or ``cut`` terminal so partial graphs stay
        analyzable.
        """
        for core in cores:
            tile, cycles = core.core_id, core.cycles
            snap = counters(core)
            info = self.blocked.get(tile)
            if reasons[core] == KIND_HALT:
                self._record(KIND_HALT, tile, cycles, cycles, snap)
            elif info is not None:
                self._record(KIND_BLOCKED, tile, cycles, cycles, snap,
                             peer=info["peer"], words=info["words"])
            else:
                self._record(KIND_CUT, tile, cycles, cycles, snap)
        self.outcome = outcome
        if snapshot is not None:
            self.snapshot = snapshot

    # -- views ---------------------------------------------------------------

    def tiles(self):
        """{tile: [records in program order]}."""
        by_tile = {}
        for record in self.records:
            by_tile.setdefault(record.tile, []).append(record)
        return by_tile

    def makespan(self):
        """Latest recorded local cycle across all tiles (0 if empty)."""
        return max((r.end for r in self.records), default=0)

    def __len__(self):
        return len(self.records)

    # -- internals -----------------------------------------------------------

    def _record(self, kind, tile, issue, end, counters, **fields):
        previous = self._snap.get(tile, _ZEROS)
        deltas = {
            field: counters[i] - previous[i]
            for i, field in enumerate(COUNTER_FIELDS)
            if counters[i] != previous[i]
        }
        self._snap[tile] = counters
        prev_end = self._prev_end.get(tile, 0)
        self._prev_end[tile] = end
        seq = self._seq.get(tile, 0)
        self._seq[tile] = seq + 1
        record = OpRecord(len(self.records), kind, tile, seq, issue, end,
                          issue - prev_end, deltas, **fields)
        self.records.append(record)
        return record
