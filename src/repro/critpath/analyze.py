"""Critical-path extraction, slack and attribution.

The critical path is found by walking *tight* edges (zero local slack)
backward from the virtual END node.  Construction guarantees at least
one tight incoming edge at every non-start node of a causally
consistent recording, and the walk telescopes node times, so the sum
of the path's edge weights equals the makespan exactly — the V1000
invariant.

On top of the path itself the analyzer computes:

* per-edge **local slack** (``t_dst - t_src - weight``; negative means
  an effect preceded its cause — V1001) and CPM **total float** (how
  far the segment could stretch before END moves),
* **attribution** of critical time — per edge kind, per tile (compute/
  inject/drain/sync), per channel (noc edges) and per NoC link (the
  crossings recorded under critical noc edges),
* for partial runs, the **blocked frontier**: the receives that were
  still waiting when the run died, straight from the recorder and the
  scheduler's error snapshot.
"""

from repro.critpath.graph import (
    COMPUTE,
    DRAIN,
    FINISH,
    INJECT,
    NOC,
    SYNC,
)

TILE_KINDS = (COMPUTE, INJECT, DRAIN, SYNC, FINISH)


class CriticalStep:
    """One edge of the critical path, annotated for reporting."""

    __slots__ = ("edge", "src", "dst", "kind", "weight", "tile", "channel")

    def __init__(self, edge, src, dst):
        self.edge = edge
        self.src = src
        self.dst = dst
        self.kind = edge.kind
        self.weight = edge.weight
        if edge.kind == NOC:
            self.tile = None
            self.channel = (src.tile, dst.tile)
        else:
            self.tile = dst.tile if dst.tile is not None else src.tile
            self.channel = None

    def to_dict(self):
        payload = {
            "kind": self.kind,
            "weight": self.weight,
            "from": {"node": self.src.id, "tile": self.src.tile,
                     "time": self.src.time, "role": self.src.role},
            "to": {"node": self.dst.id, "tile": self.dst.tile,
                   "time": self.dst.time, "role": self.dst.role},
        }
        if self.channel is not None:
            payload["channel"] = list(self.channel)
        if self.edge.record is not None:
            payload["record"] = self.edge.record
        return payload


class CritPathAnalysis:
    """The analyzer's full result for one graph."""

    def __init__(self, graph):
        self.graph = graph
        self.makespan = graph.makespan
        self.negative_edges = []     # edges with local slack < 0
        self.backward_edges = []     # edges whose dst precedes src
        self.cycle_nodes = []        # non-empty if the graph is not a DAG
        self.steps = []              # critical path, execution order
        self.total = 0               # sum of critical edge weights
        self.float_by_edge = {}      # edge index -> CPM total float
        self._analyze()

    # -- construction --------------------------------------------------------

    def _analyze(self):
        graph = self.graph
        for edge in graph.edges:
            slack = graph.slack(edge)
            if slack < 0:
                self.negative_edges.append(edge)
            if graph.nodes[edge.dst].time < graph.nodes[edge.src].time:
                self.backward_edges.append(edge)
        self._walk_critical()
        self._total_float()

    def _walk_critical(self):
        graph = self.graph
        incoming = graph.in_edges()
        node = graph.end_node
        path = []
        # A causally broken graph (tight cycle) could otherwise walk
        # forever; every step consumes a distinct edge in a DAG.
        for _ in range(len(graph.edges) + 1):
            candidates = [e for e in incoming[node.id] if graph.is_tight(e)]
            if not candidates:
                break
            # Deterministic tie-break: stay on the same tile if possible,
            # then take the earliest-created predecessor.
            candidates.sort(
                key=lambda e: (graph.nodes[e.src].tile != node.tile, e.src)
            )
            edge = candidates[0]
            src = graph.nodes[edge.src]
            path.append(CriticalStep(edge, src, node))
            node = src
            if node.role == "start":
                break
        path.reverse()
        self.steps = path
        self.total = sum(step.weight for step in path)

    def _topo_order(self):
        """Kahn's order over the edge list; detects causal cycles."""
        graph = self.graph
        indegree = {node.id: 0 for node in graph.nodes}
        outgoing = graph.out_edges()
        for edge in graph.edges:
            indegree[edge.dst] += 1
        frontier = [nid for nid, deg in sorted(indegree.items()) if deg == 0]
        order = []
        while frontier:
            nid = frontier.pop()
            order.append(nid)
            for edge in outgoing[nid]:
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    frontier.append(edge.dst)
        if len(order) != len(graph.nodes):
            self.cycle_nodes = sorted(
                nid for nid, deg in indegree.items() if deg > 0
            )
        return order

    def _total_float(self):
        """CPM latest times -> per-edge total float."""
        graph = self.graph
        order = self._topo_order()
        if self.cycle_nodes:
            return
        outgoing = graph.out_edges()
        latest = {node.id: None for node in graph.nodes}
        latest[graph.end_node.id] = graph.makespan
        for nid in reversed(order):
            if not outgoing[nid]:
                if latest[nid] is None:
                    latest[nid] = graph.nodes[nid].time
                continue
            bound = min(
                latest[edge.dst] - edge.weight for edge in outgoing[nid]
            )
            latest[nid] = bound if latest[nid] is None else min(latest[nid],
                                                                bound)
        for index, edge in enumerate(graph.edges):
            self.float_by_edge[index] = (
                latest[edge.dst] - graph.nodes[edge.src].time - edge.weight
            )

    # -- queries -------------------------------------------------------------

    def reconciled(self):
        """The V1000 invariant: path length == end-to-end cycles."""
        return self.total == self.makespan

    def consistent(self):
        """The V1001 invariant: causality holds everywhere."""
        return not (self.negative_edges or self.backward_edges
                    or self.cycle_nodes)

    def attribution(self):
        """Critical time split per kind / tile / channel / link."""
        kinds = {}
        tiles = {}
        channels = {}
        links = {}
        for step in self.steps:
            kinds[step.kind] = kinds.get(step.kind, 0) + step.weight
            if step.channel is not None:
                key = f"{step.channel[0]}->{step.channel[1]}"
                channels[key] = channels.get(key, 0) + step.weight
                record = self.graph.records[step.edge.record]
                binding = self.graph.records[record.binding]
                for link, _crossed, flits, waited in binding.crossings:
                    entry = links.setdefault(
                        link, {"crossings": 0, "flits": 0, "waited": 0}
                    )
                    entry["crossings"] += 1
                    entry["flits"] += flits
                    entry["waited"] += waited
            elif step.tile is not None:
                entry = tiles.setdefault(step.tile, {})
                entry[step.kind] = entry.get(step.kind, 0) + step.weight
        shares = {}
        for tile, entry in tiles.items():
            shares[tile] = sum(entry.values())
        return {
            "kinds": kinds,
            "tiles": tiles,
            "tile_critical_cycles": shares,
            "channels": channels,
            "links": links,
        }

    def slack_summary(self, top=10):
        graph = self.graph
        ranked = sorted(
            (
                (self.float_by_edge.get(i, graph.slack(edge)), i, edge)
                for i, edge in enumerate(graph.edges)
                if edge.kind != FINISH
            ),
            key=lambda item: (-item[0], item[1]),
        )
        entries = []
        for slack, index, edge in ranked:
            if slack <= 0 or len(entries) >= top:
                break
            src = graph.nodes[edge.src]
            dst = graph.nodes[edge.dst]
            entries.append({
                "edge": index,
                "kind": edge.kind,
                "tile": dst.tile,
                "weight": edge.weight,
                "float": slack,
                "window": [src.time, dst.time],
            })
        return entries

    def frontier(self):
        """The blocked receives of a partial run (empty if complete)."""
        if not self.graph.partial():
            return {}
        frontier = {
            tile: dict(info) for tile, info in self.graph.blocked.items()
        }
        snapshot = self.graph.snapshot
        # Round-budget and watchdog snapshots nest the blocked tiles;
        # deadlock snapshots map tiles directly.
        blocked_snap = snapshot.get("blocked_tiles",
                                    snapshot.get("tiles", snapshot))
        for tile, info in blocked_snap.items():
            entry = frontier.setdefault(int(tile), {})
            entry["snapshot"] = info
        return frontier

    def to_dict(self):
        graph = self.graph
        return {
            "makespan": self.makespan,
            "critical_cycles": self.total,
            "reconciled": self.reconciled(),
            "consistent": self.consistent(),
            "outcome": graph.outcome,
            "critical_path": [step.to_dict() for step in self.steps],
            "attribution": self.attribution(),
            "slack": {
                "negative_edges": len(self.negative_edges),
                "backward_edges": len(self.backward_edges),
                "causal_cycle_nodes": self.cycle_nodes,
                "top": self.slack_summary(),
            },
            "frontier": {
                str(tile): info for tile, info in self.frontier().items()
            },
        }


def analyze(graph):
    """Analyze one :class:`~repro.critpath.graph.DependencyGraph`."""
    return CritPathAnalysis(graph)
