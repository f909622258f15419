"""Structured event tracing with Chrome trace-event export.

The :class:`Tracer` records spans (instruction slices, NoC link
reservations), instants (send/recv, block/unblock, cache misses,
``cix`` invocations) and counters on named tracks, as one ordered log
of plain tuples: each hook appends one row that holds only its own
arguments.  Names, tracks, args dicts and :class:`TraceEvent` records
are built only when :attr:`Tracer.events` is read or the log is
exported as a Chrome trace-event JSON object (loadable by
``chrome://tracing`` and Perfetto).  Tracks map to one thread per tile
under a ``tiles`` process plus one thread per directed link under a
``noc`` process.

Timestamps are simulated cycles, written to the ``ts``/``dur``
microsecond fields verbatim (at the paper's 200 MHz, 1 cycle = 5 ns;
the viewer's absolute unit is irrelevant — relative placement is what
matters).

The tracer is a :class:`~repro.probe.Probe`: its typed domain events
are the probe hooks of the same names, so a run that does not trace
holds the null probe and never calls them.  A send or receive span is
written by ``comm_send``/``comm_recv``, which the fabric's
``fabric_send``/``fabric_recv`` hooks call.  ``cix``, nearly every
event of an observed co-simulation, appends a four-field row that
export expands to the instant ``instant`` would have recorded.
"""

import gzip
import json
from collections import namedtuple

from repro.probe import Probe

SPAN = "span"
INSTANT = "instant"
COUNTER = "counter"
#: Tag of a ``cix`` row, ``(CIX, tile, cfg_id, time)``.
CIX = "cix"

# Track namespaces (Chrome "processes").
TILES = "tiles"
NOC = "noc"
COMPILER = "compiler"

_PIDS = {TILES: 1, NOC: 2, COMPILER: 3}


def _open_trace(path, mode="w"):
    """Text handle for a trace file; a ``.gz`` suffix selects gzip.

    Chrome traces compress ~10x and both ``chrome://tracing`` and
    Perfetto load gzipped JSON directly, so long co-simulations should
    just name the file ``trace.json.gz``.  ``mode`` is ``"w"`` or
    ``"r"`` — readers (``repro monitor``) get the same transparent
    gzip handling as writers.
    """
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode)


class TraceEvent(namedtuple(
        "TraceEvent", "kind track name time duration category args")):
    """One recorded event on one track; ``track`` is ``(namespace,
    label)``, e.g. ``("tiles", 3)``."""

    __slots__ = ()


def _expand(row):
    """The seven :class:`TraceEvent` fields of one log row: a ``cix`` row
    stands for the instant ``instant`` would have recorded."""
    if row[0] == CIX:
        _, tile, cfg_id, time = row
        return (INSTANT, (TILES, tile), f"cix cfg{cfg_id}", time, 0,
                "patch", {"cfg": cfg_id})
    return row


class Tracer(Probe):
    """Ordered in-memory event log with domain-specific constructors.

    Each row is ``(kind, track, name, time, duration, category, args)``,
    or ``(CIX, tile, cfg_id, time)`` for a ``cix``."""

    observes_core = True

    def __init__(self):
        self._rows = []

    @property
    def events(self):
        """Every event as a :class:`TraceEvent`, in record order (a new
        list, built from the log on each read)."""
        return [TraceEvent._make(_expand(row)) for row in self._rows]

    # -- generic event kinds -------------------------------------------------

    def span(self, track, name, start, end, category="", **args):
        self._rows.append((SPAN, track, name, start, max(end - start, 0),
                           category, args))

    def instant(self, track, name, time, category="", **args):
        self._rows.append((INSTANT, track, name, time, 0, category, args))

    def counter(self, track, name, time, value):
        self._rows.append((COUNTER, track, name, time, 0, "counter",
                           {"value": value}))

    # -- typed domain events -------------------------------------------------

    def tile_span(self, tile, name, start, end, reason, instructions):
        """One ``Core.run`` instruction slice."""
        self.span((TILES, tile), name, start, end, category="core",
                  reason=reason, instructions=instructions)

    def fabric_send(self, src, dst, words, now, arrival, injection_done,
                    dropped=False):
        self.comm_send(src, dst, words, now, injection_done)

    def fabric_recv(self, src, dst, words, now, ready, finish, drain):
        self.comm_recv(dst, src, words, now, finish)

    def comm_send(self, tile, peer, words, start, end):
        """A send, holding the core from ``start`` to ``end``."""
        self.span((TILES, tile), f"send->{peer}", start, end,
                  category="comm", peer=peer, words=words)

    def comm_recv(self, tile, peer, words, start, end):
        """A receive, holding the core from ``start`` to ``end``."""
        self.span((TILES, tile), f"recv<-{peer}", start, end,
                  category="comm", peer=peer, words=words)

    def comm_blocked(self, tile, peer, words, time):
        self.instant((TILES, tile), f"blocked<-{peer}", time,
                     category="comm", peer=peer, words=words)

    def comm_unblocked(self, tile, time):
        self.instant((TILES, tile), "unblocked", time, category="comm")

    def cix(self, tile, cfg_id, time):
        self._rows.append((CIX, tile, cfg_id, time))

    def cache_miss(self, tile, level, addr, time, writeback=False):
        self.instant((TILES, tile), f"{level} miss", time, category="mem",
                     addr=addr, writeback=writeback)

    def link_reserved(self, link, src, dst, start, flits, waited):
        """One packet crossing one directed NoC link."""
        self.span((NOC, f"{link[0]}->{link[1]}"), f"pkt {src}->{dst}",
                  start, start + flits, category="noc",
                  flits=flits, waited=waited)

    def deadlock(self, tile, peer, words_waiting, time):
        self.instant((TILES, tile), f"DEADLOCK waiting<-{peer}", time,
                     category="comm", peer=peer, words=words_waiting)

    def recv_timeout(self, tile, peer, waited, time, deadline, horizon):
        """The receive watchdog expired on one blocked tile."""
        self.instant((TILES, tile), f"RECV TIMEOUT waiting<-{peer}", time,
                     category="chaos", peer=peer, waited=waited)

    def chaos_event(self, tile, kind, site, cycle, detail):
        """An injected fault fired, or a policy detected or repaired one."""
        self.instant((TILES, tile), f"{kind.upper()} {site}", cycle,
                     category="chaos", site=site, **detail)

    # -- export --------------------------------------------------------------

    def tracks(self):
        """All tracks in first-appearance order."""
        return list(dict.fromkeys(
            (TILES, row[1]) if row[0] == CIX else row[1]
            for row in self._rows
        ))

    def to_chrome(self):
        """The Chrome trace-event JSON object (dict)."""
        tids = {}
        trace_events = []
        for namespace, pid in sorted(_PIDS.items(), key=lambda kv: kv[1]):
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": namespace},
            })
        for track in self.tracks():
            namespace, label = track
            pid = _PIDS[namespace]
            tid = tids.setdefault(track, len(tids))
            if namespace == TILES:
                name = f"tile {label}"
            elif namespace == NOC:
                name = f"link {label}"
            else:
                name = f"compile {label}"
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": name},
            })
        # Flow events tie each send span to the recv span(s) that
        # consume its words, so the viewer draws delivery arrows across
        # tiles.  The pairing is the dependency recorder's word-FIFO
        # provenance replay (ChannelMatcher), applied to the span
        # stream — event order is channel order on the host-serial
        # simulator, exactly as in the fabric.
        from repro.critpath.matcher import ChannelMatcher

        matcher = ChannelMatcher()
        flows = []
        flow_id = 0
        for row in self._rows:
            kind, track, name, time, duration, category, args = _expand(row)
            record = {
                "name": name,
                "cat": category or track[0],
                "pid": _PIDS[track[0]],
                "tid": tids[track],
                "ts": time,
            }
            if kind == SPAN:
                record["ph"] = "X"
                record["dur"] = duration
            elif kind == INSTANT:
                record["ph"] = "i"
                record["s"] = "t"
            else:  # COUNTER
                record["ph"] = "C"
            if args:
                record["args"] = dict(args)
            trace_events.append(record)
            if kind == SPAN and category == "comm":
                tile = track[1]
                peer = args.get("peer")
                words = args.get("words", 0)
                if name.startswith("send->"):
                    matcher.push(tile, peer, record, words)
                elif name.startswith("recv<-"):
                    for source, taken in matcher.pop(peer, tile, words):
                        flow_id += 1
                        base = {
                            "name": "msg", "cat": "comm", "id": flow_id,
                            "args": {"words": taken},
                        }
                        flows.append(dict(
                            base, ph="s", pid=source["pid"],
                            tid=source["tid"], ts=source["ts"],
                        ))
                        flows.append(dict(
                            base, ph="f", bp="e", pid=record["pid"],
                            tid=record["tid"], ts=record["ts"],
                        ))
        trace_events.extend(flows)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome(self, path):
        """Write the Chrome trace JSON file (gzipped for ``*.gz``);
        returns the path."""
        # json.dumps takes the C encoder in one shot; json.dump would
        # stream through the pure-Python one.
        text = json.dumps(self.to_chrome())
        with _open_trace(path) as handle:
            handle.write(text)
        return path

    def __len__(self):
        return len(self._rows)
