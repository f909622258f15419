"""Inter-core NoC timing models.

Per Table II each hop costs a router-pipeline traversal plus a link
cycle.  For a packet of ``F`` flits over ``H`` hops, the uncontended
pipeline latency is::

    (router_stages + link_cycles) * H + (F - 1)

(the head flit pays the full per-hop pipeline; body flits stream behind
it).  The link-reservation model additionally serializes packets that
compete for the same physical link, so congestion delays are captured
without simulating individual router microarchitecture.

The stage/link/flit numbers come from a
:class:`repro.platform.NoCParams` (default: the stitch preset).
"""

from repro.noc.packet import packetize
from repro.noc.topology import Mesh
from repro.platform import DEFAULT_PLATFORM
from repro.probe import NULL_PROBE

# Derived compatibility aliases — the numbers themselves live in
# repro.platform's presets (single source of truth).
ROUTER_STAGES = DEFAULT_PLATFORM.noc.router_stages
LINK_CYCLES = DEFAULT_PLATFORM.noc.link_cycles


class LinkSchedule:
    """Tracks the next free cycle of one directed link."""

    __slots__ = ("free_at",)

    def __init__(self):
        self.free_at = 0

    def reserve(self, start, flits):
        """Reserve the link for ``flits`` consecutive cycles from ``start``.

        Returns the cycle at which the head flit actually crosses.
        """
        begin = max(start, self.free_at)
        self.free_at = begin + flits
        return begin


class Network:
    """The mesh NoC connecting the cores.

    ``send(src, dst, nwords, time)`` returns ``(arrival, injection_done)``:
    when the last flit reaches ``dst`` and when the source NIC finishes
    injecting (the core is free again after ``injection_done``).
    ``probe`` observes every link crossing and may delay arrivals.
    """

    def __init__(self, mesh=None, contention=True, probe=None, params=None):
        self.params = params if params is not None else DEFAULT_PLATFORM.noc
        self.router_stages = self.params.router_stages
        self.link_cycles = self.params.link_cycles
        self.mesh = mesh if mesh is not None else Mesh.from_params(self.params)
        self.contention = contention
        self.probe = probe if probe is not None else NULL_PROBE
        self._wait_hist = self.probe.histogram("noc.link_wait")
        self._links = {}
        self.packets_sent = 0
        self.flits_sent = 0
        self.total_hops = 0
        # Per-link utilization (flit-cycles the link carried traffic)
        # and queueing delay actually paid beyond the uncontended
        # pipeline, keyed by directed link.
        self.link_busy = {}
        self.link_wait = {}
        self.contention_delay = 0

    def _link(self, src, dst):
        key = (src, dst)
        schedule = self._links.get(key)
        if schedule is None:
            schedule = LinkSchedule()
            self._links[key] = schedule
        return schedule

    def uncontended_latency(self, src, dst, nwords):
        """Analytic latency of a whole message, ignoring contention."""
        hops = self.mesh.hop_count(src, dst)
        packets = packetize(src, dst, nwords, params=self.params)
        total_flits = sum(p.flits for p in packets)
        # Packets of one message stream back-to-back; latency is the head
        # pipeline plus total serialization.
        per_hop = self.router_stages + self.link_cycles
        return per_hop * max(hops, 1) + total_flits - 1

    def send(self, src, dst, nwords, time):
        """Inject a message; returns ``(arrival_cycle, injection_done)``."""
        # Fault injection: a flaky link holds the message ``extra``
        # cycles past the modelled arrival (the NIC itself is unharmed,
        # so injection_done is unaffected).
        probe = self.probe
        observed = probe.enabled
        extra = probe.link_delay(src, dst, time) if observed else 0
        if src == dst:
            # Local loopback through the NIC: just serialization.
            packets = packetize(src, dst, nwords, params=self.params)
            flits = sum(p.flits for p in packets)
            self.packets_sent += len(packets)
            self.flits_sent += flits
            return time + flits + extra, time + flits
        route = self.mesh.route_links(src, dst)
        hops = len(route)
        arrival = time
        injection_done = time
        cursor = time
        for packet in packetize(src, dst, nwords, params=self.params):
            flits = packet.flits
            self.packets_sent += 1
            self.flits_sent += flits
            self.total_hops += hops
            if self.contention:
                head_time = cursor
                for link_index, link in enumerate(route):
                    schedule = self._link(*link)
                    # Head flit reaches this link after the router pipeline.
                    earliest = head_time + self.router_stages
                    crossed = schedule.reserve(earliest, flits)
                    waited = crossed - earliest
                    self.link_busy[link] = self.link_busy.get(link, 0) + flits
                    if waited:
                        self.link_wait[link] = (
                            self.link_wait.get(link, 0) + waited
                        )
                        self.contention_delay += waited
                    self._wait_hist.observe(waited)
                    if observed:
                        probe.link_reserved(link, src, dst, crossed, flits,
                                            waited)
                    head_time = crossed + self.link_cycles
                    if link_index == 0:
                        injection_done = max(injection_done, crossed + flits)
                packet_arrival = head_time + flits - 1
            else:
                per_hop = self.router_stages + self.link_cycles
                packet_arrival = cursor + per_hop * hops + flits - 1
                injection_done = max(injection_done, cursor + flits)
                for link_index, link in enumerate(route):
                    self.link_busy[link] = self.link_busy.get(link, 0) + flits
                    if observed:
                        crossed = (cursor + self.router_stages
                                   + per_hop * link_index)
                        probe.link_reserved(link, src, dst, crossed, flits, 0)
            arrival = max(arrival, packet_arrival)
            cursor += flits  # next packet streams behind this one
        return arrival + extra, injection_done

    def stats(self):
        """Aggregate NoC statistics (feeds the SystemStats roll-up)."""
        return {
            "packets": self.packets_sent,
            "flits": self.flits_sent,
            "hops": self.total_hops,
            "contention_delay": self.contention_delay,
            "link_busy": dict(self.link_busy),
            "link_wait": dict(self.link_wait),
        }

    def reset_stats(self):
        self.packets_sent = 0
        self.flits_sent = 0
        self.total_hops = 0
        self.link_busy.clear()
        self.link_wait.clear()
        self.contention_delay = 0

    def reset(self):
        self._links.clear()
        self.reset_stats()
