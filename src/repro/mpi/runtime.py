"""Message-passing fabric over the inter-core NoC.

Each ordered pair of tiles has a :class:`Channel` — a word FIFO where
every word carries the cycle at which it arrived at the receiver.  A
``recv`` of N words completes at::

    max(local time, arrival of the Nth word) + drain cycles

where draining charges one cycle per flit of NIC-to-memory transfer.
"""

from repro.cpu.core import CommPort
from repro.noc.network import Network
from repro.noc.packet import WORDS_PER_FLIT
from repro.probe import NULL_PROBE


class Channel:
    """Words in flight (or delivered) from one tile to another."""

    __slots__ = ("words", "arrivals")

    def __init__(self):
        self.words = []
        self.arrivals = []

    def push(self, values, arrival):
        self.words.extend(values)
        self.arrivals.extend([arrival] * len(values))

    def available(self, count):
        return len(self.words) >= count

    def ready_time(self, count):
        """Arrival cycle of the ``count``-th queued word."""
        return self.arrivals[count - 1] if count else 0

    def pop(self, count):
        values = self.words[:count]
        del self.words[:count]
        del self.arrivals[:count]
        return values

    def __len__(self):
        return len(self.words)


class TileComm(CommPort):
    """The CommPort wired into one tile's core."""

    def __init__(self, fabric, tile):
        self.fabric = fabric
        self.tile = tile

    def send(self, peer, values, now):
        return self.fabric.send(self.tile, peer, values, now)

    def try_recv(self, peer, count, now):
        return self.fabric.try_recv(peer, self.tile, count, now)


class MessagePassing:
    """The shared fabric: channels + the NoC timing model.

    ``probe`` observes every message and may perturb its words.
    """

    def __init__(self, network=None, num_tiles=16, probe=None):
        self.network = network if network is not None else Network()
        self.num_tiles = num_tiles
        self.probe = probe if probe is not None else NULL_PROBE
        self._occupancy_hist = self.probe.histogram("fabric.channel_occupancy")
        self._channels = {}
        self.messages = 0
        self.words = 0
        # Occupancy tracking: words currently queued anywhere, the
        # all-time high-water mark, and a per-channel high-water mark.
        self.words_in_flight = 0
        self.max_words_in_flight = 0
        self.channel_high_water = {}

    def port(self, tile):
        """Create the comm port for ``tile``."""
        if not 0 <= tile < self.num_tiles:
            raise ValueError(f"tile out of range: {tile}")
        return TileComm(self, tile)

    def channel(self, src, dst):
        key = (src, dst)
        chan = self._channels.get(key)
        if chan is None:
            chan = Channel()
            self._channels[key] = chan
        return chan

    def send(self, src, dst, values, now):
        """Inject ``values`` from ``src`` to ``dst``; returns sender finish."""
        if not 0 <= dst < self.num_tiles:
            raise ValueError(f"destination tile out of range: {dst}")
        probe = self.probe
        observed = probe.enabled
        dropped = False
        if observed:
            # Channel corruption / dropped flits: the NoC still burns
            # the cycles either way, but dropped payloads never land.
            values, dropped = probe.outbound(src, dst, values, now)
        arrival, injection_done = self.network.send(src, dst, len(values), now)
        if observed:
            probe.fabric_send(src, dst, len(values), now, arrival,
                              injection_done, dropped)
        if dropped:
            return injection_done
        chan = self.channel(src, dst)
        chan.push(values, arrival)
        self.messages += 1
        self.words += len(values)
        self.words_in_flight += len(values)
        if self.words_in_flight > self.max_words_in_flight:
            self.max_words_in_flight = self.words_in_flight
        key = (src, dst)
        occupancy = len(chan)
        if occupancy > self.channel_high_water.get(key, 0):
            self.channel_high_water[key] = occupancy
        self._occupancy_hist.observe(occupancy)
        if observed:
            probe.channel_occupancy(src, dst, now, occupancy)
        return injection_done

    def try_recv(self, src, dst, count, now):
        """Receive ``count`` words at ``dst`` from ``src``; None if not ready."""
        chan = self.channel(src, dst)
        if not chan.available(count):
            if self.probe.enabled:
                self.probe.comm_blocked(dst, src, count, now)
            return None
        ready = chan.ready_time(count)
        values = chan.pop(count)
        self.words_in_flight -= count
        drain = (count + WORDS_PER_FLIT - 1) // WORDS_PER_FLIT
        finish = max(now, ready) + drain
        probe = self.probe
        if probe.enabled:
            # Checksum side-band verification + bounded retry-backoff.
            values, finish = probe.inbound(src, dst, values, finish)
            probe.fabric_recv(src, dst, count, now, ready, finish, drain)
        return values, finish

    def earliest_ready(self, dst):
        """Earliest arrival among words queued for ``dst`` (None if empty).

        Used by the system simulator to decide when a blocked core can
        be re-polled.
        """
        times = [
            chan.arrivals[0]
            for (src, d), chan in self._channels.items()
            if d == dst and chan.arrivals
        ]
        return min(times) if times else None

    def pending_words(self, dst=None):
        if dst is None:
            return sum(len(chan) for chan in self._channels.values())
        return sum(len(chan) for (s, d), chan in self._channels.items() if d == dst)

    def pending_channels(self, dst):
        """{src: queued words} for every non-empty channel into ``dst``."""
        return {
            src: len(chan)
            for (src, d), chan in self._channels.items()
            if d == dst and len(chan)
        }

    def stats(self):
        """Aggregate fabric statistics (feeds the SystemStats roll-up)."""
        return {
            "messages": self.messages,
            "words": self.words,
            "words_in_flight": self.words_in_flight,
            "max_words_in_flight": self.max_words_in_flight,
            "channel_high_water": dict(self.channel_high_water),
        }

    def reset_stats(self):
        """Zero the counters/high-water marks (queued words are kept)."""
        self.messages = 0
        self.words = 0
        self.max_words_in_flight = self.words_in_flight
        self.channel_high_water.clear()
