"""Hierarchical named counters and histograms.

A :class:`Stats` registry maps dotted paths (``"tile3.core.compute"``,
``"noc.link.(0,0)->(0,1).busy"``) to :class:`Counter`/:class:`Histogram`
instances.  Components hold the *instrument object* — not the registry —
so the hot path is one attribute bump, and the disabled path is the
module-level :data:`NULL_STATS` whose instruments are shared no-ops
(no ``if telemetry:`` forests inside simulation loops).

A :class:`Stats` registry is also a :class:`~repro.probe.Probe`: its
``histogram`` hands the fabric its instruments, and it counts chaos
events and mirrors a clean co-simulation's roll-up at ``run_end``.
"""

from repro.probe import Probe


class Counter:
    """One monotonically growing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name=""):
        self.name = name
        self.value = 0

    def add(self, amount=1):
        self.value += amount

    def reset(self):
        self.value = 0

    def __repr__(self):
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Streaming summary (count/total/min/max) of observed values."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name=""):
        self.name = name
        self.reset()

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def mean(self):
        return self.total / self.count if self.count else 0.0

    def merge(self, other):
        """Fold another histogram's summary into this one."""
        if not other.count:
            return
        self.count += other.count
        self.total += other.total
        if self.min is None or other.min < self.min:
            self.min = other.min
        if self.max is None or other.max > self.max:
            self.max = other.max

    def reset(self):
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def snapshot(self):
        return {
            "count": self.count, "total": self.total,
            "min": self.min, "max": self.max, "mean": self.mean(),
        }

    def __repr__(self):
        return f"Histogram({self.name}: n={self.count}, mean={self.mean():.3g})"


class _NullCounter:
    """Shared do-nothing counter handed out by :class:`NullStats`."""

    __slots__ = ()
    name = ""
    value = 0

    def add(self, amount=1):
        pass

    def reset(self):
        pass


class _NullHistogram:
    __slots__ = ()
    name = ""
    count = 0
    total = 0
    min = None
    max = None

    def observe(self, value):
        pass

    def mean(self):
        return 0.0

    def reset(self):
        pass

    def snapshot(self):
        return {}


NULL_COUNTER = _NullCounter()
NULL_HISTOGRAM = _NullHistogram()


class Stats(Probe):
    """Registry of named counters/histograms, addressed by dotted path."""

    enabled = True

    def __init__(self):
        self._counters = {}
        self._histograms = {}

    def counter(self, name):
        """Get or create the counter at ``name`` (dotted path)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def histogram(self, name):
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(name)
            self._histograms[name] = histogram
        return histogram

    def add(self, name, amount=1):
        """One-shot convenience for cold paths."""
        self.counter(name).add(amount)

    def observe(self, name, value):
        self.histogram(name).observe(value)

    def chaos_event(self, tile, kind, site, cycle, detail):
        self.add(f"chaos.{kind}")
        self.add(f"chaos.{kind}.{site}")

    def run_end(self, cores, reasons, outcome, snapshot=None, energy=None,
                rollup=None):
        if rollup is not None:
            rollup.populate(self)

    def reset(self):
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()

    def merge(self, other):
        """Fold another registry's instruments into this one.

        Merging is commutative and associative over the summary fields
        (sums, running min/max), so sweep workers can be aggregated in
        submission order and parallel == serial holds bit-for-bit.
        Accepts a :class:`Stats`, a :class:`NullStats` (no-op) or a
        flat dict from :meth:`to_flat` (how sweep results cross the
        process boundary).
        """
        if isinstance(other, dict):
            other = Stats.from_flat(other)
        if not other.enabled:
            return
        for name, counter in other._counters.items():
            self.counter(name).add(counter.value)
        for name, histogram in other._histograms.items():
            self.histogram(name).merge(histogram)

    def to_flat(self):
        """Picklable flat form: ``{"counters": ..., "histograms": ...}``."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "histograms": {
                name: {"count": h.count, "total": h.total,
                       "min": h.min, "max": h.max}
                for name, h in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_flat(cls, flat):
        """Rebuild a registry from :meth:`to_flat` output."""
        stats = cls()
        for name, value in flat.get("counters", {}).items():
            stats.counter(name).add(value)
        for name, fields in flat.get("histograms", {}).items():
            histogram = stats.histogram(name)
            histogram.count = fields["count"]
            histogram.total = fields["total"]
            histogram.min = fields["min"]
            histogram.max = fields["max"]
        return stats

    def snapshot(self):
        """Nested dict keyed by the dotted-path components."""
        tree = {}
        for name, counter in sorted(self._counters.items()):
            _insert(tree, name, counter.value)
        for name, histogram in sorted(self._histograms.items()):
            _insert(tree, name, histogram.snapshot())
        return tree

    def render(self, indent=0):
        """Flat sorted text dump (one ``path = value`` line each)."""
        pad = " " * indent
        lines = [
            f"{pad}{name} = {counter.value}"
            for name, counter in sorted(self._counters.items())
        ]
        lines.extend(
            f"{pad}{name} = n={h.count} total={h.total} mean={h.mean():.3g} "
            f"min={h.min} max={h.max}"
            for name, h in sorted(self._histograms.items())
        )
        return "\n".join(lines)

    def __len__(self):
        return len(self._counters) + len(self._histograms)


class NullStats:
    """Disabled registry: every instrument is the shared no-op one."""

    enabled = False

    def counter(self, name):
        return NULL_COUNTER

    def histogram(self, name):
        return NULL_HISTOGRAM

    def add(self, name, amount=1):
        pass

    def observe(self, name, value):
        pass

    def merge(self, other):
        pass

    def to_flat(self):
        return {"counters": {}, "histograms": {}}

    def reset(self):
        pass

    def snapshot(self):
        return {}

    def render(self, indent=0):
        return ""

    def __len__(self):
        return 0


NULL_STATS = NullStats()


def _insert(tree, dotted, value):
    parts = dotted.split(".")
    node = tree
    for part in parts[:-1]:
        child = node.get(part)
        if not isinstance(child, dict):
            child = {}
            node[part] = child
        node = child
    node[parts[-1]] = value
