"""Fixed-interval time-series sampling of a running simulation.

Where :class:`~repro.telemetry.Stats` answers *how much* (end-of-run
aggregates) and :class:`~repro.telemetry.Tracer` answers *what exactly
happened* (every event), :class:`TimeSeries` answers *when*: it bins
counter deltas into fixed-width intervals of simulated cycles, so a run
can be replayed as per-interval per-tile IPC and stall mix, per-link
NoC flit utilization, per-channel occupancy high-water marks and
energy-per-interval.

Sampling discipline (the part the verifier's V901 rule checks):

* producers push *deltas* of monotonically growing counters, keyed by
  the simulated cycle at which the delta was observed;
* a delta is attributed to the interval containing that cycle — when a
  single long-latency event (a multi-interval ``recv`` block, say)
  overshoots several boundaries, the whole delta lands in the interval
  that finally closed, so per-interval sums always reconcile exactly
  with the end-of-run totals;
* per series, interval indices are strictly increasing (samples never
  go back in time) and every sample spans exactly
  ``[index * interval, (index + 1) * interval)``.

The collector is ring-buffered: each series keeps at most ``capacity``
intervals and evicts the oldest beyond that (counted in
``dropped_intervals`` — reconciliation checks are skipped once samples
have been dropped).  The collector is a :class:`~repro.probe.Probe`:
each core it observes closes an interval at its ``boundary`` hook and
the last one at ``run_end``; NoC links and fabric channels report
through ``link_reserved`` and ``channel_occupancy``.
"""

import csv
import json

from repro.probe import Probe
from repro.telemetry.trace import _open_trace

DEFAULT_INTERVAL = 1024
DEFAULT_CAPACITY = 65536

#: Per-tile sample fields, in export order.  All are deltas of
#: :meth:`Core.counters <repro.cpu.Core.counters>` except ``energy_nj``
#: (derived, see :meth:`TimeSeries.add_energy`).
TILE_FIELDS = (
    "cycles", "instructions",
    "memory_stall", "icache_stall", "branch_bubble", "comm_blocked",
    "icache_hits", "icache_misses", "dcache_hits", "dcache_misses",
)


class TimeSeries(Probe):
    """Ring-buffered fixed-interval samples of one simulation."""

    observes_core = True

    def __init__(self, interval=DEFAULT_INTERVAL, capacity=DEFAULT_CAPACITY):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.interval = interval
        self.capacity = capacity
        self.tiles = {}      # tile -> {interval index -> {field: delta}}
        self.links = {}      # (src, dst) -> {interval index -> flits}
        self.channels = {}   # (src, dst) -> {interval index -> max occupancy}
        self.dropped_intervals = 0
        self._cores = {}     # core -> [counters at last sample, next boundary]

    # -- probe hooks ---------------------------------------------------------

    def attach(self, core):
        self._cores[core] = [core.counters(), self.interval]
        return self.interval

    def boundary(self, core):
        state = self._cores[core]
        if core.cycles >= state[1]:
            self._close(core, state)
        return state[1]

    def link_reserved(self, link, src, dst, start, flits, waited):
        self.link_flits(link, start, flits)

    def run_end(self, cores, reasons, outcome, snapshot=None, energy=None,
                rollup=None):
        for core in cores:
            self._close(core, self._cores[core])
        if energy is None:
            from repro.power.chip import EnergyModel

            energy = EnergyModel()
        self.add_energy(energy)

    def _close(self, core, state):
        """Close ``core``'s current interval.

        Folds every counter delta since the previous sample into the
        interval containing the cycle at which the delta *began* (the
        previous snapshot), so per-interval sums reconcile exactly with
        the end-of-run totals no matter where the close lands, and
        successive samples carry strictly increasing interval indices.
        """
        now = core.counters()
        snap = state[0]
        deltas = {
            field: now[field] - snap[field]
            for field in TILE_FIELDS
            if now[field] != snap[field]
        }
        if deltas:
            self.tile_sample(core.core_id, snap["cycles"], deltas)
        state[0] = now
        state[1] = (core.cycles // self.interval + 1) * self.interval

    # -- recording -----------------------------------------------------------

    def index_of(self, time):
        """Interval index containing the cycle ``time``."""
        return time // self.interval

    def _bucket(self, series, index):
        bucket = series.get(index)
        if bucket is None:
            bucket = series[index] = {}
            if len(series) > self.capacity:
                series.pop(min(series))
                self.dropped_intervals += 1
        return bucket

    def tile_sample(self, tile, time, deltas):
        """Fold counter ``deltas`` into tile ``tile``'s interval at ``time``."""
        bucket = self._bucket(self.tiles.setdefault(tile, {}),
                              self.index_of(time))
        for field, value in deltas.items():
            bucket[field] = bucket.get(field, 0) + value

    def link_flits(self, link, time, flits):
        """Record ``flits`` crossing directed ``link`` at cycle ``time``."""
        series = self.links.setdefault(link, {})
        index = self.index_of(time)
        series[index] = series.get(index, 0) + flits
        if len(series) > self.capacity:
            series.pop(min(series))
            self.dropped_intervals += 1

    def channel_occupancy(self, src, dst, time, occupancy):
        """Record a channel occupancy observation (per-interval max)."""
        series = self.channels.setdefault((src, dst), {})
        index = self.index_of(time)
        if occupancy > series.get(index, -1):
            series[index] = occupancy
            if len(series) > self.capacity:
                series.pop(min(series))
                self.dropped_intervals += 1

    def add_energy(self, model):
        """Derive per-interval tile energy from the cycle samples.

        ``model`` provides ``interval_energy_nj(cycles)`` (see
        :class:`repro.power.chip.EnergyModel`).  Idempotent: values are
        assigned, not accumulated, so re-finalizing after another run
        slice recomputes instead of double-counting.
        """
        for series in self.tiles.values():
            for bucket in series.values():
                bucket["energy_nj"] = round(
                    model.interval_energy_nj(bucket.get("cycles", 0)), 6
                )

    # -- queries -------------------------------------------------------------

    def tile_series(self, tile):
        """Sorted ``[(index, sample_dict), ...]`` for one tile."""
        return sorted(self.tiles.get(tile, {}).items())

    def tile_totals(self, tile):
        """Field sums across all of a tile's intervals (the
        reconciliation side of the V901/acceptance contract)."""
        totals = {}
        for _, bucket in self.tile_series(tile):
            for field, value in bucket.items():
                totals[field] = totals.get(field, 0) + value
        return totals

    def span(self):
        """``(first_index, last_index)`` across every series (None if empty)."""
        indices = [
            index
            for series in (
                list(self.tiles.values()) + list(self.links.values())
                + list(self.channels.values())
            )
            for index in series
        ]
        if not indices:
            return None
        return min(indices), max(indices)

    def __len__(self):
        return sum(
            len(series)
            for series in (
                list(self.tiles.values()) + list(self.links.values())
                + list(self.channels.values())
            )
        )

    # -- export --------------------------------------------------------------

    def _samples(self, series, shape):
        samples = []
        for index in sorted(series):
            record = {
                "index": index,
                "start": index * self.interval,
                "end": (index + 1) * self.interval,
            }
            record.update(shape(series[index]))
            samples.append(record)
        return samples

    def to_dict(self):
        """JSON-shaped form (string keys, sorted samples)."""
        return {
            "interval": self.interval,
            "dropped_intervals": self.dropped_intervals,
            "tiles": {
                str(tile): self._samples(series, dict)
                for tile, series in sorted(self.tiles.items())
            },
            "noc": {
                "links": {
                    f"{link[0]}->{link[1]}": self._samples(
                        series,
                        lambda flits: {
                            "flits": flits,
                            "utilization": round(flits / self.interval, 6),
                        },
                    )
                    for link, series in sorted(self.links.items())
                },
            },
            "fabric": {
                "channels": {
                    f"{src}->{dst}": self._samples(
                        series,
                        lambda occupancy: {"occupancy_high_water": occupancy},
                    )
                    for (src, dst), series in sorted(self.channels.items())
                },
            },
        }

    def to_csv(self):
        """Flat CSV: one row per (series, interval, field)."""
        import io

        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["kind", "id", "start", "end", "field", "value"])
        payload = self.to_dict()
        for tile, samples in payload["tiles"].items():
            for sample in samples:
                for field in TILE_FIELDS + ("energy_nj",):
                    if field in sample:
                        writer.writerow([
                            "tile", tile, sample["start"], sample["end"],
                            field, sample[field],
                        ])
        for link, samples in payload["noc"]["links"].items():
            for sample in samples:
                writer.writerow([
                    "link", link, sample["start"], sample["end"],
                    "flits", sample["flits"],
                ])
        for channel, samples in payload["fabric"]["channels"].items():
            for sample in samples:
                writer.writerow([
                    "channel", channel, sample["start"], sample["end"],
                    "occupancy_high_water", sample["occupancy_high_water"],
                ])
        return out.getvalue()

    def write(self, path):
        """Write JSON (default; gzipped for ``*.gz``, as a Chrome trace
        is) or CSV (``.csv`` suffix); returns path."""
        if str(path).endswith(".csv"):
            with open(path, "w", newline="") as handle:
                handle.write(self.to_csv())
        else:
            with _open_trace(path) as handle:
                json.dump(self.to_dict(), handle, indent=2)
        return path

    def __repr__(self):
        return (
            f"TimeSeries(interval={self.interval}, {len(self.tiles)} tiles, "
            f"{len(self)} samples)"
        )
