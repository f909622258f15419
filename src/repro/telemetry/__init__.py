"""Simulation telemetry: counters, histograms and event tracing.

Every observer here is a :class:`~repro.probe.Probe`, and a run that
observes nothing holds the shared :data:`~repro.probe.NULL_PROBE`:

* :mod:`repro.telemetry.stats` — a hierarchical :class:`Stats` registry
  of named counters/histograms; hot loops hold the instrument object so
  the disabled path is a shared no-op sink,
* :mod:`repro.telemetry.trace` — a structured :class:`Tracer` of typed
  events (instruction slices, send/recv/block/unblock, ``cix``
  invocations, cache misses, NoC link reservations) exporting Chrome
  trace-event JSON,
* :mod:`repro.telemetry.timeseries` — a :class:`TimeSeries` collector
  of fixed-interval ring-buffered samples (per-tile IPC/stall mix,
  per-link flit utilization, channel occupancy, energy per interval),
  rendered by :mod:`repro.telemetry.monitor` and ``repro monitor``,
* :mod:`repro.telemetry.rollup` — the :class:`SystemStats` per-run
  aggregation attached to every :meth:`StitchSystem.run` result.

A :class:`Telemetry` bundle is one probe over a fresh ``stats`` and
``tracer``, and optionally a time series; other observers join it with
:func:`~repro.probe.combine`.  ``ensure_telemetry`` normalizes the
values accepted by ``telemetry=`` parameters (``None``/``False`` → the
null probe, ``True`` → a fresh bundle, a probe → itself).
"""

from repro.probe import NULL_PROBE, Probes
from repro.telemetry.stats import (
    Counter,
    Histogram,
    NULL_COUNTER,
    NULL_HISTOGRAM,
    NULL_STATS,
    NullStats,
    Stats,
)
from repro.telemetry.trace import TraceEvent, Tracer
from repro.telemetry.timeseries import TimeSeries
from repro.telemetry.rollup import ATTRIBUTION_BUCKETS, SystemStats
from repro.critpath.recorder import DependencyRecorder


class Telemetry(Probes):
    """One stats registry and one tracer observing a run as one probe.

    ``timeseries`` (a :class:`TimeSeries`) joins them when interval
    sampling is asked for (``repro monitor``, ``--timeseries``)."""

    def __init__(self, timeseries=None):
        self.stats = Stats()
        self.tracer = Tracer()
        self.timeseries = timeseries
        super().__init__(self.stats, self.tracer, timeseries)


def ensure_telemetry(value):
    """Normalize a ``telemetry=`` argument to a probe."""
    if value is None or value is False:
        return NULL_PROBE
    if value is True:
        return Telemetry()
    return value


__all__ = [
    "ATTRIBUTION_BUCKETS",
    "Counter",
    "DependencyRecorder",
    "Histogram",
    "NULL_COUNTER",
    "NULL_HISTOGRAM",
    "NULL_STATS",
    "NullStats",
    "Stats",
    "SystemStats",
    "Telemetry",
    "TimeSeries",
    "TraceEvent",
    "Tracer",
    "ensure_telemetry",
]
