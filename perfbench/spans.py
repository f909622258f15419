"""Timing spans around the public entry points of the ``repro`` layers.

The traced run wraps each boundary in :data:`BOUNDARIES` with a span
recorder; the untraced run proves nothing is wrapped.  Spans are kept
in memory as :class:`Span` records (name, start, end, parent, job).
A coarse boundary gets one record per call.  A *hot* boundary (called
up to millions of times per pass: memory accesses, patch executions,
fabric and telemetry calls) gets one record per parent span, holding
the call count and summed duration, so memory stays bounded.

A span's self time is its duration minus the durations of its child
spans; a layer's self time is the sum over its boundaries.  Layer self
times plus ``other_s`` (time under no layer span) sum to the traced
wall time.
"""

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict


class Boundary:
    """One wrapped entry point: ``attr`` is ``func`` or ``Class.method``."""

    __slots__ = ("name", "module", "attr", "hot")

    def __init__(self, name, module, attr, hot=False):
        self.name = name
        self.module = module
        self.attr = attr
        self.hot = hot

    def __repr__(self):
        return f"Boundary({self.name} = {self.module}.{self.attr})"


def _telemetry(cls, *methods, module="repro.telemetry.trace"):
    return tuple(
        Boundary(f"telemetry.{cls}.{method}", module, f"{cls}.{method}",
                 hot=True)
        for method in methods
    )


BOUNDARIES = (
    Boundary("compiler.profile", "repro.compiler.driver",
             "KernelCompiler.__init__"),
    Boundary("compiler.compile", "repro.compiler.driver",
             "KernelCompiler.compile"),
    Boundary("compiler.dfg", "repro.compiler.dfg", "DFG.__init__"),
    Boundary("compiler.enumerate", "repro.compiler.ise",
             "enumerate_candidates"),
    Boundary("compiler.select", "repro.compiler.selector", "select_ises"),
    Boundary("compiler.map", "repro.compiler.mapper", "map_candidate",
             hot=True),
    Boundary("compiler.rewrite_block", "repro.compiler.codegen",
             "rewrite_block", hot=True),
    Boundary("compiler.rewrite_program", "repro.compiler.codegen",
             "rewrite_program"),
    Boundary("cpu.run", "repro.cpu.core", "Core.run"),
    Boundary("core.patch", "repro.core.executor", "PatchExecutor.execute",
             hot=True),
    Boundary("core.stitch", "repro.core.stitching", "stitch_best"),
) + tuple(
    Boundary(f"mem.{method}", "repro.mem.hierarchy",
             f"MemorySystem.{method}", hot=True)
    for method in ("read", "write", "fetch", "spm_read", "spm_write")
) + (
    Boundary("sim.build", "repro.sim.baselines",
             "AppEvaluator.build_system"),
    Boundary("sim.schedule", "repro.sim.system", "StitchSystem.run"),
    Boundary("mpi.send", "repro.mpi.runtime", "MessagePassing.send",
             hot=True),
    Boundary("mpi.try_recv", "repro.mpi.runtime", "MessagePassing.try_recv",
             hot=True),
    Boundary("noc.send", "repro.noc.network", "Network.send", hot=True),
) + _telemetry(
    "Tracer", "span", "instant", "counter", "tile_span", "comm_send",
    "comm_recv", "comm_blocked", "comm_unblocked", "cix", "cache_miss",
    "link_reserved",
) + _telemetry(
    "Stats", "add", "observe", "counter", "histogram",
    module="repro.telemetry.stats",
) + _telemetry("Counter", "add", module="repro.telemetry.stats") + _telemetry(
    "Histogram", "observe", module="repro.telemetry.stats",
)

LAYERS = ("compiler", "cpu", "core", "mem", "sim", "mpi", "noc", "telemetry")

#: Tracer primitives that each append exactly one trace event.
EVENT_BOUNDARIES = frozenset(
    f"telemetry.Tracer.{method}" for method in ("span", "instant", "counter")
)

#: Marker attribute every installed wrapper carries.
MARK = "__perfbench_boundary__"


class Span:
    """One span record; ``calls`` > 1 only for a coalesced hot span,
    whose ``start``/``end`` are its first start and last end."""

    __slots__ = ("name", "start", "end", "parent", "job", "calls", "busy",
                 "hot")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.calls = 0
        self.busy = 0.0
        self.hot = {}

    def __repr__(self):
        return (f"Span({self.name}, job={self.job}, calls={self.calls}, "
                f"busy={self.busy:.6f})")


class SpanRecorder:
    """Keeps span records and boundary counters in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.job = None
        # Boundary counters hold this Counter, so it is cleared in place.
        self.counts = Counter()
        self.spans = []
        self._stack = []
        self._top_hot = {}

    def enter(self, name, start, hot=False):
        """Open a span under the innermost open one; returns it."""
        stack = self._stack
        parent = stack[-1] if stack else None
        if hot:
            siblings = parent.hot if parent is not None else self._top_hot
            span = siblings.get(name)
            if span is None:
                span = siblings[name] = self._record(name, start, parent)
        else:
            span = self._record(name, start, parent)
        stack.append(span)
        return span

    def _record(self, name, start, parent):
        span = Span(name, start, parent, self.job)
        self.spans.append(span)
        return span

    def leave(self, span, start, end):
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(
                f"span {span.name} closed while {popped.name} is innermost"
            )
        span.busy += end - start
        span.calls += 1
        span.end = end

    def timed(self, name, function, hot=False):
        """``function`` wrapped in a span named ``name``."""
        enter = self.enter
        leave = self.leave
        clock = self.clock

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start = clock()
            span = enter(name, start, hot)
            try:
                return function(*args, **kwargs)
            finally:
                leave(span, start, clock())

        setattr(wrapper, MARK, name)
        return wrapper

    @contextlib.contextmanager
    def job_span(self, job):
        """A root span named ``job``; spans opened inside carry ``job``."""
        previous, self.job = self.job, job
        start = self.clock()
        span = self.enter("job", start)
        try:
            yield span
        finally:
            self.leave(span, start, self.clock())
            self.job = previous

    def take(self):
        """Hand over (spans, counts) recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError(
                f"{len(self._stack)} span(s) still open: "
                + ", ".join(span.name for span in self._stack)
            )
        spans, counts = self.spans, Counter(self.counts)
        self.spans = []
        self.counts.clear()
        self._top_hot = {}
        return spans, counts


def self_times(spans):
    """{span name: summed self time} — duration minus child durations."""
    child = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child[id(span.parent)] += span.busy
    totals = defaultdict(float)
    for span in spans:
        totals[span.name] += span.busy - child[id(span)]
    return dict(totals)


def call_counts(spans):
    """{span name: calls}."""
    totals = Counter()
    for span in spans:
        totals[span.name] += span.calls
    return dict(totals)


def layer_of(name):
    """The layer a span name belongs to, or ``None`` for job spans."""
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else None


def ledger(spans, wall):
    """Layer self times and ``other_s`` for spans recorded over ``wall``
    seconds.  ``other_s`` is computed on its own — the wall time outside
    every root span plus the self time of non-layer spans — so the sum
    check below catches a span whose parent lies outside the scope."""
    selfs = self_times(spans)
    layers = {layer: 0.0 for layer in LAYERS}
    other = wall - sum(span.busy for span in spans if span.parent is None)
    for name, seconds in selfs.items():
        layer = layer_of(name)
        if layer is None:
            other += seconds
        else:
            layers[layer] += seconds
    total = sum(layers.values()) + other
    if abs(total - wall) > 1e-6 * max(wall, 1.0):
        raise RuntimeError(
            f"layer self times + other_s = {total:.6f} s, "
            f"traced wall time = {wall:.6f} s"
        )
    return layers, other, selfs


# -- counters taken at the boundaries ---------------------------------------


class _EnumerationCounter:
    """Observer for ``enumerate_candidates``; forwards to the caller's."""

    __slots__ = ("inner", "visited", "truncated")

    def __init__(self, inner):
        self.inner = inner
        self.visited = 0
        self.truncated = False

    def note_visited(self):
        self.visited += 1
        if self.inner is not None:
            self.inner.note_visited()

    def note_rejected(self, reason):
        if self.inner is not None:
            self.inner.note_rejected(reason)

    def note_truncated(self):
        self.truncated = True
        if self.inner is not None:
            self.inner.note_truncated()


def _count_enumerate(function, counts):
    def enumerate_candidates(dfg, *args, **kwargs):
        observer = _EnumerationCounter(kwargs.get("observer"))
        kwargs["observer"] = observer
        found = function(dfg, *args, **kwargs)
        counts["compiler.enumerate_visited"] += observer.visited
        counts["compiler.enumerate_found"] += len(found)
        counts["compiler.enumerate_truncated"] += observer.truncated
        return found
    return enumerate_candidates


def _count_select(function, counts):
    def select_ises(candidates, *args, **kwargs):
        chosen = function(candidates, *args, **kwargs)
        counts["compiler.select_offered"] += len(candidates)
        counts["compiler.select_placed"] += len(chosen)
        return chosen
    return select_ises


def _count_core_run(function, counts):
    def run(core, *args, **kwargs):
        icache, dcache = core.memory.icache, core.memory.dcache
        instret = core.instret
        hits, misses = icache.hits, icache.misses
        data = dcache.hits + dcache.misses
        fast = core.selected_engine() == "fast"
        result = function(core, *args, **kwargs)
        retired = core.instret - instret
        counts["cpu.instructions"] += retired
        counts["cpu.fast_slices"] += fast
        counts["cpu.idle_slices"] += retired == 0
        counts["mem.icache_hits"] += icache.hits - hits
        counts["mem.icache_misses"] += icache.misses - misses
        counts["mem.dcache_accesses"] += dcache.hits + dcache.misses - data
        return result
    return run


def _count_patch(function, counts):
    def execute(executor, *args, **kwargs):
        fused = executor.fused_executions
        result = function(executor, *args, **kwargs)
        counts["core.patch_fused"] += executor.fused_executions - fused
        return result
    return execute


def _count_try_recv(function, counts):
    def try_recv(fabric, *args, **kwargs):
        result = function(fabric, *args, **kwargs)
        counts["mpi.recv_hits"] += result is not None
        return result
    return try_recv


def _count_noc_send(function, counts):
    def send(network, *args, **kwargs):
        packets = network.packets_sent
        result = function(network, *args, **kwargs)
        counts["noc.packets"] += network.packets_sent - packets
        return result
    return send


def _count_schedule(function, counts):
    def run(system, *args, **kwargs):
        results = function(system, *args, **kwargs)
        counts["sim.makespan_cycles"] += max(r.cycles for r in results)
        counts["sim.instructions"] += sum(r.instructions for r in results)
        return results
    return run


_COUNTERS = {
    "compiler.enumerate": _count_enumerate,
    "compiler.select": _count_select,
    "cpu.run": _count_core_run,
    "core.patch": _count_patch,
    "mpi.try_recv": _count_try_recv,
    "noc.send": _count_noc_send,
    "sim.schedule": _count_schedule,
}


# -- install / restore -------------------------------------------------------


def _resolve(boundary):
    """(owner class or None, attribute name, original) for a boundary."""
    module = importlib.import_module(boundary.module)
    if "." in boundary.attr:
        class_name, method = boundary.attr.split(".")
        owner = getattr(module, class_name)
        if method not in vars(owner):
            raise AttributeError(f"{boundary.attr} is not defined on the class")
        return owner, method, vars(owner)[method]
    return None, boundary.attr, getattr(module, boundary.attr)


def _bindings(name, original):
    """Every loaded ``repro`` module binding ``name`` to ``original``."""
    return [
        module for module_name, module in list(sys.modules.items())
        if (module_name == "repro" or module_name.startswith("repro."))
        and getattr(module, name, None) is original
    ]


class Installed:
    """Handle on installed wrappers; :meth:`restore` puts originals back."""

    def __init__(self):
        self.patched = []  # (owner, attribute, original)

    def restore(self):
        while self.patched:
            owner, attribute, original = self.patched.pop()
            setattr(owner, attribute, original)


def install(recorder, boundaries=BOUNDARIES):
    """Wrap every boundary with a span recorded by ``recorder``.

    Functions are rebound in every loaded ``repro`` module that imported
    them by name, so import the workload's modules first.
    """
    installed = Installed()
    try:
        for boundary in boundaries:
            owner, attribute, original = _resolve(boundary)
            if getattr(original, MARK, None) is not None:
                raise RuntimeError(f"{boundary.name} is already wrapped")
            function = original
            counter = _COUNTERS.get(boundary.name)
            if counter is not None:
                function = counter(original, recorder.counts)
            wrapper = recorder.timed(boundary.name, function, boundary.hot)
            owners = [owner] if owner is not None else _bindings(
                attribute, original
            )
            for target in owners:
                setattr(target, attribute, wrapper)
                installed.patched.append((target, attribute, original))
    except BaseException:
        installed.restore()
        raise
    return installed


def _bound(boundary):
    """What ``boundary`` is bound to, wherever :func:`install` binds it."""
    owner, attribute, current = _resolve(boundary)
    if owner is not None:
        return [current]
    return [getattr(module, attribute)
            for module in _bindings(attribute, current)]


def wrapped_boundaries(boundaries=BOUNDARIES):
    """Names of boundaries that carry a wrapper where they are bound."""
    return [
        boundary.name for boundary in boundaries
        if any(getattr(target, MARK, None) is not None
               for target in _bound(boundary))
    ]


def assert_pristine(boundaries=BOUNDARIES):
    """Raise if any boundary is still wrapped (the untraced-run check)."""
    wrapped = wrapped_boundaries(boundaries)
    if wrapped:
        raise RuntimeError(
            "untraced run found wrapped entry points: " + ", ".join(wrapped)
        )
