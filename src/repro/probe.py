"""One observer interface for every simulated component.

A :class:`Probe` has one no-op method per hook; an observer overrides
only its own hooks.  Cores, the NoC, the message-passing fabric and the
co-simulation scheduler each take one ``probe`` and call the hooks, and
:func:`combine` joins several probes into one.  The core hooks fire
only from :func:`repro.cpu.engine.run_instrumented` (``tile_span``
from :meth:`repro.cpu.Core.run`), so ``engine="auto"`` takes the
hook-free fast loop unless the probe ``observes_core``.  ``run_end``
closes a run on each of the scheduler's exits; single-core harnesses
call it themselves.

This module imports nothing from the simulator, so every layer can
depend on it.
"""

import math


class Probe:
    """Observer of one simulation run: every hook is a no-op."""

    #: True when the probe needs the instrumented core loop.
    observes_core = False
    #: Receive-watchdog deadline in cycles the probe asks for (0: none).
    recv_deadline = 0
    #: False for a probe that observes nothing (the null probe, an
    #: unarmed injector): the fabric then skips its hooks.
    enabled = True

    # -- core: instrumented loop ------------------------------------------

    def attach(self, core):
        """A core was built; returns its first boundary cycle."""
        return math.inf

    def boundary(self, core):
        """``core`` reached its boundary cycle; returns the next one."""
        return math.inf

    def retire(self, core, pc, cycles):
        """The instruction at ``pc`` retired, charging ``cycles``."""

    def mem_access(self, core, pc, addr):
        """The load/store at ``pc`` is about to access ``addr``."""

    def cache_miss(self, tile, level, addr, time):
        """An ``icache``/``dcache`` access missed."""

    def cix(self, tile, cfg_id, time):
        """A custom instruction is about to execute ``cfg_id``."""

    def comm_send(self, tile, peer, words, start, end):
        """A send retired, holding the core from ``start`` to ``end``."""

    def comm_recv(self, tile, peer, words, start, end):
        """A receive retired, holding the core from ``start`` to ``end``."""

    def comm_blocked(self, tile, peer, words, time):
        """A receive found too few words and stopped the slice."""

    def tile_span(self, tile, name, start, end, reason, instructions):
        """One ``Core.run`` slice ended with ``reason``."""

    # -- NoC and fabric ---------------------------------------------------

    def link_delay(self, src, dst, now):
        """Extra arrival cycles for this network send."""
        return 0

    def link_reserved(self, link, src, dst, start, flits, waited):
        """A packet crossed directed ``link`` from cycle ``start``."""

    def outbound(self, src, dst, values, now):
        """Words leaving ``src``; returns ``(values, dropped)``."""
        return values, False

    def inbound(self, src, dst, values, finish):
        """Words received at ``dst``; returns ``(values, finish)``."""
        return values, finish

    def fabric_send(self, src, dst, words, now, arrival, injection_done,
                    dropped=False):
        """The fabric sent a message toward ``dst``; a ``dropped`` one
        burned its NoC cycles but was never queued."""

    def fabric_recv(self, src, dst, words, now, ready, finish, drain):
        """The fabric satisfied a receive at ``dst``."""

    def channel_occupancy(self, src, dst, time, occupancy):
        """Words queued on channel ``src -> dst`` after a send."""

    def histogram(self, name):
        """The stats histogram ``name`` the fabric feeds."""
        from repro.telemetry.stats import NULL_HISTOGRAM

        return NULL_HISTOGRAM

    # -- scheduler --------------------------------------------------------

    def comm_unblocked(self, tile, time):
        """The scheduler woke a tile blocked on a receive."""

    def deadlock(self, tile, peer, words, time):
        """Every live tile is blocked; ``tile`` waits on ``peer``."""

    def recv_timeout(self, tile, peer, waited, time, deadline, horizon):
        """The receive watchdog expired on a blocked tile."""

    def run_end(self, cores, reasons, outcome, snapshot=None, energy=None,
                rollup=None):
        """The run is over: ``reasons`` maps each core to its last stop
        reason, ``outcome`` is complete | deadlock | timeout | budget
        (with the error's ``snapshot``).  ``energy`` prices time-series
        intervals (None: the default chip); ``rollup`` is a clean
        co-simulation's :class:`~repro.telemetry.SystemStats`."""

    # -- chaos ------------------------------------------------------------

    def chaos_event(self, tile, kind, site, cycle, detail):
        """The injector logged a fault, detect or recover event."""


#: Every hook, in declaration order.
HOOKS = tuple(name for name, value in vars(Probe).items()
              if callable(value) and not name.startswith("_"))


def overrides(probe, name):
    """Whether ``probe`` does anything on hook ``name``."""
    method = getattr(getattr(probe, name), "__func__", None)
    return method is not getattr(Probe, name)


def _fan_out(hooks):
    def hook(*args, **kwargs):
        for each in hooks:
            each(*args, **kwargs)
    return hook


def _earliest(hooks):
    return lambda core: min([each(core) for each in hooks])


def _total(hooks):
    return lambda *args: sum(each(*args) for each in hooks)


def _outbound(hooks):
    def hook(src, dst, values, now):
        dropped = False
        for each in hooks:
            values, lost = each(src, dst, values, now)
            dropped = dropped or lost
        return values, dropped
    return hook


def _inbound(hooks):
    def hook(src, dst, values, finish):
        for each in hooks:
            values, finish = each(src, dst, values, finish)
        return values, finish
    return hook


#: How a combination joins the hooks that return a value.
_JOIN = {
    "attach": _earliest,
    "boundary": _earliest,
    "link_delay": _total,
    "outbound": _outbound,
    "inbound": _inbound,
    "histogram": lambda hooks: hooks[0],
}


class Probes(Probe):
    """Several probes observing one run as one.

    Each hook calls, in member order, the enabled members that
    override it; a hook one member overrides is that member's bound
    method, so a lone observer costs no extra call.  Nested
    combinations are flattened and ``None`` members dropped.
    """

    def __init__(self, *members):
        flat = []
        for member in members:
            if isinstance(member, Probes):
                flat.extend(member.members)
            elif member is not None:
                flat.append(member)
        self.members = tuple(flat)
        self.enabled = any(m.enabled for m in flat)
        self.observes_core = any(m.observes_core for m in flat)
        self.recv_deadline = max((m.recv_deadline for m in flat), default=0)
        for name in HOOKS:
            hooks = [getattr(m, name) for m in flat
                     if m.enabled and overrides(m, name)]
            if len(hooks) == 1:
                setattr(self, name, hooks[0])
            elif hooks:
                setattr(self, name, _JOIN.get(name, _fan_out)(hooks))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self.members))})"


#: The probe that observes nothing: components hold it by default.
NULL_PROBE = Probes()


def combine(*probes):
    """One probe for all of ``probes``: ``None`` and the null probe are
    dropped, a lone one is returned as it is, none is :data:`NULL_PROBE`."""
    present = [p for p in probes if p is not None and p is not NULL_PROBE]
    if len(present) == 1:
        return present[0]
    combined = Probes(*present)
    return combined if combined.members else NULL_PROBE


def find(probe, kind):
    """The member of ``probe`` that is a ``kind`` (None when absent)."""
    members = probe.members if isinstance(probe, Probes) else (probe,)
    return next((m for m in members if isinstance(m, kind)), None)
