"""The fault injector: the chaos layer's :class:`~repro.probe.Probe`.

An injector with faults to apply (``armed``) observes the core, so
``engine="auto"`` runs its cores on the hooked block engine, whose
``boundary`` and ``cix`` hooks apply the core-site faults; the
hook-free instantiation stays untouched, so the clean path keeps its
speed.  The fabric calls ``link_delay``/``outbound``/``inbound`` on
an enabled probe, and the scheduler reports deadlocks and watchdog
expiries through ``deadlock``/``recv_timeout``.  An unarmed injector
is not enabled: it observes nothing, the fabric skips it, and every
engine stays available.

Every consequence of an armed injector is logged as one event dict::

    {"kind": "fault"|"detect"|"recover", "site": ..., "tile": ...,
     "cycle": ..., ...detail..., ["cycles_cost": N]}

and mirrored into the ``telemetry`` probe it was given through
``chaos_event`` (Stats counters under ``chaos.*``, typed Tracer
instants, a side-band stream on the critpath recorder) so a campaign
is attributable end to end.  Rules V1100-V1103 reconcile the event log
against the plan and the run outcome.
"""

import math

from repro.chaos.plan import InjectionPlan
from repro.probe import NULL_PROBE, Probe
from repro.sim.system import SnapshotError


def _checksum_words(values):
    """The side-band word checksum (a tiny xor/rotate accumulator)."""
    acc = 0
    for value in values:
        acc = ((acc << 5 | acc >> 27) ^ (value & 0xFFFFFFFF)) & 0xFFFFFFFF
    return acc


class ChaosError(RuntimeError):
    """Base class of loud fault detections raised by recovery policies."""


class ChannelCorruptionError(ChaosError, SnapshotError):
    """Corrupted channel words outlived the bounded retry budget.

    ``snapshot`` mirrors the deadlock vocabulary: the receiving tile,
    the peer, and the words that failed verification.
    """


class CixStallError(ChaosError):
    """A (possibly fused) patch configuration is stalled/failed.

    Carries the tile and config id so graceful degradation can re-stitch
    the plan around the failed unit.
    """

    def __init__(self, tile, cfg, cycle):
        super().__init__(
            f"tile {tile}: cix cfg {cfg} stalled at cycle {cycle} "
            f"(failed fused unit)"
        )
        self.tile = tile
        self.cfg = cfg
        self.cycle = cycle


class Injector(Probe):
    """Applies one :class:`InjectionPlan` to one run, deterministically.

    One injector instance belongs to one run: it keeps per-channel
    message counters and the checksum side-band, so reusing an instance
    across runs would misalign triggers.  ``telemetry`` is the probe its
    events are mirrored into.
    """

    def __init__(self, plan, telemetry=None):
        if isinstance(plan, dict):
            plan = InjectionPlan.from_dict(plan)
        self.plan = plan.validate()
        self.recovery = plan.recovery
        self.enabled = self.observes_core = plan.armed
        self.recv_deadline = plan.recovery.recv_timeout
        self._telemetry = telemetry if telemetry is not None else NULL_PROBE
        self.events = []
        self.recovery_cycles = 0
        # site "cix": {tile: frozenset(cfg ids)}
        self._cix = {}
        for fault in plan.by_site("cix"):
            self._cix.setdefault(fault.tile, set()).add(fault.cfg)
        self._cix = {t: frozenset(c) for t, c in self._cix.items()}
        # core-boundary faults: {tile: [faults sorted by trigger cycle]}
        self._core_faults = {}
        for fault in plan.by_site("reg", "spm", "dram", "freeze"):
            self._core_faults.setdefault(fault.tile, []).append(fault)
        for faults in self._core_faults.values():
            faults.sort(key=lambda f: f.cycle)
        # fabric faults: {(src, dst): {index: [faults]}}
        self._link = {}
        self._channel = {}
        for fault in plan.by_site("link"):
            pair = self._link.setdefault((fault.src, fault.dst), {})
            pair.setdefault(fault.index, []).append(fault)
        for fault in plan.by_site("channel"):
            pair = self._channel.setdefault((fault.src, fault.dst), {})
            pair.setdefault(fault.index, []).append(fault)
        self._msg_count = {}       # (src, dst) -> messages injected so far
        self._pkt_count = {}       # (src, dst) -> network sends so far
        # The checksum side-band is a word FIFO parallel to the MPI
        # channel's own (receives pop words, not messages, so the truth
        # stream must align word-for-word with the corrupted stream).
        self._sideband = {}        # (src, dst) -> [true words]
        self._fired = 0

    # -- event log -----------------------------------------------------------

    def _log(self, kind, site, tile, cycle, **detail):
        event = {"kind": kind, "site": site, "tile": tile, "cycle": cycle}
        event.update(detail)
        self.events.append(event)
        self._telemetry.chaos_event(tile, kind, site, cycle, detail)
        return event

    def log_recover(self, site, tile, cycle, **detail):
        """Recovery performed by an outside policy (plan remap)."""
        return self._log("recover", site, tile, cycle, **detail)

    def triggered(self):
        """How many of the plan's faults actually fired."""
        return self._fired

    def untriggered(self):
        """Faults whose trigger never occurred in the run (⇒ masked)."""
        return len(self.plan.faults) - self._fired

    # -- core-side hooks -----------------------------------------------------

    def attach(self, core):
        """The core's first boundary: its earliest core-site fault."""
        faults = self._core_faults.get(core.core_id)
        return faults[0].cycle if faults else math.inf

    def boundary(self, core):
        """Apply every due core-site fault; returns the next boundary.

        Fault application is architectural (no cycle charged) except
        for ECC scrubs, which charge ``recovery.ecc_penalty`` core
        cycles per corrected flip.
        """
        faults = self._core_faults.get(core.core_id, ())
        while faults and faults[0].cycle <= core.cycles:
            fault = faults.pop(0)
            self._fired += 1
            now = core.cycles
            if fault.site == "freeze":
                core.frozen = True
                self._log("fault", "freeze", core.core_id, now)
                continue
            if fault.site == "reg":
                index = fault.reg
                old = core.regs[index]
                restore = old
                core.regs[index] = _flip(old, fault.bit)
                detail = {"reg": index, "bit": fault.bit}
            elif fault.site == "spm":
                spm = core.memory.spm
                if spm is None or not spm.contains(fault.addr):
                    self._log("fault", "spm", core.core_id, now,
                              addr=fault.addr, bit=fault.bit, applied=False)
                    continue
                restore = spm.dump_words(fault.addr, 1)[0]
                spm.load_words(fault.addr, [_flip(restore, fault.bit)])
                detail = {"addr": fault.addr, "bit": fault.bit}
            else:  # dram
                dram = core.memory.dram
                if not 0 <= fault.addr < dram.size_bytes:
                    self._log("fault", "dram", core.core_id, now,
                              addr=fault.addr, bit=fault.bit, applied=False)
                    continue
                restore = dram.dump_words(fault.addr, 1)[0]
                dram.load_words(fault.addr, [_flip(restore, fault.bit)])
                detail = {"addr": fault.addr, "bit": fault.bit}
            self._log("fault", fault.site, core.core_id, now, **detail)
            if self.recovery.ecc:
                # Scrub-on-trigger ECC: detect and correct in place,
                # charging the scrub penalty to the core's clock.
                self._log("detect", fault.site, core.core_id, now, **detail)
                if fault.site == "reg":
                    core.regs[detail["reg"]] = restore
                elif fault.site == "spm":
                    core.memory.spm.load_words(fault.addr, [restore])
                else:
                    core.memory.dram.load_words(fault.addr, [restore])
                penalty = self.recovery.ecc_penalty
                core.cycles += penalty
                self.recovery_cycles += penalty
                self._log("recover", fault.site, core.core_id, core.cycles,
                          cycles_cost=penalty, **detail)
        return faults[0].cycle if faults else math.inf

    def cix(self, tile, cfg, cycle):
        """A stalled config is about to execute: log the detection and
        fail loud."""
        if cfg not in self._cix.get(tile, ()):
            return
        self._fired += 1
        self._log("fault", "cix", tile, cycle, cfg=cfg)
        self._log("detect", "cix", tile, cycle, cfg=cfg)
        raise CixStallError(tile, cfg, cycle)

    # -- scheduler-side hooks ------------------------------------------------

    def deadlock(self, tile, peer, words, time):
        if self.plan.armed:
            self._log("detect", "deadlock", tile, time, waiting_on=peer)

    def recv_timeout(self, tile, peer, waited, time, deadline, horizon):
        if self.plan.armed:
            self._log("detect", "recv", tile, time, waiting_on=peer,
                      deadline=deadline, horizon=horizon)

    # -- NoC-side hook -------------------------------------------------------

    def link_delay(self, src, dst, now):
        """Extra arrival cycles for this ``src -> dst`` network send."""
        pair = self._link.get((src, dst))
        if pair is None:
            return 0
        index = self._pkt_count.get((src, dst), 0)
        self._pkt_count[(src, dst)] = index + 1
        extra = 0
        for fault in pair.pop(index, ()):
            if fault.delay > 0:
                self._fired += 1
                extra += fault.delay
                self._log("fault", "link", dst, now, src=src,
                          index=index, delay=fault.delay)
        return extra

    # -- fabric-side hooks ---------------------------------------------------

    def outbound(self, src, dst, values, now):
        """Perturb one injected message; returns ``(values, dropped)``.

        Maintains the checksum side-band for watched channels (those
        with channel faults, when retries are enabled) so the receive
        side can verify and re-fetch the true words.
        """
        key = (src, dst)
        index = self._msg_count.get(key, 0)
        self._msg_count[key] = index + 1
        for fault in self._link.get(key, {}).get(index, ()):
            if fault.delay == 0:
                self._fired += 1
                self._log("fault", "link", dst, now, src=src, index=index,
                          dropped=len(values))
                return values, True
        channel_faults = self._channel.get(key)
        if channel_faults is None:
            return values, False
        if self.recovery.max_retries > 0:
            self._sideband.setdefault(key, []).extend(values)
        for fault in channel_faults.pop(index, ()):
            self._fired += 1
            if not values:
                self._log("fault", "channel", dst, now, src=src,
                          index=index, applied=False)
                continue
            word = fault.word % len(values)
            values = list(values)
            values[word] = _flip(values[word], fault.bit)
            self._log("fault", "channel", dst, now, src=src, index=index,
                      word=word, bit=fault.bit)
        return values, False

    def inbound(self, src, dst, values, finish):
        """Verify one received message against the checksum side-band.

        Corrupted words are re-fetched with bounded exponential backoff
        (attempt *i* costs ``retry_backoff * 2**(i-1)`` receiver
        cycles); more corrupted words than ``max_retries`` raises
        :class:`ChannelCorruptionError`.
        """
        queue = self._sideband.get((src, dst))
        if not queue:
            return values, finish
        truth = queue[:len(values)]
        del queue[:len(values)]
        if _checksum_words(values) == _checksum_words(truth):
            return values, finish
        corrupted = [i for i, (got, want) in enumerate(zip(values, truth))
                     if got != want]
        self._log("detect", "channel", dst, finish, src=src,
                  words=list(corrupted))
        if len(corrupted) > self.recovery.max_retries:
            raise ChannelCorruptionError(
                f"tile {dst}: {len(corrupted)} corrupted word(s) from tile "
                f"{src} exceed the {self.recovery.max_retries}-retry budget",
                snapshot={
                    "tile": dst, "waiting_on": src,
                    "words_corrupted": len(corrupted),
                    "cycles": finish,
                },
            )
        cost = sum(
            self.recovery.retry_backoff * (1 << attempt)
            for attempt in range(len(corrupted))
        )
        self.recovery_cycles += cost
        self._log("recover", "channel", dst, finish + cost, src=src,
                  words=list(corrupted), cycles_cost=cost)
        return list(truth), finish + cost


def _flip(value, bit):
    flipped = (value & 0xFFFFFFFF) ^ (1 << bit)
    return flipped - 0x100000000 if flipped & 0x80000000 else flipped
