"""Multi-core co-simulator.

Each tile runs until it halts or blocks on a receive; blocked tiles are
re-polled whenever new words have been pushed toward them.  Causality
holds because every received word carries its NoC arrival time and the
receive completes no earlier than that, regardless of host-side
scheduling order.  If every live tile is blocked and no channel can
satisfy any of them, the system is deadlocked and says so — including a
telemetry snapshot naming the blocked tiles and their pending channels.

Every :meth:`StitchSystem.run` returns a :class:`RunResults` — a plain
list of :class:`TileResult` with a :class:`SystemStats` roll-up on its
``stats`` attribute (cycle attribution per tile, per-run cache hit
rates, NoC/fabric/patch counters).  Pass ``telemetry=True`` (a
:class:`repro.telemetry.Telemetry` bundle) or any other
:class:`repro.probe.Probe` to also observe the run across the whole
stack; the probe's ``run_end`` hook closes every run, also one that
ends in a deadlock, a watchdog timeout, an exhausted round budget or
an exception raised inside a tile's slice.
"""

from repro.core.executor import PatchExecutor
from repro.cpu.core import Core, STOP_FROZEN, STOP_HALT, STOP_LIMIT, STOP_RECV
from repro.isa.instructions import Op
from repro.mem.hierarchy import MemorySystem
from repro.mpi.runtime import MessagePassing
from repro.noc.network import Network
from repro.noc.topology import Mesh
from repro.platform import DEFAULT_PLATFORM
from repro.power.chip import EnergyModel
from repro.telemetry import SystemStats, ensure_telemetry


class SnapshotError(RuntimeError):
    """A co-simulation that cannot finish, with the scheduler's
    ``snapshot`` of where it stopped."""

    def __init__(self, message, snapshot=None):
        super().__init__(message)
        self.snapshot = snapshot if snapshot is not None else {}


class DeadlockError(SnapshotError):
    """All live tiles are blocked on receives that can never complete.

    ``snapshot`` maps each blocked tile to its pending receive — the
    peer it waits on, how many words it needs, and the words actually
    queued toward it per source channel.
    """


class RecvTimeoutError(SnapshotError):
    """A tile's blocked receive outlived the watchdog deadline.

    Unlike :class:`DeadlockError` the system may still be making
    progress elsewhere — the watchdog fires per-tile once the cycle
    horizon (the furthest any live tile has advanced) moves more than
    ``recv_timeout`` cycles past the point where the receive blocked.
    ``snapshot`` uses the same per-tile vocabulary as the deadlock
    snapshot (``waiting_on``/``words_needed``/``pending``/``cycles``)
    plus ``blocked_since`` under ``tiles``, and carries the top-level
    ``deadline`` and ``horizon`` that tripped it.
    """


class RoundBudgetError(SnapshotError):
    """The co-simulation exceeded ``max_rounds`` without finishing.

    Unlike a deadlock the system was still making progress — tiles kept
    retiring instructions or waking each other up — it just did not
    converge within the budget (usually a ping-pong workload with the
    budget set too low, or a livelock).  ``snapshot`` carries the
    scheduler's state at the point of surrender: which tiles were still
    runnable, and for each blocked tile the words queued toward it.
    """


class TileResult:
    """Final state summary of one tile."""

    __slots__ = ("tile", "cycles", "instructions", "reason", "attribution")

    def __init__(self, tile, cycles, instructions, reason, attribution=None):
        self.tile = tile
        self.cycles = cycles
        self.instructions = instructions
        self.reason = reason
        self.attribution = attribution

    @property
    def halted(self):
        return self.reason == STOP_HALT

    def __repr__(self):
        state = {STOP_HALT: "halted", STOP_RECV: "blocked"}.get(
            self.reason, self.reason
        )
        summary = ""
        if self.attribution is not None:
            a = self.attribution
            summary = (
                f", stalls mem={a['memory_stall']} i$={a['icache_stall']} "
                f"branch={a['branch_bubble']} comm={a['comm_blocked']}"
            )
        return f"TileResult(tile {self.tile}: {self.cycles} cycles, {state}{summary})"


class RunResults(list):
    """The list of :class:`TileResult` plus the run's stats roll-up."""

    def __init__(self, results, stats):
        super().__init__(results)
        self.stats = stats


class StitchSystem:
    """A tile array over the message-passing fabric.

    ``platform`` (a :class:`repro.platform.PlatformConfig`) sizes every
    component: the mesh, the NoC timing, each tile's memory system and
    the core parameters.  ``mesh`` overrides the platform's mesh when
    given.  ``engine`` selects every core's execution loop (see
    :class:`repro.cpu.Core`): the default ``auto`` runs the pre-decoded
    fast loop unless the ``telemetry`` probe observes the cores.
    ``recv_timeout`` arms the receive watchdog (default: the probe's
    ``recv_deadline``, which a chaos injector takes from its plan).
    """

    def __init__(self, mesh=None, contention=True, telemetry=None,
                 platform=None, engine="auto", recv_timeout=None):
        self.platform = platform if platform is not None else DEFAULT_PLATFORM
        self.engine = engine
        self.mesh = mesh if mesh is not None else Mesh.from_params(self.platform.noc)
        self.telemetry = ensure_telemetry(telemetry)
        self.recv_timeout = (recv_timeout if recv_timeout is not None
                             else self.telemetry.recv_deadline)
        self.fabric = MessagePassing(
            Network(self.mesh, contention=contention,
                    probe=self.telemetry, params=self.platform.noc),
            num_tiles=self.mesh.num_tiles,
            probe=self.telemetry,
        )
        self.memories = [
            MemorySystem(self.platform.mem) for _ in range(self.mesh.num_tiles)
        ]
        self.cores = [None] * self.mesh.num_tiles

    def load(self, tile, program, setup=None, cfg_table=None):
        """Place a program on a tile; returns the core.

        ``cfg_table`` (or ``program.cfg_table``) attaches a patch
        executor wired to this tile's scratchpad and, through
        ``remote_memories``, to every other tile's.  A fused config's B
        half reaches one of those only when its ``remote_tile`` is set;
        the stitcher records the partner tile in
        ``Assignment.remote_tile`` and the mapper builds every
        ``FusedConfig`` with ``remote_tile=None``, so here B halves run
        without a scratchpad (no replica is bound).
        """
        memory = self.memories[tile]
        table = cfg_table if cfg_table is not None else getattr(program, "cfg_table", None)
        patch = None
        if table:
            remote = {t: self.memories[t] for t in range(self.mesh.num_tiles)}
            patch = PatchExecutor(table, memory, remote_memories=remote)
        core = Core(
            program, memory, patch=patch,
            comm=self.fabric.port(tile), core_id=tile,
            params=self.platform.core, engine=self.engine,
            probe=self.telemetry,
        )
        if setup is not None:
            setup(core)
        self.cores[tile] = core
        return core

    def run(self, max_instructions_per_slice=2_000_000, max_rounds=100_000):
        """Run all tiles to completion; returns :class:`RunResults`."""
        live = [core for core in self.cores if core is not None]
        start = {core: core.counters() for core in live}
        # A core this run never reaches keeps its seed: halted only if it
        # already was, else cut where it stands.
        reasons = {core: STOP_HALT if core.halted else STOP_LIMIT
                   for core in live}
        blocked = {}     # core -> words pending toward it when it blocked
        blocked_at = {}  # core -> its cycle count when it blocked
        pending = list(live)
        rounds = 0
        probe = self.telemetry
        timeout = self.recv_timeout
        while pending or blocked:
            rounds += 1
            if rounds > max_rounds:
                error = self._round_budget(max_rounds, pending, blocked)
                self._end(live, reasons, "budget", error.snapshot)
                raise error
            progressed = False
            next_pending = []
            for core in pending:
                retired_before = core.instret
                try:
                    outcome = core.run(
                        max_instructions=max_instructions_per_slice)
                except Exception as error:
                    # A cix stall, corrupted channel, runaway pc or LMAU
                    # fault: the probe still closes the run, with this
                    # core cut where it stopped.
                    reasons[core] = "fault"
                    self._end(live, reasons, "fault",
                              getattr(error, "snapshot", None))
                    raise
                reasons[core] = outcome.reason
                if core.instret > retired_before or outcome.reason == STOP_HALT:
                    progressed = True
                if outcome.reason == STOP_RECV:
                    blocked[core] = self.fabric.pending_words(core.core_id)
                    blocked_at[core] = core.cycles
                elif outcome.reason not in (STOP_HALT, STOP_FROZEN):
                    # A frozen core (injected fault) is terminal: it
                    # never retires again, so it leaves the schedule and
                    # its peers run into the watchdog/deadlock nets.
                    next_pending.append(core)
            pending = next_pending
            # Wake blocked cores only when new words arrived for them.
            for core in list(blocked):
                now_pending = self.fabric.pending_words(core.core_id)
                if now_pending > blocked[core]:
                    del blocked[core]
                    del blocked_at[core]
                    pending.append(core)
                    progressed = True
                    probe.comm_unblocked(core.core_id, core.cycles)
            # Receive watchdog: a blocked tile whose wait outlives the
            # deadline fails loud even while the rest of the system is
            # still making progress.
            if timeout and blocked:
                horizon = max(core.cycles for core in live)
                expired = [core for core in blocked
                           if horizon - blocked_at[core] >= timeout]
                if expired:
                    error = self._recv_timeout(expired, blocked_at, horizon,
                                               timeout)
                    self._end(live, reasons, "timeout", error.snapshot)
                    raise error
            if not progressed and not pending:
                if blocked:
                    error = self._deadlock(blocked)
                    self._end(live, reasons, "deadlock", error.snapshot)
                    raise error
                break
        stats = self._roll_up(live, reasons, start)
        self._end(live, reasons, "complete", rollup=stats)
        attach = probe.enabled
        return RunResults(
            [
                TileResult(
                    core.core_id, core.cycles, core.instret, reasons[core],
                    attribution=core.attribution() if attach else None,
                )
                for core in live
            ],
            stats,
        )

    def _end(self, live, reasons, outcome, snapshot=None, rollup=None):
        """The probe's ``run_end`` — on every exit, so partial runs keep
        their last samples and an analyzable frontier too."""
        if not self.telemetry.enabled:
            return
        self.telemetry.run_end(
            live, reasons, outcome, snapshot=snapshot,
            energy=EnergyModel(self.platform.power,
                               num_tiles=self.mesh.num_tiles),
            rollup=rollup,
        )

    def makespan(self, results=None):
        results = results if results is not None else self.run()
        return max(result.cycles for result in results)

    def reset_stats(self):
        """Zero every component's counters (simulated state untouched)."""
        for memory in self.memories:
            memory.reset_stats()
        self.fabric.reset_stats()
        self.fabric.network.reset_stats()

    # -- telemetry -----------------------------------------------------------

    def _roll_up(self, live, reasons, start):
        """Build the :class:`SystemStats` for the run just finished;
        ``start`` holds each core's counters at run start.  Only a
        core's tile has cache traffic: NIC DMA and the LMAU bypass the
        caches."""
        tiles = {}
        caches = {
            "icache": {"hits": 0, "misses": 0, "writebacks": 0},
            "dcache": {"hits": 0, "misses": 0, "writebacks": 0},
        }
        patch = {
            "executions": 0, "fused_executions": 0,
            "remote_spm_accesses": 0, "per_config": {},
        }
        for core in live:
            now, before = core.counters(), start[core]
            for level, counts in caches.items():
                for key in counts:
                    field = f"{level}_{key}"
                    counts[key] += now[field] - before[field]
            attribution = core.attribution()
            attribution["instructions"] = core.instret
            attribution["reason"] = reasons[core]
            tiles[core.core_id] = attribution
            executor_stats = getattr(core.patch, "stats", None)
            if executor_stats is not None:
                for key, value in executor_stats().items():
                    if key == "per_config":
                        for cfg_id, count in value.items():
                            patch["per_config"][cfg_id] = (
                                patch["per_config"].get(cfg_id, 0) + count
                            )
                    else:
                        patch[key] += value
        return SystemStats(
            tiles, caches, self.fabric.network.stats(), self.fabric.stats(),
            patch,
        )

    def _round_budget(self, max_rounds, pending, blocked):
        """Build the RoundBudgetError with its scheduler snapshot."""
        snapshot = {
            "rounds": max_rounds,
            "pending_tiles": sorted(core.core_id for core in pending),
            "blocked_tiles": {
                core.core_id: {
                    "words_queued": self.fabric.pending_words(core.core_id),
                    "channels": self.fabric.pending_channels(core.core_id),
                    "cycles": core.cycles,
                }
                for core in blocked
            },
        }
        message = (
            f"co-simulation exceeded the {max_rounds}-round budget: "
            f"{len(snapshot['pending_tiles'])} tile(s) still runnable "
            f"{snapshot['pending_tiles']}, "
            f"{len(snapshot['blocked_tiles'])} blocked "
            f"{sorted(snapshot['blocked_tiles'])}"
        )
        return RoundBudgetError(message, snapshot=snapshot)

    def _blocked_receive(self, core):
        """Per-tile snapshot of one blocked receive (shared vocabulary
        between the deadlock and watchdog snapshots)."""
        instr = core.program.instructions[core.pc]
        peer = core.regs[instr.ra] if instr.op is Op.RECV else None
        count = core.regs[instr.rd] if instr.op is Op.RECV else None
        return {
            "waiting_on": peer,
            "words_needed": count,
            "pending": self.fabric.pending_channels(core.core_id),
            "cycles": core.cycles,
        }

    def _recv_timeout(self, expired, blocked_at, horizon, timeout):
        """Build the RecvTimeoutError with its watchdog snapshot."""
        snapshot = {"deadline": timeout, "horizon": horizon, "tiles": {}}
        details = []
        for core in sorted(expired, key=lambda c: c.core_id):
            tile = core.core_id
            entry = self._blocked_receive(core)
            entry["blocked_since"] = blocked_at[core]
            snapshot["tiles"][tile] = entry
            waited = horizon - blocked_at[core]
            details.append(
                f"tile {tile} has waited {waited} cycle(s) for "
                f"{entry['words_needed']} word(s) from tile "
                f"{entry['waiting_on']}"
            )
            self.telemetry.recv_timeout(tile, entry["waiting_on"], waited,
                                        core.cycles, timeout, horizon)
        tiles = sorted(snapshot["tiles"])
        message = (
            f"receive watchdog expired ({timeout}-cycle deadline) on "
            f"tiles {tiles}: " + "; ".join(details)
        )
        return RecvTimeoutError(message, snapshot=snapshot)

    def _deadlock(self, blocked):
        """Build the DeadlockError with its telemetry snapshot."""
        snapshot = {}
        details = []
        for core in sorted(blocked, key=lambda c: c.core_id):
            tile = core.core_id
            entry = self._blocked_receive(core)
            snapshot[tile] = entry
            peer = entry["waiting_on"]
            count = entry["words_needed"]
            queued = entry["pending"].get(peer, 0)
            details.append(
                f"tile {tile} needs {count} word(s) from tile {peer} "
                f"(channel holds {queued})"
            )
            self.telemetry.deadlock(tile, peer, queued, core.cycles)
        tiles = sorted(snapshot)
        message = (
            f"tiles {tiles} blocked on receives with no data in flight: "
            + "; ".join(details)
        )
        return DeadlockError(message, snapshot=snapshot)
