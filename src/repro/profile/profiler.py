"""PC-attribution cycle profiles folded onto the control-flow graph.

:class:`PCProfiler`, a :class:`~repro.probe.Probe`, keeps a
retired-cycle histogram per core keyed by PC: every simulated cycle
lands on exactly one program counter, so the histogram's cycle total
equals ``core.cycles`` *exactly* — the profiler-side twin of the
attribution invariant the V500 rules check.  :class:`CycleProfile`
folds that histogram onto the program's basic blocks and (via the
abstract interpreter's CFG) its natural loops, giving per-block and
per-loop self/total cycle counts, flamegraph folded stacks, and
annotated disassembly.

``profile_kernel_cycles`` / ``profile_app_cycles`` are the harness
entries ``repro profile`` uses: one bare tile for a kernel, the 16-tile
co-simulation for an application.
"""

from repro.probe import Probe, combine, find
from repro.verify.absint.cfg import CFG, targets_valid


class PCProfiler(Probe):
    """Retired cycles and retirements per PC, per observed core."""

    observes_core = True

    def __init__(self):
        self.histograms = {}    # core -> {pc: [cycles, retired]}

    def attach(self, core):
        self.histograms[core] = {}
        return super().attach(core)

    def retire(self, core, pc, cycles):
        histogram = self.histograms[core]
        entry = histogram.get(pc)
        if entry is None:
            entry = histogram[pc] = [0, 0]
        entry[0] += cycles
        entry[1] += 1


class BlockProfile:
    """Cycles and retirements attributed to one basic block."""

    __slots__ = ("index", "label", "start", "end", "cycles", "retired")

    def __init__(self, index, label, start, end):
        self.index = index
        self.label = label
        self.start = start
        self.end = end
        self.cycles = 0
        self.retired = 0

    def __repr__(self):
        return f"BlockProfile({self.label}, cycles={self.cycles})"


class LoopProfile:
    """Self/total cycles of one natural loop (totals include children)."""

    __slots__ = ("name", "header", "blocks", "depth", "parent",
                 "total_cycles", "self_cycles", "entries")

    def __init__(self, name, header, blocks):
        self.name = name
        self.header = header
        self.blocks = blocks        # frozenset of block indices
        self.depth = 0              # 0 = outermost
        self.parent = None          # enclosing LoopProfile, if any
        self.total_cycles = 0
        self.self_cycles = 0
        self.entries = 0

    def __repr__(self):
        return (f"LoopProfile({self.name}, total={self.total_cycles}, "
                f"self={self.self_cycles})")


class CycleProfile:
    """One tile's retired-cycle histogram, folded onto its CFG."""

    def __init__(self, program, pc_cycles, total_cycles, tile=0):
        self.program = program
        self.tile = tile
        # pc -> (cycles, retired); immutable view of the core histogram.
        self.pc_cycles = {
            pc: (entry[0], entry[1]) for pc, entry in pc_cycles.items()
        }
        self.total_cycles = total_cycles
        self.cfg = CFG(program) if targets_valid(program) else None
        self.blocks = self._fold_blocks()
        self.loops = self._fold_loops()

    @classmethod
    def from_core(cls, core):
        """Build the profile of a finished core its probe's
        :class:`PCProfiler` observed."""
        profiler = find(core.probe, PCProfiler)
        if profiler is None:
            raise RuntimeError("core was built without a PCProfiler probe")
        return cls(core.program, profiler.histograms[core], core.cycles,
                   tile=core.core_id)

    # -- folding -----------------------------------------------------------

    def _block_label(self, block):
        label = self.program.label_of(block.start)
        return label if label is not None else f"bb{block.index}"

    def _fold_blocks(self):
        blocks = []
        for block in self.program.basic_blocks():
            profile = BlockProfile(
                block.index, self._block_label(block), block.start, block.end
            )
            for pc in range(block.start, block.end):
                entry = self.pc_cycles.get(pc)
                if entry is not None:
                    profile.cycles += entry[0]
                    profile.retired += entry[1]
            blocks.append(profile)
        return blocks

    def _fold_loops(self):
        """Per-loop totals with nesting (needs a valid CFG)."""
        if self.cfg is None:
            return []
        by_block = {b.index: b for b in self.blocks}
        loops = []
        for loop in self.cfg.loops:
            header_block = by_block[loop.header]
            name = f"loop@{header_block.label}"
            profile = LoopProfile(name, loop.header, loop.blocks)
            profile.total_cycles = sum(
                by_block[index].cycles for index in loop.blocks
            )
            # Retirements per header instruction ~= times the loop ran.
            profile.entries = header_block.retired // (
                header_block.end - header_block.start
            )
            loops.append(profile)
        # Nest by body inclusion: the smallest strict superset is the
        # parent (natural loops of distinct headers either nest or are
        # disjoint on reducible graphs).
        loops.sort(key=lambda lp: len(lp.blocks))
        for i, inner in enumerate(loops):
            for outer in loops[i + 1:]:
                if inner.blocks < outer.blocks:
                    inner.parent = outer
                    break
        for loop in loops:
            loop.depth = 0
            parent = loop.parent
            while parent is not None:
                loop.depth += 1
                parent = parent.parent
        # Self = total minus immediate children (clamped: irreducible
        # sharing could otherwise over-subtract).
        for loop in loops:
            children = sum(
                child.total_cycles for child in loops if child.parent is loop
            )
            loop.self_cycles = max(0, loop.total_cycles - children)
        loops.sort(key=lambda lp: (-lp.total_cycles, lp.header))
        return loops

    # -- queries -----------------------------------------------------------

    def profiled_cycles(self):
        """Sum of the histogram — must equal ``total_cycles`` exactly."""
        return sum(cycles for cycles, _ in self.pc_cycles.values())

    def retired_instructions(self):
        return sum(retired for _, retired in self.pc_cycles.values())

    def reconciles(self):
        """True when every simulated cycle is attributed to some PC."""
        return self.profiled_cycles() == self.total_cycles

    def loops_of_block(self, index):
        """Enclosing loops of a block, outermost first."""
        chain = [loop for loop in self.loops if index in loop.blocks]
        chain.sort(key=lambda lp: lp.depth)
        return chain

    def folded_stacks(self):
        """Flamegraph folded lines: ``prog;loop;block self-cycles``."""
        lines = []
        for block in self.blocks:
            if not block.cycles:
                continue
            frames = [self.program.name]
            frames.extend(lp.name for lp in self.loops_of_block(block.index))
            frames.append(block.label)
            lines.append((";".join(frames), block.cycles))
        lines.sort(key=lambda pair: (-pair[1], pair[0]))
        return lines

    def hottest_blocks(self, limit=None):
        ranked = sorted(self.blocks, key=lambda b: (-b.cycles, b.index))
        return ranked[:limit] if limit is not None else ranked

    def to_dict(self):
        """The ``repro profile --json`` payload."""
        return {
            "program": self.program.name,
            "tile": self.tile,
            "total_cycles": self.total_cycles,
            "profiled_cycles": self.profiled_cycles(),
            "reconciled": self.reconciles(),
            "instructions": self.retired_instructions(),
            "has_cfg": self.cfg is not None,
            "blocks": [
                {
                    "index": b.index,
                    "label": b.label,
                    "range": [b.start, b.end],
                    "cycles": b.cycles,
                    "retired": b.retired,
                }
                for b in self.blocks
            ],
            "loops": [
                {
                    "name": lp.name,
                    "header": lp.header,
                    "blocks": sorted(lp.blocks),
                    "depth": lp.depth,
                    "parent": lp.parent.name if lp.parent else None,
                    "total_cycles": lp.total_cycles,
                    "self_cycles": lp.self_cycles,
                }
                for lp in self.loops
            ],
            "pcs": {
                str(pc): {"cycles": cycles, "retired": retired}
                for pc, (cycles, retired) in sorted(self.pc_cycles.items())
            },
        }


def profile_kernel_cycles(name, seed=1, max_instructions=5_000_000):
    """Profile one kernel's baseline program on a bare tile.

    Returns ``(profile, core)`` — the core is kept so callers can
    cross-check against its attribution counters.
    """
    from repro.cpu.core import Core, STOP_HALT
    from repro.mem.hierarchy import MemorySystem
    from repro.workloads import make_kernel

    kernel = make_kernel(name, seed=seed)
    core = Core(kernel.program, MemorySystem.stitch(), probe=PCProfiler())
    if kernel.setup is not None:
        kernel.setup(core)
    outcome = core.run(max_instructions=max_instructions)
    if outcome.reason != STOP_HALT:
        raise RuntimeError(
            f"kernel {name!r} did not halt within {max_instructions} "
            f"instructions (reason: {outcome.reason})"
        )
    return CycleProfile.from_core(core), core


def profile_app_cycles(app_name, seed=1, items=2, telemetry=None):
    """Profile every tile of an application's Stitch co-simulation.

    Returns ``(profiles, results)`` — ``profiles`` maps tile id to its
    :class:`CycleProfile`, ``results`` is the co-simulator's
    :class:`~repro.sim.system.RunResults` (whose ``stats`` roll-up the
    V900 check reconciles against).
    """
    from repro.sim.baselines import ARCH_STITCH, AppEvaluator
    from repro.workloads.apps import APP_FACTORIES

    factory = APP_FACTORIES.get(app_name.upper())
    if factory is None:
        raise KeyError(
            f"unknown app {app_name!r}; choose from {sorted(APP_FACTORIES)}"
        )
    evaluator = AppEvaluator(factory(seed=seed))
    system, _plan = evaluator.build_system(
        ARCH_STITCH, items=items, telemetry=combine(telemetry, PCProfiler())
    )
    results = system.run()
    profiles = {
        core.core_id: CycleProfile.from_core(core)
        for core in system.cores
        if core is not None
    }
    return profiles, results
