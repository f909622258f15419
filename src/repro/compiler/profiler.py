"""Kernel profiling: hot-basic-block and SPM-address detection.

The tool chain profiles each kernel (Figure 6) and marks a block *hot*
when it contributes at least 5 % of the dynamic instruction count — the
occurrence-rate threshold of Section III-A.  The profiler also records,
per load/store, whether every observed address fell inside the SPM
window; only such operations may join a custom instruction
(Section III-C).
"""

from repro.cpu.core import Core, STOP_HALT
from repro.mem.hierarchy import MemorySystem
from repro.platform import DEFAULT_PLATFORM
from repro.probe import Probe

HOT_THRESHOLD = 0.05


class BlockProfiler(Probe):
    """Block entries and load/store address regions of one program.

    Counts each basic block's entries (retirements of its leader) and,
    per load/store, whether every address it touched lay in the SPM
    and the address span it covered.
    """

    observes_core = True

    def __init__(self, program):
        self.program = program
        self.block_counts = {}       # leader pc -> entries
        self.spm_only = {}           # program index -> all addresses in SPM
        self.mem_ranges = {}         # program index -> [min addr, max addr]
        self._leaders = [False] * len(program)
        for block in program.basic_blocks():
            self._leaders[block.start] = True
            self.block_counts[block.start] = 0

    def retire(self, core, pc, cycles):
        if self._leaders[pc]:
            self.block_counts[pc] += 1

    def mem_access(self, core, pc, addr):
        is_spm = core.memory.is_spm(addr)
        previous = self.spm_only.get(pc)
        self.spm_only[pc] = is_spm if previous is None else (previous and is_spm)
        span = self.mem_ranges.get(pc)
        if span is None:
            self.mem_ranges[pc] = [addr, addr]
        else:
            if addr < span[0]:
                span[0] = addr
            if addr > span[1]:
                span[1] = addr

    def block_instruction_counts(self):
        """Dynamic instruction count per basic block."""
        return {
            block.index: self.block_counts[block.start] * len(block)
            for block in self.program.basic_blocks()
        }


class HotBlock:
    """A basic block worth mining for ISE candidates."""

    __slots__ = ("block", "weight", "entries")

    def __init__(self, block, weight, entries):
        self.block = block
        self.weight = weight
        self.entries = entries

    def __repr__(self):
        return f"HotBlock(#{self.block.index}, weight={self.weight:.3f})"


class ProfileResult:
    """Outcome of profiling one kernel on one core."""

    def __init__(self, program, cycles, instructions, block_weights,
                 block_entries, spm_only, mem_ranges=None):
        self.program = program
        self.cycles = cycles
        self.instructions = instructions
        self.block_weights = block_weights      # block index -> dynamic share
        self.block_entries = block_entries      # block index -> entry count
        self.spm_only = spm_only                # program indices, all-SPM mem ops
        self.mem_ranges = mem_ranges or {}      # program index -> (lo, hi)

    def replicable_loads(self, const_regions):
        """Program indices of loads confined to one read-only region.

        Such loads may execute on a *remote* patch's LMAU if the
        compiler replicates the region into that tile's scratchpad
        (Section III-C's per-region data placement).  A region only
        qualifies when the profile shows NO store ever touching it —
        a replica of mutated state would go stale.
        """
        from repro.isa.instructions import Op

        store_spans = [
            span for pc, span in self.mem_ranges.items()
            if self.program[pc].op is Op.SW
        ]

        def written(region):
            return any(
                lo < region.end and hi >= region.addr
                for lo, hi in store_spans
            )

        read_only = [r for r in const_regions if not written(r)]
        result = {}
        for pc, (lo, hi) in self.mem_ranges.items():
            if pc not in self.spm_only or self.program[pc].op is not Op.LW:
                continue
            for region in read_only:
                if region.addr <= lo and hi < region.end:
                    result[pc] = region
                    break
        return result

    def hot_blocks(self, threshold=HOT_THRESHOLD):
        """Blocks above the dynamic-share threshold, hottest first."""
        blocks = self.program.basic_blocks()
        hot = [
            HotBlock(blocks[index], weight, self.block_entries[index])
            for index, weight in self.block_weights.items()
            if weight >= threshold and len(blocks[index]) > 1
        ]
        hot.sort(key=lambda h: h.weight, reverse=True)
        return hot


def profile_kernel(program, setup=None, platform=None,
                   max_instructions=5_000_000):
    """Run ``program`` once with profiling and summarize.

    ``setup(core)`` initializes memory contents and registers;
    ``platform`` (None: :data:`~repro.platform.DEFAULT_PLATFORM`) gives
    the tile's memory and core.  Raises if the kernel does not halt
    within ``max_instructions`` — profiling needs a terminating run.
    """
    platform = platform if platform is not None else DEFAULT_PLATFORM
    profiler = BlockProfiler(program)
    core = Core(program, MemorySystem(platform.mem), params=platform.core,
                probe=profiler)
    if setup is not None:
        setup(core)
    result = core.run(max_instructions=max_instructions)
    if result.reason != STOP_HALT:
        raise RuntimeError(
            f"kernel {program.name!r} did not halt within "
            f"{max_instructions} instructions (reason: {result.reason})"
        )
    counts = profiler.block_instruction_counts()
    total = sum(counts.values()) or 1
    weights = {index: count / total for index, count in counts.items() if count}
    entries = {
        block.index: profiler.block_counts[block.start]
        for block in program.basic_blocks()
    }
    spm_only = {pc for pc, all_spm in profiler.spm_only.items() if all_spm}
    mem_ranges = {
        pc: (span[0], span[1]) for pc, span in profiler.mem_ranges.items()
    }
    return ProfileResult(
        program, core.cycles, core.instret, weights, entries, spm_only,
        mem_ranges,
    )
