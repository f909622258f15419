"""Per-tile memory system: I-cache, D-cache, SPM and DRAM composed.

Two configurations are used by the evaluation:

* **stitch tile** — 8 KB I$, 4 KB D$, 4 KB SPM (Table II), and
* **baseline tile** — 8 KB I$, 8 KB D$, no SPM (Section VI-B: the
  baseline converts the SPM budget back into data cache).

Code lives in a dedicated window so instruction fetches exercise the
I-cache without colliding with data lines.
"""

import dataclasses

from repro.mem.cache import Cache
from repro.mem.dram import Dram
from repro.mem.spm import Scratchpad
from repro.platform import DEFAULT_PLATFORM, PlatformConfig

# Derived compatibility alias — the number lives in repro.platform.
CODE_BASE = DEFAULT_PLATFORM.mem.code_base

_FIELD_FOR_KWARG = {
    "icache_bytes": "icache_bytes",
    "dcache_bytes": "dcache_bytes",
    "assoc": "cache_assoc",
    "line_bytes": "cache_line_bytes",
    "spm_bytes": "spm_bytes",
    "spm_base": "spm_base",
    "dram_latency": "dram_latency",
}


class MemorySystem:
    """Timing + contents for one tile's private memory.

    Geometry comes from a :class:`repro.platform.MemParams`; the legacy
    keyword arguments (``dcache_bytes=...``) still work as overrides on
    top of the stitch preset.
    """

    def __init__(self, params=None, **overrides):
        if params is None:
            params = DEFAULT_PLATFORM.mem
        if overrides:
            unknown = sorted(set(overrides) - set(_FIELD_FOR_KWARG))
            if unknown:
                raise TypeError(f"unknown MemorySystem argument(s): {unknown}")
            params = dataclasses.replace(
                params,
                **{_FIELD_FOR_KWARG[k]: v for k, v in overrides.items()},
            )
        self.params = params
        self.code_base = params.code_base
        self.icache = Cache(
            params.icache_bytes, params.cache_assoc, params.cache_line_bytes,
            hit_latency=params.cache_hit_latency, name="icache",
        )
        self.dcache = Cache(
            params.dcache_bytes, params.cache_assoc, params.cache_line_bytes,
            hit_latency=params.cache_hit_latency, name="dcache",
        )
        self.spm = (
            Scratchpad(params.spm_base, params.spm_bytes,
                       latency=params.spm_latency)
            if params.spm_bytes else None
        )
        self.dram = Dram(size_bytes=params.dram_size_bytes,
                         latency=params.dram_latency)

    @classmethod
    def from_params(cls, params):
        """Build the memory system one :class:`MemParams` describes."""
        return cls(params)

    @classmethod
    def baseline(cls):
        """Baseline tile: SPM budget folded back into the D-cache."""
        return cls(PlatformConfig.baseline().mem)

    @classmethod
    def stitch(cls):
        """Stitch tile per Table II."""
        return cls(PlatformConfig.stitch().mem)

    def is_spm(self, addr):
        return self.spm is not None and self.spm.contains(addr)

    # -- data path ----------------------------------------------------------

    def read(self, addr):
        """Data read; returns ``(value, cycles)``."""
        if self.spm is not None and self.spm.contains(addr):
            return self.spm.read_word(addr), self.spm.latency
        hit, writeback = self.dcache.lookup(addr, write=False)
        cycles = self.dcache.hit_latency
        if not hit:
            cycles += self.dram.latency
        if writeback:
            cycles += self.dram.latency
        return self.dram.read_word(addr), cycles

    def write(self, addr, value):
        """Data write; returns cycles."""
        if self.spm is not None and self.spm.contains(addr):
            self.spm.write_word(addr, value)
            return self.spm.latency
        hit, writeback = self.dcache.lookup(addr, write=True)
        cycles = self.dcache.hit_latency
        if not hit:
            cycles += self.dram.latency  # write-allocate fill
        if writeback:
            cycles += self.dram.latency
        self.dram.write_word(addr, value)  # backing store kept consistent
        return cycles

    def spm_read(self, addr):
        """LMAU-path SPM read (used inside custom instructions)."""
        if self.spm is None:
            raise RuntimeError("this tile has no scratchpad")
        return self.spm.read_word(addr)

    def spm_write(self, addr, value):
        """LMAU-path SPM write (used inside custom instructions)."""
        if self.spm is None:
            raise RuntimeError("this tile has no scratchpad")
        self.spm.write_word(addr, value)

    # -- instruction fetch ----------------------------------------------------

    def code_fully_cacheable(self, num_words):
        """True when a ``num_words``-word code image can never be
        evicted from the I-cache.

        The licence for the execution engine's memoized resident-line
        fetch path: once this holds, any line :meth:`fetch` has filled
        stays resident for the rest of the simulation, so later fetches
        of the same slot may charge the all-hit cost (crediting the hit
        counters) without touching the cache model.  Geometry argument
        in :func:`repro.isa.decoded.code_fully_cacheable`.
        """
        from repro.isa.decoded import code_fully_cacheable

        return code_fully_cacheable(num_words, self.params)

    def fetch(self, instruction_index, words=1):
        """Fetch timing for the instruction at ``instruction_index``.

        Multi-word encodings (movi/cix) fetch each word; sequential words
        almost always share a line so the extra cost is one cycle.
        """
        cycles = 0
        byte_addr = self.code_base + instruction_index * 4
        for word in range(words):
            hit, _ = self.icache.lookup(byte_addr + word * 4, write=False)
            cycles += self.icache.hit_latency
            if not hit:
                cycles += self.dram.latency
        return cycles

    # -- harness helpers ------------------------------------------------------

    def load(self, addr, values):
        """Place data (list of ints) at ``addr`` — SPM or DRAM — untimed."""
        if self.is_spm(addr):
            self.spm.load_words(addr, values)
        else:
            self.dram.load_words(addr, values)

    def dump(self, addr, count):
        """Read ``count`` words at ``addr`` untimed."""
        if self.is_spm(addr):
            return self.spm.dump_words(addr, count)
        return self.dram.dump_words(addr, count)

    def stats(self):
        """Per-level counter aggregation of this tile's caches."""
        return {"icache": self.icache.stats(), "dcache": self.dcache.stats()}

    def reset_stats(self):
        """Zero both caches' counters (tag/LRU state is untouched).

        :meth:`StitchSystem.run` snapshots these counters at run start
        so per-run hit rates stay correct across repeated runs even
        without an explicit reset.
        """
        self.icache.reset_stats()
        self.dcache.reset_stats()
