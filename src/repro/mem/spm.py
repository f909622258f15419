"""Scratchpad memory (SPM).

The SPM extends the main-memory address space (Section III-C): a fixed
uncacheable window with 1-cycle access, reachable both from the CPU
load/store path and from the patch LMAU during custom-instruction
execution.  Address spaces of different tiles' SPMs are disjoint; each
core may touch only its own, which the tile enforces.
"""

from repro.isa.instructions import wrap32
from repro.platform import DEFAULT_PLATFORM

# Derived compatibility aliases — the numbers themselves live in
# repro.platform's presets (single source of truth).
SPM_BASE = DEFAULT_PLATFORM.mem.spm_base
SPM_SIZE = DEFAULT_PLATFORM.mem.spm_bytes
SPM_LATENCY = DEFAULT_PLATFORM.mem.spm_latency


class Scratchpad:
    """Word-granular scratchpad with bounds checking."""

    def __init__(self, base=SPM_BASE, size_bytes=SPM_SIZE, latency=SPM_LATENCY):
        if size_bytes % 4 != 0:
            raise ValueError("SPM size must be a whole number of words")
        self.base = base
        self.size_bytes = size_bytes
        self.latency = latency
        self._words = [0] * (size_bytes // 4)
        self.reads = 0
        self.writes = 0

    def contains(self, addr):
        return self.base <= addr < self.base + self.size_bytes

    def window(self):
        """``(words, base, end, latency)`` — the direct-access surface.

        ``words`` is the backing word list itself (not a copy): an
        execution engine holding the tuple may serve aligned accesses
        inside ``[base, end)`` with one list index instead of the
        checked :meth:`read_word`/:meth:`write_word` path, provided it
        mirrors the ``reads``/``writes`` counters and stores wrapped
        32-bit values (what :func:`~repro.isa.instructions.wrap32`
        produces).  Anything unaligned or out of window must fall back
        to the checked path so error behaviour is unchanged.  The list
        is the same object for the scratchpad's whole life, so a holder
        may keep it across runs.
        """
        return self._words, self.base, self.base + self.size_bytes, self.latency

    def _index(self, addr):
        if addr % 4 != 0:
            raise ValueError(f"unaligned SPM access at {addr:#x}")
        if not self.contains(addr):
            raise ValueError(f"address {addr:#x} outside SPM window")
        return (addr - self.base) >> 2

    def read_word(self, addr):
        self.reads += 1
        return self._words[self._index(addr)]

    def write_word(self, addr, value):
        self.writes += 1
        self._words[self._index(addr)] = wrap32(value)

    def load_words(self, addr, values):
        """Bulk-initialize (harness use; no timing charged)."""
        index = self._index(addr)
        if index + len(values) > len(self._words):
            raise ValueError("data does not fit in the SPM")
        for offset, value in enumerate(values):
            self._words[index + offset] = wrap32(value)

    def dump_words(self, addr, count):
        """Bulk-read (harness use; no timing charged)."""
        index = self._index(addr)
        return list(self._words[index:index + count])

    def clear(self):
        self._words[:] = [0] * len(self._words)  # the window's list stays
