"""Cycle-attribution profiler (``repro profile``).

Folds each core's retired-cycle PC histogram onto basic blocks and
natural loops; cycle totals reconcile *exactly* with the simulator's
attribution counters (rule V900 enforces this).
"""

from repro.profile.profiler import (
    BlockProfile,
    CycleProfile,
    LoopProfile,
    PCProfiler,
    profile_app_cycles,
    profile_kernel_cycles,
)
from repro.profile.report import (
    render_annotated,
    render_folded,
    render_summary,
)

__all__ = [
    "BlockProfile",
    "CycleProfile",
    "LoopProfile",
    "PCProfiler",
    "profile_app_cycles",
    "profile_kernel_cycles",
    "render_annotated",
    "render_folded",
    "render_summary",
]
