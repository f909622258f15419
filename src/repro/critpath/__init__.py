"""Causal critical-path analysis for multi-tile stitched runs.

The package splits into a recording side and an analysis side:

* :mod:`repro.critpath.recorder` — the :class:`DependencyRecorder`
  probe that observes a run (cores, message fabric, NoC);
* :mod:`repro.critpath.graph` — the causal
  :class:`DependencyGraph` built from a recording (JSON-round-trippable);
* :mod:`repro.critpath.analyze` — critical path, slack/float,
  attribution, blocked frontier;
* :mod:`repro.critpath.whatif` — scaled-weight replay projections;
* :mod:`repro.critpath.gantt` — ASCII rendering.

None of these import the simulator.  The harness entries that *do*
(record a kernel/app by name, validate a what-if against a re-run)
live in :mod:`repro.critpath.runner`, imported lazily by the CLI.
"""

from repro.critpath.analyze import CritPathAnalysis, analyze
from repro.critpath.gantt import render_gantt, render_summary
from repro.critpath.graph import DependencyGraph
from repro.critpath.matcher import ChannelMatcher
from repro.critpath.recorder import (
    COUNTER_FIELDS,
    DependencyRecorder,
    OpRecord,
)
from repro.critpath.whatif import (
    WhatIfError,
    WhatIfInfeasible,
    WhatIfSpec,
    project,
    replay,
)

__all__ = [
    "COUNTER_FIELDS",
    "ChannelMatcher",
    "CritPathAnalysis",
    "DependencyGraph",
    "DependencyRecorder",
    "OpRecord",
    "WhatIfError",
    "WhatIfInfeasible",
    "WhatIfSpec",
    "analyze",
    "project",
    "render_gantt",
    "render_summary",
    "replay",
]
