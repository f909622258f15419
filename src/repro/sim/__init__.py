"""System-level simulation: 16 tiles, message passing, pipelines.

* :mod:`repro.sim.system` — the multi-core co-simulator (cores run
  between communication events; the NoC provides arrival times),
* :mod:`repro.sim.streaming` — wraps compiled kernels into
  receive/compute/send loops,
* :mod:`repro.sim.pipeline_model` — the analytic steady-state
  throughput model Algorithm 1 optimizes against,
* :mod:`repro.sim.baselines` — the four evaluated architectures
  (baseline / LOCUS / Stitch w/o fusion / Stitch).
"""

from repro.sim.system import (
    DeadlockError,
    RecvTimeoutError,
    RoundBudgetError,
    RunResults,
    SnapshotError,
    StitchSystem,
    TileResult,
)
from repro.sim.streaming import wrap_streaming
from repro.sim.pipeline_model import PipelineModel, StageTiming

__all__ = [
    "StitchSystem",
    "TileResult",
    "RunResults",
    "DeadlockError",
    "RecvTimeoutError",
    "RoundBudgetError",
    "SnapshotError",
    "wrap_streaming",
    "PipelineModel",
    "StageTiming",
]
