"""Harness entries: record kernels, apps and ad-hoc systems.

Kept out of :mod:`repro.critpath`'s package namespace on purpose — it
imports the simulator stack (workloads, the co-simulator, platform
presets), which the analysis modules must stay independent of.  The
CLI and tests import it directly.
"""

from repro.critpath.analyze import analyze
from repro.critpath.graph import DependencyGraph
from repro.critpath.recorder import DependencyRecorder
from repro.critpath.whatif import WhatIfSpec, replay


class RecordedRun:
    """A recorded run: the graph plus what the simulator reported."""

    __slots__ = ("target", "graph", "analysis", "measured", "results",
                 "error", "platform")

    def __init__(self, target, graph, measured, results=None, error=None,
                 platform=None):
        self.target = target
        self.graph = graph
        self.analysis = analyze(graph)
        self.measured = measured
        self.results = results
        self.error = error
        self.platform = platform

    @property
    def partial(self):
        return self.error is not None

    def project(self, expressions):
        return replay(self.graph, WhatIfSpec.parse(expressions))

    def to_dict(self):
        payload = {
            "target": self.target,
            "measured_cycles": self.measured,
            "partial": self.partial,
            "graph": self.graph.to_dict(),
            "analysis": self.analysis.to_dict(),
        }
        if self.error is not None:
            payload["error"] = f"{type(self.error).__name__}: {self.error}"
        return payload


def record_kernel(name, seed=1, platform=None, max_instructions=5_000_000):
    """Record one kernel's baseline program on a bare tile."""
    from repro.cpu.core import Core, STOP_HALT
    from repro.mem.hierarchy import MemorySystem
    from repro.platform import PlatformConfig
    from repro.workloads import make_kernel

    platform = platform if platform is not None else PlatformConfig.stitch()
    recorder = DependencyRecorder(platform)
    kernel = make_kernel(name, seed=seed)
    core = Core(kernel.program, MemorySystem(platform.mem),
                params=platform.core, probe=recorder)
    if kernel.setup is not None:
        kernel.setup(core)
    outcome = core.run(max_instructions=max_instructions)
    if outcome.reason != STOP_HALT:
        raise RuntimeError(
            f"kernel {name!r} did not halt within {max_instructions} "
            f"instructions (reason: {outcome.reason})"
        )
    recorder.run_end([core], {core: outcome.reason}, "complete")
    graph = DependencyGraph.from_recorder(recorder)
    return RecordedRun(name, graph, core.cycles, platform=platform)


def record_app(name, seed=1, items=2, platform=None):
    """Record an application's 16-tile Stitch co-simulation.

    Deadlocks, watchdog timeouts and exhausted round budgets come back
    as a *partial* :class:`RecordedRun` (``error`` set, frontier in the
    analysis) instead of propagating.
    """
    from repro.sim.baselines import ARCH_STITCH, AppEvaluator
    from repro.workloads.apps import APP_FACTORIES

    factory = APP_FACTORIES.get(name.upper())
    if factory is None:
        raise KeyError(
            f"unknown app {name!r}; choose from {sorted(APP_FACTORIES)}"
        )
    evaluator = AppEvaluator(factory(seed=seed), platform=platform)
    recorder = DependencyRecorder(
        platform if platform is not None else _default_platform()
    )
    system, _plan = evaluator.build_system(
        ARCH_STITCH, items=items, telemetry=recorder
    )
    return _run_recorded(name.upper(), system, recorder, platform=platform)


def record_system(target, system, recorder, **run_kwargs):
    """Record an already-loaded :class:`StitchSystem` (test harness)."""
    return _run_recorded(target, system, recorder,
                         platform=system.platform, **run_kwargs)


def _default_platform():
    from repro.platform import DEFAULT_PLATFORM

    return DEFAULT_PLATFORM


def _run_recorded(target, system, recorder, platform=None, **run_kwargs):
    from repro.sim.system import SnapshotError

    try:
        results = system.run(**run_kwargs)
    except SnapshotError as exc:
        # system.run already finalized the partial graph on the recorder.
        graph = DependencyGraph.from_recorder(recorder)
        return RecordedRun(target, graph, graph.makespan, error=exc,
                           platform=platform)
    measured = max((result.cycles for result in results), default=0)
    graph = DependencyGraph.from_recorder(recorder)
    return RecordedRun(target, graph, measured, results=results,
                       platform=platform)


def record_target(target, seed=1, items=2, platform=None):
    """Record a kernel or APPn by name (the CLI's dispatcher)."""
    from repro.workloads import KERNEL_FACTORIES
    from repro.workloads.apps import APP_FACTORIES

    if target in KERNEL_FACTORIES:
        return record_kernel(target, seed=seed, platform=platform)
    if target.upper() in APP_FACTORIES:
        return record_app(target, seed=seed, items=items, platform=platform)
    raise KeyError(
        f"unknown critpath target {target!r}: not a kernel "
        f"({sorted(KERNEL_FACTORIES)}) or app ({sorted(APP_FACTORIES)})"
    )


def validate_whatif(run, expressions, seed=1, items=2):
    """Project ``expressions`` on ``run`` AND re-run the simulator with
    the equivalent platform change; returns the comparison dict.

    Only platform-parameter what-ifs can be validated this way; today
    that means a single ``dram_latency`` clause.
    """
    from repro.critpath.whatif import WhatIfError

    spec = WhatIfSpec.parse(expressions)
    unsupported = [
        e for e in spec.expressions if not e.replace(" ", "").startswith(
            "dram_latency"
        )
    ]
    if unsupported or spec.dram is None:
        raise WhatIfError(
            f"--validate needs exactly one dram_latency clause; got "
            f"{list(expressions)}"
        )
    projection = replay(run.graph, spec)
    base = run.platform if run.platform is not None else _default_platform()
    base_latency = base.mem.dram_latency
    op, value = spec.dram
    new_latency = int(round(value * base_latency if op == "*" else value))
    derived = base.derive(mem={"dram_latency": new_latency})
    rerun = record_target(run.target, seed=seed, items=items,
                          platform=derived)
    actual = rerun.measured
    projected = projection["projected_cycles"]
    drift = (projected - actual) / actual if actual else 0.0
    return {
        "expressions": list(spec.expressions),
        "dram_latency": {"baseline": base_latency, "what_if": new_latency},
        "projected_cycles": projected,
        "actual_cycles": actual,
        "drift": round(drift, 6),
        "within_2pct": abs(drift) <= 0.02,
    }
