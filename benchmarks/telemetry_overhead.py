"""Telemetry overhead guard (run directly, not under pytest).

The telemetry layer promises a near-zero-cost disabled path: cores,
NoC and fabric hold the null probe, so the fast loop fires no hook and
the fabric pays one guard per hook site.  This script measures a fixed
co-simulation workload with no probe and with each probe in
:data:`ARMS`, in interleaved rounds, and fails — exit code 1 — if
either side of that promise breaks for any arm:

* the *disabled* path must not be slower than the arm beyond
  measurement noise (>5% means dead observer work leaked into the null
  path);
* the arm must stay within a small constant factor of the disabled
  path (counters and trace appends, not a profiler).

The arms: a bare ``Telemetry()`` (stats + tracing); the *profiled*
stack (interval sampling + the PC-cycle histogram on every core); the
causal dependency recorder of ``repro critpath``, whose hooks live only
on comm events; and an unarmed ``repro chaos``
:class:`~repro.chaos.Injector` carrying a zero-fault plan, which keeps
the fast engine.

The ring workload runs no ``cix``, yet ``cix`` makes nearly every event
of an observed application co-simulation.  So one more row runs
APP2's 16-tile Stitch co-simulation (its stage compiles done before
the timed region) with no probe and with a bare ``Telemetry()``, held
to both checks with the tighter :data:`APP_OVERHEAD_LIMIT`.

Wall-clock ratios between two in-process runs are machine-independent,
unlike absolute times, so this is safe to run in CI.

Usage::

    PYTHONPATH=src python benchmarks/telemetry_overhead.py \
        [--repeats 5] [--trace-out sample_trace.json]

``--trace-out`` additionally writes the enabled run's Chrome trace, so
CI can publish a sample artifact straight from the guard run.
"""

import argparse
import sys
import time

from repro.isa import assemble
from repro.sim import StitchSystem
from repro.telemetry import Telemetry
from repro.verify import check_run

# The disabled path may be up to this much slower than enabled before
# we call it a regression (pure measurement noise allowance).
DISABLED_REGRESSION_LIMIT = 1.05
# The enabled path may cost at most this factor over disabled.
ENABLED_OVERHEAD_LIMIT = 3.0
# The observed app co-simulation may cost at most this factor over the
# plain one.
APP_OVERHEAD_LIMIT = 1.5
APP = "APP2"
APP_ITEMS = 2

RELAY_TILES = 8
WORDS = 8
ROUNDS = 40


def pipeline_programs():
    """A ring pipeline: tile 0 seeds, tiles relay, tile 0 collects."""
    programs = {}
    head = f"""
        movi r10, {ROUNDS}
        movi r2, 0x100
        movi r3, {WORDS}
        movi r4, 7
        sw   r4, 0(r2)
    loop:
        movi r1, 1
        send r1, r2, r3
        movi r1, {RELAY_TILES - 1}
        recv r1, r2, r3
        addi r10, r10, -1
        bne  r10, r0, loop
        halt
    """
    programs[0] = assemble(head, name="head")
    for tile in range(1, RELAY_TILES):
        nxt = (tile + 1) % RELAY_TILES
        relay = f"""
            movi r10, {ROUNDS}
        loop:
            movi r1, {tile - 1}
            movi r2, 0x100
            movi r3, {WORDS}
            recv r1, r2, r3
            movi r1, {nxt}
            send r1, r2, r3
            addi r10, r10, -1
            bne  r10, r0, loop
            halt
        """
        programs[tile] = assemble(relay, name=f"relay{tile}")
    return programs


def run_once(telemetry):
    system = StitchSystem(telemetry=telemetry)
    for tile, program in pipeline_programs().items():
        system.load(tile, program)
    results = system.run()
    if not all(r.halted for r in results):
        raise RuntimeError("guard workload did not run to completion")
    if not check_run(results).ok(strict=True):
        raise RuntimeError("guard workload failed the V500 cross-check")
    return system


def app_cosim():
    """A function co-simulating :data:`APP` on the Stitch plan under one
    probe; the stage compiles are done here, before any timed run."""
    from repro.sim.baselines import ARCH_STITCH, AppEvaluator
    from repro.workloads.apps import APP_FACTORIES

    evaluator = AppEvaluator(APP_FACTORIES[APP](seed=1))
    plan = evaluator.plan(ARCH_STITCH)
    evaluator.compiled_programs()

    def run(telemetry):
        system, _ = evaluator.build_system(ARCH_STITCH, items=APP_ITEMS,
                                           telemetry=telemetry, plan=plan)
        if not check_run(system.run()).ok(strict=True):
            raise RuntimeError(f"{APP} failed the V500 cross-check")

    return run


def profiled_probe():
    """The full observability stack: stats, tracing, interval sampling
    and the PC-cycle histogram on every core."""
    from repro.probe import combine
    from repro.profile import PCProfiler
    from repro.telemetry import TimeSeries

    return combine(Telemetry(timeseries=TimeSeries(interval=256)),
                   PCProfiler())


def recorded_probe():
    """Only the causal dependency recorder (``repro critpath``)."""
    from repro.telemetry import DependencyRecorder

    return DependencyRecorder()


def unarmed_injector():
    """A real chaos injector holding a zero-fault plan (never fires)."""
    from repro.chaos import InjectionPlan, Injector

    return Injector(InjectionPlan(name="guard-unarmed"))


#: (label, probe factory) of every arm held to both bounds against the
#: disabled run.
ARMS = [
    ("telemetry enabled", Telemetry),
    ("profiled (+timeseries+pc)", profiled_probe),
    ("recorded (critpath)", recorded_probe),
    ("injected (unarmed chaos)", unarmed_injector),
]


def time_once(workload, probe_factory):
    probe = probe_factory()
    start = time.perf_counter()
    workload(probe)
    return time.perf_counter() - start


def measure(repeats, workload, factories):
    """Median time of ``workload`` under each factory's probe over
    ``repeats`` rounds.

    Each round runs every factory once, starting one later each round,
    so host drift spreads over all of them instead of reading as one
    arm's regression.
    """
    times = [[] for _ in factories]
    for round_ in range(repeats):
        for step in range(len(factories)):
            index = (round_ + step) % len(factories)
            times[index].append(time_once(workload, factories[index]))
    return [sorted(each)[len(each) // 2] for each in times]  # medians


def check(label, disabled, observed, limit):
    """Print one arm's row; returns True when it fails either bound."""
    print(f"{label}: {observed * 1e3:8.2f} ms "
          f"(x{observed / disabled:.2f} vs disabled)")
    failed = False
    if disabled > observed * DISABLED_REGRESSION_LIMIT:
        print(f"FAIL: disabled path is >{DISABLED_REGRESSION_LIMIT:.0%} "
              f"slower than the {label} path — observer work leaked "
              "into the null path", file=sys.stderr)
        failed = True
    if observed > disabled * limit:
        print(f"FAIL: the {label} path costs more than {limit}x the "
              "disabled path", file=sys.stderr)
        failed = True
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--trace-out", metavar="PATH",
                        help="also write the enabled run's Chrome trace")
    args = parser.parse_args(argv)

    run_once(None)  # warm caches / imports outside the timed region
    disabled, *observed_times = measure(
        args.repeats, run_once,
        [lambda: None] + [factory for _, factory in ARMS])
    print(f"telemetry disabled: {disabled * 1e3:8.2f} ms (median of "
          f"{args.repeats})")
    failed = False
    for (label, _), observed in zip(ARMS, observed_times):
        failed |= check(label, disabled, observed, ENABLED_OVERHEAD_LIMIT)

    app = app_cosim()
    app(None)  # warm the engines' caches outside the timed region
    disabled, observed = measure(args.repeats, app, [lambda: None, Telemetry])
    print(f"{APP} co-sim disabled: {disabled * 1e3:8.2f} ms (median of "
          f"{args.repeats})")
    failed |= check(f"{APP} co-sim telemetry enabled", disabled, observed,
                    APP_OVERHEAD_LIMIT)
    if not failed:
        print("telemetry overhead guard: OK")

    if args.trace_out:
        telemetry = Telemetry()
        run_once(telemetry)
        telemetry.tracer.write_chrome(args.trace_out)
        print(f"sample chrome trace written to {args.trace_out} "
              f"({len(telemetry.tracer)} events)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
