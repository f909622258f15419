"""Telemetry overhead guard (run directly, not under pytest).

The telemetry layer promises a near-zero-cost disabled path: cores,
NoC and fabric hold the null probe, so the fast loop fires no hook and
the fabric pays one guard per hook site.  This script measures a fixed
co-simulation workload with no probe and with each probe in
:data:`ARMS`, and fails — exit code 1 — if either side of that promise
breaks for any arm:

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


def measure(repeats, probe_factory):
    times = []
    for _ in range(repeats):
        probe = probe_factory()
        start = time.perf_counter()
        run_once(probe)
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]  # median


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--trace-out", metavar="PATH",
                        help="also write the enabled run's Chrome trace")
    args = parser.parse_args(argv)

    run_once(None)  # warm caches / imports outside the timed region
    disabled = measure(args.repeats, lambda: None)
    print(f"telemetry disabled: {disabled * 1e3:8.2f} ms (median of "
          f"{args.repeats})")
    failed = False
    for label, factory in ARMS:
        observed = measure(args.repeats, factory)
        print(f"{label}: {observed * 1e3:8.2f} ms "
              f"(x{observed / disabled:.2f} vs disabled)")
        if disabled > observed * DISABLED_REGRESSION_LIMIT:
            print(f"FAIL: disabled path is >{DISABLED_REGRESSION_LIMIT:.0%} "
                  f"slower than the {label} path — observer work leaked "
                  "into the null path", file=sys.stderr)
            failed = True
        if observed > disabled * ENABLED_OVERHEAD_LIMIT:
            print(f"FAIL: the {label} path costs more than "
                  f"{ENABLED_OVERHEAD_LIMIT}x the disabled path",
                  file=sys.stderr)
            failed = True
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
