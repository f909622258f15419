"""Engine speed guard (run directly, not under pytest).

The block engine (``Core(engine="fast")``) promises to simulate many
times more instructions per host second than the reference interpreter
it is held bit-identical to.  This script runs a fixed target set on
both engines, in interleaved rounds, and fails — exit code 1 — if:

* the engines disagree on any target's instruction count (the cycle
  model forked: run ``tests/cpu/test_engine_differential.py``);
* the aggregate ratio, total instructions over the summed median run
  times of each engine, is below :data:`MIN_SPEEDUP`.

The targets: fir (dense MAC loop), fft (butterflies and bit-reversal)
and 2dconv (largest body, nested loops) on one tile, and the APP4
16-tile co-simulation, whose stages are compiled once, untimed.  Every
run gets a fresh core or system and only the run itself is timed.
Per-target ratios are printed but do not gate: one small kernel's wall
time swings too far on a shared host.

Both engines run on the same host in the same process, so the ratio is
machine-independent and safe to run in CI.  Absolute host speed is
``perfbench/run.py``'s ``sim_minstr_per_s``.

Usage::

    PYTHONPATH=src python benchmarks/interp_speed.py [--repeats 3]
"""

import argparse
import functools
import statistics
import sys
import time

from repro.cpu.core import STOP_HALT, Core
from repro.mem.hierarchy import MemorySystem
from repro.sim.baselines import ARCH_STITCH, AppEvaluator
from repro.workloads import make_kernel
from repro.workloads.apps import APP_FACTORIES

# The fast engine must simulate at least this many times as many
# instructions per host second as the reference interpreter, in
# aggregate.
MIN_SPEEDUP = 2.0

ENGINES = ("reference", "fast")
KERNELS = ("fir", "fft", "2dconv")
APP = "APP4"
APP_ITEMS = 4
SEED = 1


def time_kernel(name, engine):
    """(instructions, seconds) of kernel ``name`` on a fresh core."""
    kernel = make_kernel(name, seed=SEED)
    core = Core(kernel.program, MemorySystem.stitch(), engine=engine)
    kernel.setup(core)
    start = time.perf_counter()
    outcome = core.run(max_instructions=20_000_000)
    seconds = time.perf_counter() - start
    if outcome.reason != STOP_HALT:
        raise RuntimeError(f"kernel {name!r} did not halt ({outcome.reason})")
    return core.instret, seconds


def time_app(evaluator, engine):
    """(instructions, seconds) of ``evaluator``'s Stitch co-simulation
    on a freshly built system."""
    system, _ = evaluator.build_system(ARCH_STITCH, items=APP_ITEMS,
                                       engine=engine)
    start = time.perf_counter()
    results = system.run()
    seconds = time.perf_counter() - start
    if not all(result.halted for result in results):
        raise RuntimeError(f"{evaluator.app.name} did not run to completion")
    return sum(result.instructions for result in results), seconds


def measure(time_once, repeats):
    """(every instruction count seen, {engine: median seconds}).

    Each round runs both engines, the first one alternating, so host
    drift spreads over both instead of reading as one engine's speed.
    """
    counts = set()
    times = {engine: [] for engine in ENGINES}
    for round_ in range(repeats):
        for engine in ENGINES if round_ % 2 == 0 else ENGINES[::-1]:
            instructions, seconds = time_once(engine)
            counts.add(instructions)
            times[engine].append(seconds)
    return counts, {engine: statistics.median(each)
                    for engine, each in times.items()}


def row(name, instructions, seconds):
    ref, fast = (instructions / seconds[engine] / 1e6 for engine in ENGINES)
    return (f"{name:<8} {instructions:>9,} {ref:>8.2f} {fast:>9.2f} "
            f"{fast / ref:>8.2f}x")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="rounds per target; medians gate (default 3)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    evaluator = AppEvaluator(APP_FACTORIES[APP](seed=SEED))
    evaluator.cycle_tables()  # compile every stage once, untimed
    targets = [(name, functools.partial(time_kernel, name))
               for name in KERNELS]
    targets.append((APP, functools.partial(time_app, evaluator)))
    print(f"{'target':<8} {'instr':>9} {'ref M/s':>8} {'fast M/s':>9} "
          f"{'fast/ref':>9}")
    total = 0
    total_seconds = dict.fromkeys(ENGINES, 0.0)
    failed = False
    for name, time_once in targets:
        counts, seconds = measure(time_once, args.repeats)
        if len(counts) != 1:
            print(f"FAIL: {name}: the engines disagree on the instruction "
                  f"count ({sorted(counts)})", file=sys.stderr)
            failed = True
            continue
        instructions = counts.pop()
        print(row(name, instructions, seconds))
        total += instructions
        for engine in ENGINES:
            total_seconds[engine] += seconds[engine]
    if total:
        print(row("TOTAL", total, total_seconds))
        speedup = total_seconds["reference"] / total_seconds["fast"]
        if speedup < MIN_SPEEDUP:
            print(f"FAIL: the aggregate fast/reference ratio {speedup:.2f}x "
                  f"is below the {MIN_SPEEDUP}x floor", file=sys.stderr)
            failed = True
    if not failed:
        print("engine speed guard: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
