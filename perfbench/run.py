"""Host-time benchmark of the Stitch reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py                          # all three workloads
    python3 perfbench/run.py --workload compile --seed 1 --seconds 10
    python3 perfbench/run.py --workload cosim --trace 1   # per-layer ledger

Each workload runs in a fresh interpreter, as one process with one
thread.  Jobs run back to back (a closed loop) until ``--seconds`` of
passes have been measured, and at least the workload's ``min_passes``.
``pass_s`` is one pass with each step of each job at its fastest over
the run's passes (see :func:`best_jobs`), scaled to a host of fixed
speed (see :func:`host_factor`).  Checks run outside the timed region.
The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The exit code is 0 only when every job passed the
correctness gate.

``--trace 1`` wraps the public entry points of the ``repro`` layers with
timing spans (see ``spans.py``), traces the set-up and ``--seconds`` of
passes, then restores the originals and measures ``--seconds`` of
untraced passes for the tracing overhead.
"""

import time

T0 = time.perf_counter()  # set-up time runs from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict, namedtuple  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("compile", "cosim", "cosim_observed")

Pass = namedtuple("Pass", "tag seconds steps refs trace")

#: Iterations of the reference loop, and its seconds on an idle 2-vCPU
#: KVM guest (2.1 GHz Xeon), the host the benchmark was tuned on.
REFERENCE_LOOP = 200_000
REFERENCE_S = 0.013


def summarize(values):
    """(median, q1, q3) of a sample; quartiles as
    ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if not values:
        raise ValueError("summarize() needs at least one value")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def load_contract():
    """``BENCHMARK.json`` and the ledger of what each metric should move."""
    with open(ROOT / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    with open(HERE / "ledger.json") as handle:
        ledger = json.load(handle)
    return contract, ledger


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, gate, seconds, label, recorder=None, min_passes=1):
    """Passes back to back until ``seconds`` of them and ``min_passes``.

    A pass's time is the sum of its jobs' times, kept per step of each
    job in ``Pass.steps``; ``Pass.refs`` holds a sample of
    :func:`reference_s` taken before each job.  Each job's output is
    checked as soon as the job ends, outside the clock, then dropped and
    its garbage collected, so no job runs beside an earlier job's objects
    (as in one ``repro`` invocation per job).  With a ``recorder``, a
    pass's trace holds the spans and counts of its jobs only."""
    if not workload.job_names:
        raise RuntimeError("no job survived set-up: "
                           + "; ".join(gate.failures.values()))
    passes = []
    while (len(passes) < max(min_passes, 1)
           or sum(p.seconds for p in passes) < seconds):
        tag = f"{label}{len(passes) + 1}"
        steps = {}
        refs = []
        trace = ([], Counter()) if recorder is not None else None
        for name in workload.job_names:
            refs.append(reference_s())
            if recorder is not None:
                recorder.take()  # drop the spans of untimed work
            lap = Laps(name)
            output = gate.run(f"{tag}/{name}", workload.run_job, name, lap)
            lap("end")
            steps.update(lap.times)
            if recorder is not None:
                spans_, counts = recorder.take()
                trace[0].extend(spans_)
                trace[1].update(counts)
            if output is not None:
                workload.check_job(gate, tag, name, output)
            del output
            gc.collect()
        passes.append(Pass(tag, sum(steps.values()), steps, refs, trace))
    return passes


def reference_s():
    """Seconds of a fixed pure-Python loop: a probe of host speed that
    no change to the program can move."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def host_factor(passes):
    """How many times slower than :data:`REFERENCE_S` the host ran the
    reference loop during ``passes`` (median of the samples).

    Neighbours on a shared host slow everything by up to 1.9x for
    minutes at a time, which no statistic over one run's samples can
    remove; the reference loop, sampled between the jobs, slows with
    them.  Dividing by this factor cut the spread of co-sim pass_s over
    eight runs in such a period from 0.26 to 0.085."""
    return statistics.median(r for p in passes for r in p.refs) / REFERENCE_S


class Laps:
    """A job's clock: ``lap(step)`` ends the step that ran since the last
    lap (or since the job started) and keeps its seconds."""

    def __init__(self, job):
        self.job = job
        self.times = {}
        self.last = time.perf_counter()

    def __call__(self, step):
        now = time.perf_counter()
        self.times[(self.job, step)] = now - self.last
        self.last = now


def best_jobs(passes):
    """Seconds of each job with each of its steps at its fastest over
    ``passes``; their sum is ``pass_s``.

    On a shared host, neighbours slow a job by up to 1.8x in bursts of
    several seconds, while a step's fastest time repeats: the way
    ``timeit`` takes the best of its repeats.  Steps are short (one
    option's compile, an app's build or run), so a slow burst that
    covers part of a job in every pass still leaves its other steps
    clean."""
    jobs = defaultdict(float)
    for step in {step for p in passes for step in p.steps}:
        jobs[step[0]] += min(p.steps[step] for p in passes if step in p.steps)
    return dict(jobs)


def cold_setup_s(args):
    """Set-up seconds of one more cold set-up, in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, check=False,
    )
    if child.returncode != 0:
        raise RuntimeError(f"cold set-up exited {child.returncode}: "
                           f"{child.stderr.strip()[-2000:]}")
    return float(child.stdout.strip().splitlines()[-1])


# -- untraced run: end-to-end metrics ----------------------------------------


def run_untraced(args, workload, gate):
    from perfbench import spans

    spans.assert_pristine()
    workload.setup(gate)
    setups = [time.perf_counter() - T0]
    passes = measure(workload, gate, args.seconds, "pass",
                     min_passes=workload.min_passes)
    spans.assert_pristine()
    setups += [cold_setup_s(args) for _ in range(workload.extra_setups)]
    speedup, paper = workload.finish(gate)
    host = host_factor(passes)
    jobs = {job: seconds / host for job, seconds in best_jobs(passes).items()}
    pass_s = sum(jobs.values())
    median, q1, q3 = summarize(p.seconds for p in passes)
    notes = {
        "setup_s": f"median of {len(setups)} cold set-ups, as measured",
        "pass_s": f"each step at its fastest of {len(passes)} passes, "
                  f"{pass_s * host:.4f} s as measured / host factor "
                  f"{host:.4f}; whole passes as measured: median "
                  f"{median:.4f} q1 {q1:.4f} q3 {q3:.4f}",
        "paper_err_pct": f"against the paper's {paper}",
    }
    metrics = {
        "setup_s": summarize(setups)[0],
        "pass_s": pass_s,
        "sim_minstr_per_s": workload.sim_minstr_per_s(jobs),
        "peak_rss_mb": peak_rss_mb(),
        "sim_speedup": speedup,
        "paper_err_pct": abs(speedup - paper) / paper * 100.0,
    }
    return metrics, notes, len(passes)


# -- traced run: per-layer metrics -------------------------------------------


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(spans_, counts, wall):
    """Per-layer metrics of one traced scope of ``wall`` seconds."""
    from perfbench.spans import EVENT_BOUNDARIES, call_counts, ledger

    layers, other, selfs = ledger(spans_, wall)
    calls = call_counts(spans_)

    def self_s(*names):
        return sum(selfs.get(name, 0.0) for name in names)

    def ncalls(*names):
        return sum(calls.get(name, 0) for name in names)

    mem = [name for name in calls if name.startswith("mem.")]
    slices = ncalls("cpu.run")
    instructions = counts["cpu.instructions"]
    patch_calls = ncalls("core.patch")
    icache = counts["mem.icache_hits"] + counts["mem.icache_misses"]
    return {
        "compiler.profile_s": self_s("compiler.profile"),
        "compiler.dfg_s": self_s("compiler.dfg"),
        "compiler.enumerate_s": self_s("compiler.enumerate"),
        "compiler.enumerate_calls": ncalls("compiler.enumerate"),
        "compiler.enumerate_visited": counts["compiler.enumerate_visited"],
        "compiler.enumerate_yield": _ratio(
            counts["compiler.enumerate_found"],
            counts["compiler.enumerate_visited"],
        ),
        "compiler.enumerate_truncated": counts["compiler.enumerate_truncated"],
        "compiler.select_s": self_s("compiler.select"),
        "compiler.map_s": self_s("compiler.map"),
        "compiler.rewrite_s": self_s("compiler.rewrite_block",
                                     "compiler.rewrite_program"),
        "compiler.driver_s": self_s("compiler.compile"),
        "compiler.select_accept_ratio": _ratio(
            counts["compiler.select_placed"], counts["compiler.select_offered"]
        ),
        "compiler.versions": ncalls("compiler.compile"),
        "cpu.run_s": self_s("cpu.run"),
        "cpu.slices": slices,
        "cpu.instructions": instructions,
        "cpu.ns_per_instr": _ratio(self_s("cpu.run") * 1e9, instructions),
        "cpu.fast_slice_ratio": _ratio(counts["cpu.fast_slices"], slices),
        "core.patch_s": self_s("core.patch"),
        "core.patch_calls": patch_calls,
        "core.patch_ns_per_call": _ratio(self_s("core.patch") * 1e9,
                                         patch_calls),
        "core.patch_fused_ratio": _ratio(counts["core.patch_fused"],
                                         patch_calls),
        "core.stitch_s": self_s("core.stitch"),
        "mem.access_s": self_s(*mem),
        "mem.accesses": ncalls(*mem),
        "mem.icache_hit_ratio": _ratio(counts["mem.icache_hits"], icache),
        "mem.dcache_accesses": counts["mem.dcache_accesses"],
        "sim.build_s": self_s("sim.build"),
        "sim.schedule_s": self_s("sim.schedule"),
        "sim.idle_slice_ratio": _ratio(counts["cpu.idle_slices"], slices),
        "sim.makespan_cycles": counts["sim.makespan_cycles"],
        "sim.ipc": _ratio(counts["sim.instructions"],
                          counts["sim.makespan_cycles"]),
        "mpi.s": layers["mpi"],
        "mpi.messages": ncalls("mpi.send"),
        "mpi.recv_hit_ratio": _ratio(counts["mpi.recv_hits"],
                                     ncalls("mpi.try_recv")),
        "noc.s": layers["noc"],
        "noc.packets": counts["noc.packets"],
        "telemetry.s": layers["telemetry"],
        "telemetry.events": ncalls(*EVENT_BOUNDARIES),
        "other_s": other,
        "traced_pass_s": wall,
    }, layers, other, calls, selfs


def traced_model(metrics, counts):
    """The model-output counts as the traced boundaries saw them."""
    return {
        "cpu.instructions": metrics["cpu.instructions"],
        "core.patch_calls": metrics["core.patch_calls"],
        "mem.icache_hits": counts["mem.icache_hits"],
        "mem.icache_misses": counts["mem.icache_misses"],
        "mem.dcache_accesses": metrics["mem.dcache_accesses"],
        "mpi.messages": metrics["mpi.messages"],
        "noc.packets": metrics["noc.packets"],
        "sim.makespan_cycles": metrics["sim.makespan_cycles"],
    }


def run_traced(args, workload, gate):
    from perfbench import spans

    recorder = spans.SpanRecorder()
    installed = spans.install(recorder)
    gate.recorder = recorder
    try:
        start = time.perf_counter()
        workload.setup(gate)
        setup_wall = time.perf_counter() - start
        setup_trace = recorder.take()
        traced = measure(workload, gate, args.seconds, "traced", recorder)
    finally:
        gate.recorder = None
        installed.restore()
    spans.assert_pristine()
    plain = measure(workload, gate, args.seconds, "pass")
    workload.finish(gate)

    model = workload.model_totals()
    per_pass = []
    for p in traced:
        spans_, counts = p.trace
        metrics, layers, other, calls, selfs = layer_metrics(
            spans_, counts, p.seconds
        )
        per_pass.append(metrics)
        seen = traced_model(metrics, counts)
        for key, value in model.items():
            if seen[key] != value:
                gate.fail_all(f"{p.tag}: traced {key} = {seen[key]}, the "
                              f"simulated model says {value}")
        if p is traced[0]:
            first = (calls, selfs, layers, other, p.seconds)
    metrics = {
        name: summarize([m[name] for m in per_pass])[0] for name in per_pass[0]
    }
    traced_s = sum(best_jobs(traced).values())
    plain_s = sum(best_jobs(plain).values())
    metrics["trace_overhead_pct"] = (traced_s - plain_s) / plain_s * 100.0
    _, setup_layers, setup_other, _, _ = layer_metrics(*setup_trace,
                                                        setup_wall)
    for layer, seconds in setup_layers.items():
        metrics[f"setup.{layer}_s"] = seconds
    metrics["setup.other_s"] = setup_other
    return metrics, first, (len(traced), len(plain))


# -- output -------------------------------------------------------------------


def _format(value):
    if isinstance(value, int):
        return f"{value:>14d}"
    return f"{value:>14.4f}"


def print_boundaries(calls, selfs, layers, other, wall):
    """Per-boundary calls and self time beside the layer ledger."""
    print(f"  first traced pass: {wall:.4f} s wall")
    print(f"  {'boundary':<34}{'calls':>12}{'self s':>12}")
    for name in sorted(calls, key=lambda n: -selfs.get(n, 0.0)):
        print(f"  {name:<34}{calls[name]:>12d}{selfs.get(name, 0.0):>12.4f}")
    print(f"  {'layer':<34}{'self s':>12}{'share':>12}")
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<34}{seconds:>12.4f}{seconds / wall:>12.1%}")
    print(f"  {'other_s':<34}{other:>12.4f}{other / wall:>12.1%}")
    print(f"  {'sum = traced wall':<34}"
          f"{sum(layers.values()) + other:>12.4f}")


def print_metrics(entries, metrics, notes=None, moves=None):
    for entry in entries:
        name = entry["name"]
        line = (f"  {name:<30}{_format(metrics[name])} {entry['unit']:<12}"
                f"{entry['better']} is better")
        if notes and name in notes:
            line += f"  ({notes[name]})"
        if moves and name in moves:
            line += f"  -> {moves[name]}"
        print(line)


def result_line(gate, entries, metrics):
    return json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]],
                            "unit": entry["unit"]}
            for entry in entries
        },
    })


# -- entry points ---------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Host-time benchmark: compile, co-sim and observed "
                    "co-sim, with a traced per-layer ledger.",
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, each in a fresh "
                             "interpreter)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=load_contract()[0]["run_seconds"],
                        help="measure passes for this long (at least the "
                             "workload's min_passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write this run's exact values to expected.json")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit "
                             "(one cold set-up sample)")
    return parser.parse_args(argv)


def run_one(args):
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench.workloads import (
        RECORDED_SEED,
        EXPECTED_PATH,
        Gate,
        load_expected,
        make_workload,
    )

    if args.record and (args.seed != RECORDED_SEED
                        or args.workload == "cosim_observed"):
        print(f"perfbench: --record needs --seed {RECORDED_SEED} and the "
              "compile or cosim workload", file=sys.stderr)
        return 2
    contract, ledger = load_contract()
    expected = None
    if args.seed == RECORDED_SEED and not args.record:
        recorded = load_expected(EXPECTED_PATH)
        expected = recorded["cosim" if args.workload == "cosim_observed"
                            else args.workload]
    workload = make_workload(args.workload, args.seed, expected)
    gate = Gate()
    if args.setup_only:
        workload.setup(gate)
        print(time.perf_counter() - T0)
        return 0 if gate.failed == 0 else 1
    mode = "traced" if args.trace else "untraced"
    if args.trace:
        metrics, first_pass, counts = run_traced(args, workload, gate)
        entries = contract["per_layer"]
    else:
        metrics, notes, passes = run_untraced(args, workload, gate)
        entries = contract["end_to_end"]
    missing = {e["name"] for e in entries} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree: {missing}")

    print(f"perfbench {args.workload} ({mode}) seed={args.seed} "
          f"jobs/pass={len(workload.job_names)} closed loop, 1 thread")
    for job, reason in gate.failures.items():
        print(f"  FAIL {job}: {reason}")
    if args.trace:
        print(f"  traced passes={counts[0]} untraced passes={counts[1]}")
        print_boundaries(*first_pass)
        print_metrics(entries, metrics, moves=ledger["per_layer"])
    else:
        print_metrics(entries, metrics, notes)
        print(f"  {'failed_ratio':<30}{gate.failed_ratio:>14.4f} fraction "
              f"lower is better  ({gate.failed} of {gate.attempted} jobs, "
              f"{passes} passes)")
    if args.record and not gate.failed:
        record(args.workload, workload, RECORDED_SEED, EXPECTED_PATH)
    print(result_line(gate, entries, metrics))
    return 0 if gate.failed == 0 else 1


def record(name, workload, recorded_seed, path):
    """Write the run's exact values into the recorded-values file."""
    data = {}
    if path.exists():
        with open(path) as handle:
            data = json.load(handle)
    data["seed"] = recorded_seed
    data[name] = workload.digest()
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"  recorded {name} into {path.name}")


def run_all(argv):
    """Each workload in a fresh interpreter, one after another."""
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name] + argv,
            check=False,
        )
        status = max(status, child.returncode)
    return status


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if args.workload is None:
        return run_all(argv)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
