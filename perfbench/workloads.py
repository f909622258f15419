"""The benchmark's workloads and its correctness gate.

Each workload has an untimed ``setup``, a timed ``run_job`` per job
(one pass runs every job of ``job_names`` back to back: a closed loop,
one thread; the job ends each of its steps with ``lap(step)``), an
untimed ``check_job`` that checks one job's output as soon as it
finishes and keeps only its digest, and an untimed ``finish`` with the
run-level checks.  The program only sees the
kernels and apps generated from the seed.

Correctness gate:

* at :data:`RECORDED_SEED`, every version's cycles, every kernel's
  baseline cycles, every app's makespan and per-tile instruction counts
  and the model counts must equal ``expected.json``, and the rows must
  agree with ``benchmarks/baselines/BENCH_fig11.json`` / ``BENCH_fig12.json``;
* at every seed, the compiler's ``MiscompileError`` check must pass, a
  re-simulation of every compiled version must reproduce its cycles and
  the original program's outputs, every co-sim stage output must equal
  the baseline architecture's, every pass must repeat the first pass
  exactly, and an observed co-sim must pass ``check_run`` strictly.
"""

import contextlib
import json
import math
import reprlib
import traceback
from pathlib import Path

RECORDED_SEED = 1
ITEMS = 4
MAX_INSTRUCTIONS = 20_000_000

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
BASELINES = HERE.parent / "benchmarks" / "baselines"

#: Model-output counts: they must repeat exactly across runs and commits.
MODEL_COUNTS = (
    "cpu.instructions", "core.patch_calls", "mem.icache_hits",
    "mem.icache_misses", "mem.dcache_accesses", "mpi.messages",
    "noc.packets", "sim.makespan_cycles",
)


class Gate:
    """Counts jobs attempted and failed; a failed job keeps its reason."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.jobs = []
        self.failures = {}

    def run(self, job, function, *args):
        """Run one job; an exception fails the job and returns ``None``."""
        self.jobs.append(job)
        span = (self.recorder.job_span(job) if self.recorder is not None
                else contextlib.nullcontext())
        try:
            with span:
                return function(*args)
        except Exception as exc:  # a raising job is a failed job, not a crash
            traceback.print_exc()
            self.fail(job, f"raised {type(exc).__name__}: {exc}")
            return None

    def fail(self, job, reason):
        self.failures.setdefault(job, reason)

    def fail_named(self, name, reason):
        """Fail every attempted job of one kernel or app."""
        for job in self.jobs:
            if job.rsplit("/", 1)[-1] == name:
                self.fail(job, reason)

    def fail_all(self, reason):
        for job in self.jobs:
            self.fail(job, reason)

    def expect(self, job, what, expected, actual):
        if expected != actual:
            self.fail(job, f"{what}: " + "; ".join(
                _differences(expected, actual)
            ))

    @property
    def attempted(self):
        return len(self.jobs)

    @property
    def failed(self):
        return len(self.failures)

    @property
    def failed_ratio(self):
        return self.failed / self.attempted if self.attempted else 1.0


def load_expected(path=EXPECTED_PATH):
    with open(path) as handle:
        return json.load(handle)


def _baseline_rows(name):
    with open(BASELINES / name) as handle:
        return json.load(handle)


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _differences(expected, actual, prefix=""):
    """Where two nested dicts differ, as ``path: expected ..., got ...``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        found = []
        for key in sorted(set(expected) | set(actual), key=str):
            found += _differences(expected.get(key), actual.get(key),
                                  f"{prefix}.{key}" if prefix else str(key))
        return found
    if expected == actual:
        return []
    return [f"{prefix or 'value'}: expected {reprlib.repr(expected)}, "
            f"got {reprlib.repr(actual)}"]


class CompileWorkload:
    """Cold compile of the Fig. 11 suite across 13 patch options."""

    #: Set-up is about 0.2 s of imports, so a run adds four cold set-ups
    #: in fresh interpreters and reports the median of five.
    extra_setups = 4
    #: A pass takes 12-21 s; two give every step a second, later sample.
    min_passes = 2

    def __init__(self, seed, expected=None, kernels=None):
        from repro.analysis.experiments.kernels import (
            FIG11_KERNELS,
            PAPER_AVG_SINGLE,
        )
        from repro.compiler.driver import (
            ALL_OPTIONS,
            LOCUS_OPTION,
            SINGLE_OPTIONS,
        )

        self.seed = seed
        self.expected = expected
        self.kernels = tuple(kernels) if kernels else FIG11_KERNELS
        self.options = ALL_OPTIONS + (LOCUS_OPTION,)
        self.singles = tuple(option.name for option in SINGLE_OPTIONS)
        self.paper = PAPER_AVG_SINGLE
        self.first = {}
        self.model = {}

    @property
    def job_names(self):
        return self.kernels

    def setup(self, gate):
        pass

    def run_job(self, name, lap):
        from repro.compiler.driver import KernelCompiler
        from repro.workloads import make_kernel

        kernel = make_kernel(name, seed=self.seed)
        compiler = KernelCompiler(kernel, allow_replication=True)
        lap("profile")
        versions = {}
        for option in self.options:
            versions[option.name] = compiler.compile(option)
            lap(option.name)
        return kernel, compiler, versions

    def check_job(self, gate, tag, name, output):
        kernel, compiler, versions = output
        cycles = {
            "baseline": compiler.baseline_cycles,
            "versions": {o: v.cycles for o, v in versions.items()},
        }
        job = f"{tag}/{name}"
        if self.expected is not None:
            gate.expect(job, f"{name} cycles at the recorded seed",
                        self.expected[name]["cycles"], cycles)
        gate.expect(job, f"{name} cycles against the first pass",
                    self.first.setdefault(name, cycles), cycles)
        if name not in self.model:
            self._check_model(gate, job, kernel, compiler, versions)

    def _check_model(self, gate, job, kernel, compiler, versions):
        try:
            model = _resimulate(kernel, compiler, versions)
        except Exception as exc:  # a raising check fails the job
            gate.fail(job, f"re-simulation: {type(exc).__name__}: {exc}")
            return
        self.model[kernel.name] = model
        if self.expected is not None:
            gate.expect(job, f"{kernel.name} model counts at the recorded "
                        "seed", self.expected[kernel.name]["model"], model)

    def finish(self, gate):
        """Check the Fig. 11 rows; return (sim_speedup, paper anchor)."""
        if self.expected is not None:
            self._check_fig11(gate)
        # Fig. 11's mean best-single-patch speedup.
        singles = [
            cycles["baseline"] / min(cycles["versions"][o] for o in self.singles)
            for cycles in self.first.values()
        ]
        speedup = sum(singles) / len(singles) if singles else 0.0
        return speedup, self.paper

    def _check_fig11(self, gate):
        from repro.compiler.driver import (
            ALL_OPTIONS,
            FUSED_OPTIONS,
            LOCUS_OPTION,
            SINGLE_OPTIONS,
        )

        committed = _baseline_rows("BENCH_fig11.json")["kernels"]
        for name, cycles in self.first.items():
            base = cycles["baseline"]
            speedup = {o: base / c for o, c in cycles["versions"].items()}

            def best(options):
                winner = max(options, key=lambda o: speedup[o.name])
                return {"option": winner.name,
                        "speedup": round(speedup[winner.name], 4)}

            row = {
                "baseline_cycles": base,
                "locus_speedup": round(speedup[LOCUS_OPTION.name], 4),
                "best_single": best(SINGLE_OPTIONS),
                "best_fused": best(FUSED_OPTIONS),
                "best_speedup": best(ALL_OPTIONS)["speedup"],
            }
            want = {key: committed[name][key] for key in row}
            diffs = _differences(want, row)
            if diffs:
                gate.fail_named(name, "BENCH_fig11.json row: "
                                + "; ".join(diffs))

    def model_totals(self):
        totals = dict.fromkeys(MODEL_COUNTS, 0)
        for model in self.model.values():
            for key in MODEL_COUNTS:
                totals[key] += model[key]
        return totals

    def sim_minstr_per_s(self, jobs):
        """Geometric mean over the kernels of the instructions a kernel's
        compile simulates (its profile, reference and measure runs: the
        model's ``cpu.instructions``) per second of its job in ``jobs``.
        A total over the pass would follow the seed through astar's
        data-dependent search (1.40-1.85 M instructions a pass), and the
        median kernel flips between neighbours whose rates differ by 60%;
        the geometric mean moves 1% when one kernel moves 15%."""
        rates = [self.model[name]["cpu.instructions"] / seconds / 1e6
                 for name, seconds in jobs.items() if name in self.model]
        return _geomean(rates) if rates else 0.0

    def digest(self):
        return {name: {"cycles": self.first[name], "model": self.model[name]}
                for name in self.first}


def _resimulate(kernel, compiler, versions):
    """Model counts of one kernel's compile.

    The model counts cover the profile and reference runs of the original
    program plus one measure run per version.  Raises if a run disagrees
    with what the compiler measured."""
    base = _simulate(kernel, kernel.program, None)
    if base.cycles != compiler.baseline_cycles:
        raise RuntimeError(
            f"{kernel.name}: re-simulated baseline takes {base.cycles} "
            f"cycles, the compiler measured {compiler.baseline_cycles}"
        )
    reference = kernel.result(base)
    model = dict.fromkeys(MODEL_COUNTS, 0)
    _add_core_counts(model, base, times=2)  # profile + reference runs
    for option, compiled in versions.items():
        core = _simulate(kernel, compiled.program, compiled.cfg_table)
        if core.cycles != compiled.cycles:
            raise RuntimeError(
                f"{kernel.name} @ {option}: re-simulated version takes "
                f"{core.cycles} cycles, the compiler measured "
                f"{compiled.cycles}"
            )
        if kernel.result(core) != reference:
            raise RuntimeError(
                f"{kernel.name} @ {option}: re-simulated output differs "
                "from the original program's"
            )
        _add_core_counts(model, core)
    return model


def _simulate(kernel, program, cfg_table):
    """One measure run as the compiler makes it; replicated read-only
    regions sit in a stand-in remote scratchpad.  Returns the core."""
    from repro.core.executor import PatchExecutor
    from repro.cpu.core import STOP_HALT, Core
    from repro.mem.hierarchy import MemorySystem

    memory = MemorySystem.stitch()
    patch = None
    if cfg_table:
        replica = MemorySystem.stitch()
        for region, words in getattr(kernel, "consts", []):
            replica.load(region.addr, words)
        patch = PatchExecutor(cfg_table, memory, replica_memory=replica)
    core = Core(program, memory, patch=patch)
    kernel.setup(core)
    outcome = core.run(max_instructions=MAX_INSTRUCTIONS)
    if outcome.reason != STOP_HALT:
        raise RuntimeError(f"{kernel.name} did not halt ({outcome.reason})")
    return core


def _add_core_counts(model, core, times=1):
    memory, patch = core.memory, core.patch
    model["cpu.instructions"] += times * core.instret
    model["core.patch_calls"] += times * (patch.executions if patch else 0)
    model["mem.icache_hits"] += times * memory.icache.hits
    model["mem.icache_misses"] += times * memory.icache.misses
    model["mem.dcache_accesses"] += times * (
        memory.dcache.hits + memory.dcache.misses
    )


class CosimWorkload:
    """16-tile co-simulation of APP1-4 on the Stitch architecture;
    ``observed`` attaches a bare ``Telemetry()`` bundle to every run."""

    #: Set-up compiles every app stage (about 20 s): one per run.
    extra_setups = 0
    #: A pass takes 2-7 s; at least three give every step two more samples.
    min_passes = 3

    def __init__(self, seed, expected=None, observed=False):
        from repro.analysis.experiments.apps import PAPER_FIG12
        from repro.sim.baselines import ARCH_STITCH
        from repro.verify import check_run
        from repro.workloads.apps import APP_FACTORIES

        # Imported before any wrapper is installed, so no module binds one.
        self.check_run = check_run
        self.seed = seed
        self.expected = expected
        self.apps = tuple(sorted(APP_FACTORIES))
        self.observed = observed
        self.paper = PAPER_FIG12[ARCH_STITCH]
        self.evaluators = {}
        self.reference = {}
        self.throughputs = {}
        self.plans = {}
        self.first = {}

    @property
    def job_names(self):
        return tuple(self.evaluators)

    def setup(self, gate):
        """Compile, plan, and run the baseline architecture once per app:
        the ``repro app`` compile path, outside the timed region."""
        for name in self.apps:
            prepared = gate.run(f"setup/{name}", self._prepare, name)
            if prepared is not None:
                (self.evaluators[name], self.throughputs[name],
                 self.plans[name], self.reference[name]) = prepared

    def _prepare(self, name):
        from repro.sim.baselines import ARCH_BASELINE, ARCH_STITCH, AppEvaluator
        from repro.workloads.apps import APP_FACTORIES

        evaluator = AppEvaluator(APP_FACTORIES[name](seed=self.seed))
        evaluator.cycle_tables()
        throughputs = evaluator.normalized_throughputs()
        plan = evaluator.plan(ARCH_STITCH)
        system, base_plan = evaluator.build_system(ARCH_BASELINE, items=ITEMS)
        system.run()
        return evaluator, throughputs, plan, _stage_outputs(
            evaluator.app, system, base_plan
        )

    def run_job(self, name, lap):
        from repro.sim.baselines import ARCH_STITCH
        from repro.telemetry import Telemetry

        system, plan = self.evaluators[name].build_system(
            ARCH_STITCH, items=ITEMS,
            telemetry=Telemetry() if self.observed else None,
        )
        lap("build")
        return system, plan, system.run()

    def check_job(self, gate, tag, name, output):
        system, plan, results = output
        job = f"{tag}/{name}"
        if not all(r.halted for r in results):
            gate.fail(job, f"{name}: not every tile halted: {results!r}")
        gate.expect(job, f"{name} stage outputs against the baseline "
                    "architecture", self.reference[name],
                    _stage_outputs(self.evaluators[name].app, system, plan))
        digest = {
            "makespan": max(r.cycles for r in results),
            "instructions": [r.instructions for r in results],
            "model": _system_counts(system, results),
        }
        if self.expected is not None:
            gate.expect(job, f"{name} at the recorded seed",
                        self.expected[name], digest)
        gate.expect(job, f"{name} against the first pass",
                    self.first.setdefault(name, digest), digest)
        if self.observed:
            report = self.check_run(results)
            if not report.ok(strict=True):
                gate.fail(job, f"{name}: check_run: {report.render()}")

    def finish(self, gate):
        """Check the Fig. 12 rows; return (sim_speedup, paper anchor)."""
        from repro.sim.baselines import ARCH_STITCH

        if self.expected is not None:
            self._check_fig12(gate)
        # Fig. 12's Stitch geomean over the apps.
        values = [t[ARCH_STITCH] for t in self.throughputs.values()]
        return (_geomean(values) if values else 0.0), self.paper

    def _check_fig12(self, gate):
        from repro.sim.baselines import ARCHITECTURES

        committed = _baseline_rows("BENCH_fig12.json")["apps"]
        for name, throughputs in self.throughputs.items():
            plan = self.plans[name]
            row = {
                "throughputs": {a: round(throughputs[a], 4)
                                for a in ARCHITECTURES},
                "bottleneck_cycles": plan.bottleneck_cycles(),
                "fused_pairs": len(plan.fused_pairs()),
            }
            want = {key: committed[name][key] for key in row}
            diffs = _differences(want, row)
            if diffs:
                gate.fail_named(name, "BENCH_fig12.json row: "
                                + "; ".join(diffs))

    def model_totals(self):
        totals = dict.fromkeys(MODEL_COUNTS, 0)
        for digest in self.first.values():
            for key in MODEL_COUNTS:
                totals[key] += digest["model"][key]
        return totals

    def sim_minstr_per_s(self, jobs):
        """Instructions all tiles retire in a pass per second of the pass
        made of ``jobs`` (every pass repeats the first pass's counts, or
        fails the gate)."""
        retired = sum(sum(d["instructions"]) for d in self.first.values())
        return retired / sum(jobs.values()) / 1e6

    def digest(self):
        return dict(self.first)


def _stage_outputs(app, system, plan):
    return {
        stage.id: stage.kernel.result(system.cores[plan.tile_of(stage.id)])
        for stage in app.stages
    }


def _system_counts(system, results):
    model = dict.fromkeys(MODEL_COUNTS, 0)
    for core in system.cores:
        if core is not None:
            _add_core_counts(model, core)
    model["mpi.messages"] = system.fabric.messages
    model["noc.packets"] = system.fabric.network.packets_sent
    model["sim.makespan_cycles"] = max(r.cycles for r in results)
    return model


def make_workload(name, seed, expected=None):
    if name == "compile":
        return CompileWorkload(seed, expected)
    if name in ("cosim", "cosim_observed"):
        return CosimWorkload(seed, expected,
                             observed=name == "cosim_observed")
    raise ValueError(f"unknown workload {name!r}")
