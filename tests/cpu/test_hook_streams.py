"""Hook streams: the hooked block engine vs the instrumented loop it replaced.

Engine ``instrumented`` runs :func:`repro.cpu.engine.run_hooked`, a
block engine that fires the core's probe hooks.  The loop it replaced,
kept verbatim in ``instrumented_oracle.py``, is the oracle: a
:class:`Recorder` logs every hook call with its arguments, and at
``boundary`` and inside the fabric's ``fabric_send``/``fabric_recv``
also the core's counters, because those hooks read them.  The log and
the final state must match the oracle's on the kernel suite (scalar and
compiled with ``cix``), off the default memory, at two boundary
intervals, with the per-instruction hooks that turn translation off,
with a ``cix`` hook raising inside a translated block, under an armed
chaos plan, and on the 16-tile application co-sims with every in-repo
observer attached.  A translated self-loop is held to it with a ``cix``
hook raising on its first, a middle and its last trip, and with a
boundary at every cycle of its run.  The soak tier runs the whole
cross product.
"""

import contextlib
import functools
import math
import sys

import pytest

from repro.chaos import Fault, InjectionPlan, Injector, RecoveryParams
from repro.compiler.driver import FUSED_OPTIONS, KernelCompiler
from repro.core.executor import PatchExecutor
from repro.cpu import Core, engine
from repro.critpath import DependencyRecorder
from repro.isa import assemble
from repro.mem import MemorySystem, SPM_BASE
from repro.probe import HOOKS, Probe, combine
from repro.sim.baselines import ARCH_BASELINE, ARCH_STITCH, AppEvaluator
from repro.telemetry import Telemetry, TimeSeries
from repro.workloads import KERNEL_FACTORIES, make_kernel
from repro.workloads.apps import APP_FACTORIES
from tests.cpu.instrumented_oracle import run_instrumented
from tests.cpu.test_engine_differential import (
    COMPILED_CASES,
    MEMORY_VARIANTS,
    RAISING_TRIPS,
    SCRIPTED,
    _ScriptedPatch,
    compile_case,
    core_state,
    full_state,
    loop_entries,
    raising_trip,
    replica_for,
)

MEMORIES = dict(MEMORY_VARIANTS, stitch=MemorySystem.stitch)


class HookError(RuntimeError):
    """Raised by a :class:`Recorder`'s ``cix`` hook on its chosen call."""


def counters(core):
    """Every counter a hook could read off ``core``."""
    memory = core.memory
    spm = memory.spm
    return (
        core.pc, core.cycles, core.instret, core.stall_memory,
        core.stall_icache, core.stall_branch, core.stall_comm,
        core.cix_retired, memory.icache.hits, memory.icache.misses,
        memory.dcache.hits, memory.dcache.misses, memory.dcache.writebacks,
        (spm.reads, spm.writes) if spm is not None else None,
    )


def _plain(value):
    """A comparable stand-in for a hook argument."""
    if isinstance(value, Core):
        return ("core", value.core_id)
    if isinstance(value, (list, tuple)):
        return tuple(_plain(each) for each in value)
    if isinstance(value, dict):
        return tuple(sorted((_plain(k), _plain(v)) for k, v in value.items()))
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return type(value).__name__


class Recorder(Probe):
    """Logs every hook call; ``boundary`` fires every ``interval``
    cycles, and the ``raise_at``-th ``cix`` call raises."""

    observes_core = True

    def __init__(self, interval=None, raise_at=None):
        self.interval = interval
        self.raise_at = raise_at
        self.log = []
        self.cores = {}
        #: Per ``cix`` call: whether a translated block made it.
        self.in_block = []

    def attach(self, core):
        self.cores[core.core_id] = core
        self.log.append(("attach", core.core_id))
        return self.interval or math.inf

    def boundary(self, core):
        self.log.append(("boundary", counters(core)))
        if self.interval is None:  # another member's boundary
            return math.inf
        return (core.cycles // self.interval + 1) * self.interval

    def cix(self, tile, cfg_id, time):
        self.log.append(("cix", tile, cfg_id, time))
        self.in_block.append(sys._getframe(1).f_code.co_name == "block")
        if len(self.in_block) == self.raise_at:
            raise HookError(f"cix {cfg_id} on tile {tile} at {time}")

    def fabric_send(self, src, dst, words, now, arrival, injection_done,
                    dropped=False):
        self.log.append(("fabric_send", src, dst, words, now, arrival,
                         injection_done, dropped,
                         counters(self.cores[src])))

    def fabric_recv(self, src, dst, words, now, ready, finish, drain):
        self.log.append(("fabric_recv", src, dst, words, now, ready, finish,
                         drain, counters(self.cores[dst])))


def _logged(name):
    base = getattr(Probe, name)

    def hook(self, *args, **kwargs):
        self.log.append((name, _plain(args), _plain(kwargs)))
        return base(self, *args, **kwargs)
    return hook


#: The hooks that turn translation off.
PER_INSTRUCTION = ("retire", "mem_access")

for _name in HOOKS:
    if _name not in vars(Recorder) and _name not in PER_INSTRUCTION:
        setattr(Recorder, _name, _logged(_name))


class PerInstruction(Recorder):
    """A :class:`Recorder` that also logs ``retire`` and ``mem_access``."""


for _name in PER_INSTRUCTION:
    setattr(PerInstruction, _name, _logged(_name))


@contextlib.contextmanager
def oracle():
    """Run engine ``instrumented`` on the loop it replaced."""
    hooked = engine.run_hooked
    engine.run_hooked = run_instrumented
    try:
        yield
    finally:
        engine.run_hooked = hooked


def on_both(run):
    """``run()`` on the hooked engine, then on the oracle."""
    hooked = run()
    with oracle():
        return hooked, run()


def run_kernel(name, option=None, memory="stitch", recorder=Recorder,
               plan=None, **fields):
    """The recorder's log, the stop (or the error) and the final state
    of one kernel run; ``option`` runs its compiled version."""
    kernel = make_kernel(name, seed=1)
    new_memory = MEMORIES[memory]
    mem = new_memory()
    program, patch = kernel.program, None
    if option is not None:
        compiled = compile_case(name, option)
        program = compiled.program
        patch = PatchExecutor(compiled.cfg_table, mem,
                              replica_memory=replica_for(compiled, kernel,
                                                         new_memory))
    probe = recorder(**fields)
    injector = None
    if plan is not None:
        injector = Injector(plan, telemetry=probe)
    core = Core(program, mem, patch=patch,
                probe=combine(probe, injector))
    assert core.selected_engine() == "instrumented"
    kernel.setup(core)
    try:
        stop = core.run(max_instructions=20_000_000).reason
    except Exception as exc:  # a raising hook, or a flip gone wild
        stop = f"{type(exc).__name__}: {exc}"
    return {
        "log": probe.log,
        "stop": stop,
        "state": full_state(core, kernel),
        "blocks": any(core._blocks),
        "in_block": probe.in_block,
        "chaos": injector.events if injector is not None else None,
    }


def assert_same(hooked, reference):
    for key in ("stop", "state", "chaos", "log"):
        assert hooked[key] == reference[key], key


def compare_kernel(name, option=None, memory="stitch", **fields):
    hooked, reference = on_both(
        lambda: run_kernel(name, option, memory, **fields))
    assert_same(hooked, reference)
    return hooked


# -- kernels ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
def test_kernel_hooks_match_the_oracle(name):
    hooked = compare_kernel(name, interval=13)
    assert hooked["blocks"] or name == "aes"
    assert any(entry[0] == "boundary" for entry in hooked["log"])


@pytest.mark.parametrize("name,option", COMPILED_CASES,
                         ids=[f"{k}-{o}" for k, o in COMPILED_CASES])
@pytest.mark.parametrize("interval", [None, 13, 1000])
def test_compiled_kernel_hooks_match_the_oracle(name, option, interval):
    hooked = compare_kernel(name, option, interval=interval)
    # A block runs only if it ends before the boundary: at 13 cycles,
    # most are longer.
    assert any(hooked["in_block"]) or interval == 13


#: Compiled versions need a scratchpad, which the baseline tile lacks.
OFF_DEFAULT_MEMORY = [
    (name, option, memory)
    for name, option in [("fft", None), ("histogram", None),
                         ("fir", "AT-MA"), ("histogram", "AT-SA")]
    for memory in sorted(MEMORY_VARIANTS)
    if option is None or memory != "baseline"
]


@pytest.mark.parametrize("name,option,memory", OFF_DEFAULT_MEMORY)
def test_hooks_off_the_default_memory(name, option, memory):
    hooked = compare_kernel(name, option, memory, interval=13)
    assert hooked["blocks"] == (memory != "baseline")


@pytest.mark.parametrize("name,option", [("fir", None), ("fft", None),
                                         ("fir", "AT-MA"),
                                         ("2dconv", "AT-MA+AT-MA")])
def test_per_instruction_hooks_turn_translation_off(name, option):
    hooked = compare_kernel(name, option, recorder=PerInstruction,
                            interval=13)
    assert not hooked["blocks"]
    retired = sum(1 for entry in hooked["log"] if entry[0] == "retire")
    assert retired == hooked["state"]["instret"]


def _raising_calls(name, option, memory="stitch", interval=None):
    """The first, middle and last ``cix`` calls made in a block."""
    calls = run_kernel(name, option, memory, interval=interval)["in_block"]
    inside = [index + 1 for index, hit in enumerate(calls) if hit]
    return sorted({inside[0], inside[len(inside) // 2], inside[-1]}
                  if inside else ())


@pytest.mark.parametrize("name,option", COMPILED_CASES,
                         ids=[f"{k}-{o}" for k, o in COMPILED_CASES])
def test_cix_hook_raising_inside_a_translated_block(name, option):
    calls = _raising_calls(name, option, interval=1000)
    assert calls
    for raise_at in calls:
        hooked = compare_kernel(name, option, interval=1000,
                                raise_at=raise_at)
        assert hooked["in_block"][-1]
        assert hooked["stop"].startswith("HookError")


#: Reg flips (r1 and r15, the link register, among them), an SPM flip
#: and a freeze, with and without ECC.  A plan naming r0 is rejected.
CHAOS_FAULTS = (
    Fault("reg", cycle=300, reg=3, bit=5),
    Fault("reg", cycle=900, reg=1, bit=2),
    Fault("reg", cycle=1400, reg=15, bit=0),
    Fault("spm", cycle=2000, addr=SPM_BASE + 8, bit=7),
    Fault("reg", cycle=2600, reg=9, bit=30),
    Fault("freeze", cycle=6000),
)


@pytest.mark.parametrize("ecc", [False, True], ids=["no-ecc", "ecc"])
@pytest.mark.parametrize("name,option", [("fir", None), ("fft", None),
                                         ("fir", "AT-MA"),
                                         ("2dconv", "AT-MA+AT-MA")])
def test_armed_chaos_plan_matches_the_oracle(name, option, ecc):
    plan = InjectionPlan(name="flips", faults=CHAOS_FAULTS,
                         recovery=RecoveryParams(ecc=ecc))
    hooked = compare_kernel(name, option, plan=plan, interval=1000)
    assert hooked["chaos"]
    assert hooked["blocks"]


# -- co-simulations --------------------------------------------------------

def _observers(kind):
    """Fresh probes of one observer configuration, recorder last."""
    if kind == "telemetry":
        return [Telemetry()]
    if kind == "timeseries":
        return [Telemetry(timeseries=TimeSeries(97))]
    if kind == "critpath":
        return [DependencyRecorder()]
    return [Telemetry(timeseries=TimeSeries(97)), DependencyRecorder()]


def _observed(probe):
    """What an observer recorded, comparable across runs."""
    if isinstance(probe, Telemetry):
        events = [(e.kind, e.track, e.name, e.time, e.duration, e.category,
                   e.args) for e in probe.tracer.events]
        series = probe.timeseries
        return (events, probe.stats.snapshot(),
                None if series is None else (series.tiles, series.links,
                                             series.channels,
                                             series.dropped_intervals))
    if isinstance(probe, DependencyRecorder):
        return ([r.to_dict() for r in probe.records], probe.outcome)
    return probe.log


@functools.lru_cache(maxsize=None)
def evaluator(app):
    """The evaluator of ``app``, its stages compiled."""
    evaluator = AppEvaluator(APP_FACTORIES[app]())
    evaluator.compiled_programs()
    return evaluator


def run_app(app, architecture, observers):
    """Everything one observed co-sim of ``app`` leaves behind."""
    probes = _observers(observers) + [Recorder()]
    system, _ = evaluator(app).build_system(architecture, items=2,
                                            telemetry=combine(*probes))
    results = system.run()
    cores = [core for core in system.cores if core is not None]
    assert all(core.selected_engine() == "instrumented" for core in cores)
    return {
        "results": [(r.reason, r.cycles, r.instructions) for r in results],
        "cores": [(counters(core), list(core.regs), core.halted)
                  for core in cores],
        "observed": [_observed(probe) for probe in probes],
        "blocks": any(any(core._blocks) for core in cores),
    }


def compare_app(app, architecture, observers):
    evaluator(app)  # compiled on the hooked engine, outside both runs
    hooked, reference = on_both(
        lambda: run_app(app, architecture, observers))
    for key in ("results", "cores", "observed"):
        assert hooked[key] == reference[key], key
    return hooked


@pytest.mark.parametrize("app", sorted(APP_FACTORIES))
def test_app_cosim_with_every_observer_matches_the_oracle(app):
    assert compare_app(app, ARCH_STITCH, "all")["blocks"]


# -- self-loops ------------------------------------------------------------

class OneBoundary(Recorder):
    """A :class:`Recorder` whose one boundary falls at cycle ``at``."""

    def __init__(self, at):
        super().__init__()
        self.at = at

    def attach(self, core):
        super().attach(core)
        return self.at


def run_scripted(recorder):
    """What one run of SCRIPTED's ``cix`` loop under ``recorder`` leaves."""
    patch = _ScriptedPatch()
    core = Core(assemble(SCRIPTED), MemorySystem.stitch(), patch=patch,
                probe=recorder)
    assert core.selected_engine() == "instrumented"
    trip = None
    try:
        stop = core.run().reason
    except HookError as exc:
        stop, trip = f"HookError: {exc}", raising_trip(exc)
    return {
        "log": recorder.log,
        "stop": stop,
        "state": (core_state(core), patch.calls),
        "in_block": recorder.in_block,
        "loops": loop_entries(core),
        "trip": trip,
    }


def compare_scripted(make_recorder):
    hooked, reference = on_both(lambda: run_scripted(make_recorder()))
    for key in ("stop", "state", "log"):
        assert hooked[key] == reference[key], key
    assert hooked["loops"] == {3}
    return hooked


@pytest.mark.parametrize("raise_at,trip", RAISING_TRIPS,
                         ids=["first", "middle", "last"])
def test_cix_hook_raising_on_trip_k_of_a_loop_block(raise_at, trip):
    hooked = compare_scripted(lambda: Recorder(raise_at=raise_at))
    assert hooked["stop"].startswith("HookError")
    assert hooked["in_block"][-1] and hooked["trip"] == trip


def test_boundary_at_every_cycle_offset_of_a_loop_pass():
    total = run_scripted(Recorder())["state"][0]["cycles"]
    for at in range(total):
        hooked = compare_scripted(lambda: OneBoundary(at))
        assert ("boundary" in (entry[0] for entry in hooked["log"])
                and any(hooked["in_block"])), at


@pytest.mark.parametrize("observed", [False, True], ids=["fast", "hooked"])
def test_app4_tiles_run_loop_blocks_translated_once(observed):
    """Every APP4 tile runs a self-loop in its block, and a second
    build translates every block from the ``_generate`` cache."""
    lookups = []
    for _ in range(2):
        before = engine._generate.cache_info()
        system, _ = evaluator("APP4").build_system(
            ARCH_STITCH, items=2, telemetry=Telemetry() if observed else None)
        assert all(result.halted for result in system.run())
        after = engine._generate.cache_info()
        lookups.append((after.hits - before.hits,
                        after.misses - before.misses))
        assert all(loop_entries(core) for core in system.cores
                   if core is not None)
    hits, misses = lookups[1]
    assert hits > 0 and misses == 0


# -- soak: the cross product -----------------------------------------------

@functools.lru_cache(maxsize=None)
def fused_option(name):
    """The fused option whose version of kernel ``name`` maps the most
    configurations."""
    versions = KernelCompiler(make_kernel(name, seed=1)).compile_options(
        FUSED_OPTIONS)
    return max(versions, key=lambda option: len(versions[option].cfg_table))


@pytest.mark.soak
@pytest.mark.parametrize("memory", sorted(MEMORIES))
@pytest.mark.parametrize("interval", [None, 13, 1000])
@pytest.mark.parametrize("recorder", [Recorder, PerInstruction],
                         ids=["blocks", "per-instruction"])
@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
def test_soak_kernel_hooks(name, recorder, interval, memory):
    compare_kernel(name, None, memory, recorder=recorder, interval=interval)
    if memory != "baseline":  # compiled versions need a scratchpad
        compare_kernel(name, fused_option(name), memory, recorder=recorder,
                       interval=interval)


@pytest.mark.soak
@pytest.mark.parametrize("memory", ["stitch", "spm_latency=2",
                                    "cache_hit_latency=2"])
@pytest.mark.parametrize("name,option", COMPILED_CASES,
                         ids=[f"{k}-{o}" for k, o in COMPILED_CASES])
def test_soak_raising_cix_hooks(name, option, memory):
    for interval in (None, 13, 1000):
        for raise_at in _raising_calls(name, option, memory, interval):
            compare_kernel(name, option, memory, interval=interval,
                           raise_at=raise_at)


@pytest.mark.soak
@pytest.mark.parametrize("observers", ["telemetry", "timeseries",
                                       "critpath", "all"])
@pytest.mark.parametrize("architecture", [ARCH_STITCH, ARCH_BASELINE])
@pytest.mark.parametrize("app", sorted(APP_FACTORIES))
def test_soak_app_cosims(app, architecture, observers):
    compare_app(app, architecture, observers)
