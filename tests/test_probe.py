"""The probe interface: one engine rule, one combinator, one hook surface."""

from collections import Counter

import pytest

from repro.chaos import Fault, InjectionPlan, Injector
from repro.compiler.profiler import BlockProfiler
from repro.core.executor import PatchExecutor
from repro.cpu import Core
from repro.critpath import DependencyRecorder
from repro.isa import assemble
from repro.mem import MemorySystem
from repro.probe import HOOKS, NULL_PROBE, Probe, combine, overrides
from repro.profile import PCProfiler
from repro.sim import StitchSystem
from repro.sim.baselines import ARCH_STITCH, AppEvaluator
from repro.telemetry import Stats, Telemetry, TimeSeries, Tracer
from repro.workloads import make_kernel
from repro.workloads.apps import app4_transport
from tests.cpu.test_engine_differential import compile_case

PROGRAM = assemble("movi r1, 3\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt")

#: Every observer configuration the code builds, and the loop ``auto``
#: resolves it to.
CONFIGURATIONS = [
    ("no probe", lambda: None, "fast"),
    ("stats only (sweep --telemetry)", Stats, "fast"),
    ("unarmed injector",
     lambda: Injector(InjectionPlan(name="clean")), "fast"),
    ("telemetry", Telemetry, "instrumented"),
    ("recorder", DependencyRecorder, "instrumented"),
    ("time series", TimeSeries, "instrumented"),
    ("pc profile", PCProfiler, "instrumented"),
    ("block profile", lambda: BlockProfiler(PROGRAM), "instrumented"),
    ("armed injector",
     lambda: Injector(InjectionPlan(name="armed",
                                    faults=(Fault("reg", cycle=10),))),
     "instrumented"),
]


@pytest.mark.parametrize("factory,auto", [c[1:] for c in CONFIGURATIONS],
                         ids=[c[0] for c in CONFIGURATIONS])
def test_engine_rule(factory, auto):
    def build(engine):
        return Core(PROGRAM, MemorySystem.stitch(), engine=engine,
                    probe=factory())

    assert build("auto").selected_engine() == auto
    assert build("instrumented").selected_engine() == "instrumented"
    for engine in ("fast", "reference"):
        if auto == "fast":
            assert build(engine).selected_engine() == engine
        else:
            # Neither loop fires hooks: refused when the core is built.
            with pytest.raises(ValueError, match=engine):
                build(engine)


def test_a_per_instruction_hook_turns_translation_off():
    # PROGRAM's loop is a 2-instruction block; this one's is 3.
    program = assemble("movi r1, 9\nloop: addi r2, r2, 1\n"
                       "addi r1, r1, -1\nbne r1, r0, loop\nhalt")
    translated = {}
    for name, probe in (("tracer", Tracer()), ("retire", PCProfiler())):
        core = Core(program, MemorySystem.stitch(), probe=probe)
        core.run()
        assert core.selected_engine() == "instrumented"
        translated[name] = any(core._blocks)
    assert translated == {"tracer": True, "retire": False}


def test_an_observed_core_translates_and_traces_every_cix():
    compiled = compile_case("fir", "AT-MA")
    kernel = make_kernel("fir", seed=1)
    memory = MemorySystem.stitch()
    patch = PatchExecutor(compiled.cfg_table, memory)
    telemetry = Telemetry()
    core = Core(compiled.program, memory, patch=patch, probe=telemetry)
    kernel.setup(core)
    core.run()
    assert any(core._blocks)
    traced = [e for e in telemetry.tracer.events if e.category == "patch"]
    assert len(traced) == patch.executions > 0


def test_combining_null_members_gives_the_null_probe():
    assert combine() is NULL_PROBE
    assert combine(None, NULL_PROBE, combine(NULL_PROBE)) is NULL_PROBE
    tracer = Tracer()
    assert combine(None, tracer, NULL_PROBE) is tracer


def test_a_probe_that_observes_nothing_is_skipped_by_the_fabric():
    quiet = Injector(InjectionPlan(name="clean"))
    assert not quiet.enabled
    assert not combine(quiet, quiet).enabled
    joined = combine(quiet, Stats())
    assert joined.enabled and not overrides(joined, "outbound")
    silent = Counting()
    silent.enabled = silent.observes_core = False
    system = StitchSystem(telemetry=silent)
    system.load(0, assemble("movi r1, 1\nmovi r2, 0x100\nmovi r3, 2\n"
                            "send r1, r2, r3\nhalt"))
    system.load(1, assemble("movi r1, 0\nmovi r2, 0x100\nmovi r3, 2\n"
                            "recv r1, r2, r3\nhalt"))
    assert all(r.halted for r in system.run())
    assert system.fabric.messages == 1
    fabric_hooks = ("link_delay", "link_reserved", "outbound", "inbound",
                    "fabric_send", "fabric_recv", "channel_occupancy")
    assert not any(silent.calls[hook] for hook in fabric_hooks)


class Counting(Probe):
    """Counts the calls of every hook; otherwise the no-op probe."""

    observes_core = True

    def __init__(self):
        self.calls = Counter()


def _counted(name):
    base = getattr(Probe, name)

    def hook(self, *args, **kwargs):
        self.calls[name] += 1
        return base(self, *args, **kwargs)
    return hook


for _name in HOOKS:
    setattr(Counting, _name, _counted(_name))


@pytest.fixture(scope="module")
def app4_observed():
    tracer = Tracer()
    counting = Counting()
    system, _ = AppEvaluator(app4_transport()).build_system(
        ARCH_STITCH, items=2, telemetry=combine(tracer, counting)
    )
    results = system.run()
    return tracer, counting, system, results


#: Which trace events each hook the tracer overrides leaves behind.
TRACED = {
    "tile_span": lambda e: e.category == "core",
    "fabric_send": lambda e: e.name.startswith("send->"),
    "fabric_recv": lambda e: e.name.startswith("recv<-"),
    "comm_blocked": lambda e: e.name.startswith("blocked<-"),
    "comm_unblocked": lambda e: e.name == "unblocked",
    "cix": lambda e: e.category == "patch",
    "cache_miss": lambda e: e.name.endswith(" miss"),
    "link_reserved": lambda e: e.category == "noc",
    "deadlock": lambda e: e.name.startswith("DEADLOCK"),
    "recv_timeout": lambda e: e.name.startswith("RECV TIMEOUT"),
    "chaos_event": lambda e: e.category == "chaos",
}


@pytest.mark.parametrize("hook", sorted(TRACED))
def test_every_hook_reaches_every_member(app4_observed, hook):
    tracer, counting, _system, _results = app4_observed
    events = sum(1 for event in tracer.events if TRACED[hook](event))
    assert counting.calls[hook] == events
    assert hook in ("deadlock", "recv_timeout", "chaos_event") or events


def test_untraced_hooks_fire_where_the_run_says(app4_observed):
    _tracer, counting, system, results = app4_observed
    cores = [core for core in system.cores if core is not None]
    assert counting.calls["attach"] == len(cores)
    assert counting.calls["retire"] == sum(r.instructions for r in results)
    assert counting.calls["fabric_send"] == system.fabric.messages
    assert counting.calls["run_end"] == 1
