"""Golden digests of every observer's output on the co-simulated apps.

``fixtures/observer_golden.json`` holds, per run, the SHA-256 of:

* the Chrome trace (``Tracer.to_chrome()``);
* the time series (``TimeSeries.to_dict()``);
* the dependency graph (the recorder's ``DependencyGraph.to_dict()``);
* the run's roll-up, ``results.stats.to_dict()`` and ``render()``, when
  the run completes;
* the telemetry stats registry (``Stats.to_flat()``).

Every run observes the 16-tile Stitch co-simulation at 2 items under
``combine(Telemetry(timeseries=TimeSeries()), DependencyRecorder())``:
APP1-4 clean, and two armed chaos runs of APP1 with full recovery on
its first channel.  In one, the channel's first message is dropped, so
the run ends in a watchdog timeout or a deadlock with a partial graph
and a blocked receive.  In the other, a bit of its first word is
flipped, and the checksum side-band's retry repairs it.  Together they
cover the fabric's send, dropped send, receive, retried receive and
blocked receive.

The fixture was recorded by running this module as a script from the
repository root::

    PYTHONPATH=src:. python tests/telemetry/test_observer_golden.py

which rewrites the fixture from the checked-out ``src``.  Re-record it
only for a change that is meant to alter what an observer records.
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.chaos import Fault, InjectionPlan, Injector, RecoveryParams
from repro.chaos.recovery import app_channels
from repro.critpath import DependencyRecorder
from repro.critpath.recorder import KIND_BLOCKED
from repro.critpath.runner import record_system
from repro.probe import combine
from repro.sim.baselines import ARCH_STITCH, AppEvaluator
from repro.telemetry import Telemetry, TimeSeries
from repro.workloads.apps import APP_FACTORIES

FIXTURE = Path(__file__).parent / "fixtures" / "observer_golden.json"

#: Chaos runs of APP1: each fault on the app's first channel.
FAULTS = {
    "APP1/dropped-link": lambda src, dst: Fault(
        "link", src=src, dst=dst, index=0),
    "APP1/corrupted-word": lambda src, dst: Fault(
        "channel", src=src, dst=dst, index=0, word=0, bit=2),
}
RUNS = ("APP1", "APP2", "APP3", "APP4") + tuple(FAULTS)


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


@lru_cache(maxsize=None)
def observe(label):
    """``(digests, recorded run, injector)`` of one observed run."""
    app = label.split("/")[0]
    evaluator = AppEvaluator(APP_FACTORIES[app](seed=1))
    telemetry = Telemetry(timeseries=TimeSeries())
    recorder = DependencyRecorder()
    injector = None
    if label in FAULTS:
        src, dst = app_channels(evaluator, ARCH_STITCH)[0]
        injector = Injector(InjectionPlan(
            name=label, faults=(FAULTS[label](src, dst),),
            recovery=RecoveryParams.full(),
        ))
    system, _ = evaluator.build_system(
        ARCH_STITCH, items=2,
        telemetry=combine(telemetry, recorder, injector),
    )
    run = record_system(label, system, recorder)
    digests = {
        "chrome": digest(telemetry.tracer.to_chrome()),
        "timeseries": digest(telemetry.timeseries.to_dict()),
        "graph": digest(run.graph.to_dict()),
        "stats": digest(telemetry.stats.to_flat()),
    }
    if run.results is not None:
        digests["rollup"] = digest(run.results.stats.to_dict())
        digests["rollup_text"] = digest(run.results.stats.render())
    return digests, run, injector


@lru_cache(maxsize=None)
def golden():
    with open(FIXTURE) as handle:
        return json.load(handle)


def test_fixture_covers_every_run():
    assert list(golden()) == list(RUNS)


@pytest.mark.parametrize("label", RUNS)
def test_observer_outputs_match_golden(label):
    digests, _, _ = observe(label)
    assert digests == golden()[label]


def test_dropped_link_leaves_a_partial_graph_with_a_blocked_receive():
    _, run, injector = observe("APP1/dropped-link")
    assert injector.events[0]["dropped"]
    assert run.partial and run.graph.partial()
    assert any(record.kind == KIND_BLOCKED for record in run.graph.records)


def test_corrupted_word_is_repaired_by_a_retry():
    _, run, injector = observe("APP1/corrupted-word")
    assert not run.partial
    assert [event["kind"] for event in injector.events] \
        == ["fault", "detect", "recover"]


def main():
    FIXTURE.parent.mkdir(exist_ok=True)
    fixture = {label: observe(label)[0] for label in RUNS}
    with open(FIXTURE, "w") as handle:
        json.dump(fixture, handle, indent=1)
        handle.write("\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
