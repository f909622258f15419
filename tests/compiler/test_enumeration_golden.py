"""Golden candidate lists for the ISE enumerator.

``fixtures/enumeration_golden.json`` holds, for every hot block at the
driver's 0.05 threshold of the 15 Fig. 11 kernels and of each
structurally distinct APP1-4 stage kernel (the ones
``AppEvaluator.cycle_tables`` compiles), under ``allow_replication`` on
and off and ``max_outputs`` 1 and 2:

* the feasible candidates in the order ``enumerate_candidates`` returns
  them, each as ``"members|inputs|outputs"`` — sorted member node ids,
  the external inputs in order (``n``ode, ``r``egister or ``i``mmediate
  refs) and the output node ids;
* the sweep's ``EnumerationLog.to_dict()`` in full.

aes's largest block (and the APP3 aes stage's) hits the sweep's
``limit``, so the fixture also pins which subgraphs a truncated sweep
visits, not just which ones are feasible.

The fixture was recorded with the enumerator that tested convexity by a
breadth-first walk per subgraph and scanned the memory order per
subgraph, by running this module as a script from the repository
root::

    PYTHONPATH=src python tests/compiler/test_enumeration_golden.py

which rewrites the fixture from the checked-out ``src``.  Re-record it
only for a change that is meant to alter the candidate set.
"""

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis.experiments.kernels import FIG11_KERNELS
from repro.compiler.dfg import DFG
from repro.compiler.driver import KernelCompiler
from repro.compiler.ise import enumerate_candidates
from repro.provenance.records import EnumerationLog
from repro.sim.baselines import _structural_key
from repro.workloads import make_kernel
from repro.workloads.apps import all_apps

FIXTURE = Path(__file__).parent / "fixtures" / "enumeration_golden.json"
HOT_THRESHOLD = 0.05
CONFIGS = [
    (replication, max_outputs)
    for replication in (True, False)
    for max_outputs in (1, 2)
]


def targets():
    """(label, kernel): the Fig. 11 suite at seed 1, then the first stage
    of each structurally distinct kernel of APP1-4 at seed 1."""
    found = [(name, make_kernel(name, seed=1)) for name in FIG11_KERNELS]
    seen = set()
    for app in all_apps(seed=1):
        for stage in app.stages:
            key = _structural_key(stage.kernel)
            if key not in seen:
                seen.add(key)
                found.append(
                    (f"{app.name}/{stage.id}:{stage.kernel.name}",
                     stage.kernel)
                )
    return found


def encode(candidate):
    ids = ",".join(str(node_id) for node_id in sorted(candidate.node_ids))
    inputs = ",".join(f"{kind[0]}{value}" for kind, value in candidate.inputs)
    outputs = ",".join(str(node_id) for node_id in candidate.outputs)
    return f"{ids}|{inputs}|{outputs}"


def sweeps(kernel):
    """Every hot block's sweep of ``kernel`` under every config."""
    records = []
    for replication, max_outputs in CONFIGS:
        compiler = KernelCompiler(kernel, allow_replication=replication)
        for hot in compiler.profile.hot_blocks(HOT_THRESHOLD):
            dfg = DFG(
                hot.block,
                spm_only=compiler.profile.spm_only,
                live_out=compiler.block_live_out[hot.block.index],
                replicable=frozenset(compiler.replicable),
            )
            log = EnumerationLog()
            found = enumerate_candidates(
                dfg, max_outputs=max_outputs, observer=log
            )
            records.append({
                "replication": replication,
                "max_outputs": max_outputs,
                "block": hot.block.index,
                "log": log.to_dict(),
                "candidates": [encode(candidate) for candidate in found],
            })
    return records


@lru_cache(maxsize=None)
def golden():
    with open(FIXTURE) as handle:
        return json.load(handle)


@lru_cache(maxsize=None)
def kernels():
    return dict(targets())


def test_fixture_covers_every_target():
    assert list(golden()["targets"]) == list(kernels())
    assert golden()["threshold"] == HOT_THRESHOLD


def test_fixture_includes_a_truncated_sweep():
    truncated = [
        label for label, records in golden()["targets"].items()
        if any(record["log"]["truncated"] for record in records)
    ]
    assert "aes" in truncated


@pytest.mark.parametrize("label", list(kernels()))
def test_sweeps_match_golden(label):
    want = golden()["targets"][label]
    got = sweeps(kernels()[label])
    assert [(r["replication"], r["max_outputs"], r["block"]) for r in got] \
        == [(r["replication"], r["max_outputs"], r["block"]) for r in want]
    for mine, theirs in zip(got, want):
        where = (f"{label} block {theirs['block']} replication="
                 f"{theirs['replication']} max_outputs={theirs['max_outputs']}")
        assert mine["log"] == theirs["log"], where
        assert mine["candidates"] == theirs["candidates"], where


def main():
    fixture = {
        "threshold": HOT_THRESHOLD,
        "targets": {label: sweeps(kernel) for label, kernel in targets()},
    }
    FIXTURE.parent.mkdir(exist_ok=True)
    with open(FIXTURE, "w") as handle:
        json.dump(fixture, handle, indent=1)
        handle.write("\n")
    blocks = sum(len(records) for records in fixture["targets"].values())
    print(f"wrote {FIXTURE} ({len(fixture['targets'])} targets, "
          f"{blocks} block sweeps)", file=sys.stderr)


if __name__ == "__main__":
    main()
