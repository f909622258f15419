"""Golden ISE selections for every compiled version.

``fixtures/selection_golden.json`` holds, for each target of the
enumeration golden (the 15 Fig. 11 kernels and the 17 structurally
distinct APP1-4 stage kernels) under each of the 13 patch options
(``ALL_OPTIONS`` plus LOCUS), 416 versions in all:

* every selected mapping, in cfg-table order, as one line: its target,
  its unit configs (and a fused pair's ``b_ext``/``outs``), its operand
  refs, its output registers and its remote node ids;
* per hot block, the SHA-256 of the selector's decision sequence, each
  decision the candidate's member ids, its status, reason and target;
* the SHA-256 of the rewritten program text plus the cfg table, and the
  measured cycles.

The Fig. 11 kernels compile with const-region replication, as
``repro bench`` and perfbench compile them; the stage kernels without,
as ``AppEvaluator.cycle_tables`` does.

The fixture was recorded with the selector that trial-rewrote the
block for every candidate and searched every (candidate, target) pair
afresh, by running this module as a script from the repository root::

    PYTHONPATH=src:. python tests/compiler/test_selection_golden.py

which rewrites the fixture from the checked-out ``src``.  Re-record it
only for a change that is meant to alter what the compiler selects.
"""

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis.experiments.kernels import FIG11_KERNELS
from repro.compiler.driver import ALL_OPTIONS, LOCUS_OPTION, KernelCompiler
from repro.core.fusion import FusedConfig
from repro.provenance import CompileReport
from tests.compiler.test_enumeration_golden import kernels, targets

FIXTURE = Path(__file__).parent / "fixtures" / "selection_golden.json"
OPTIONS = ALL_OPTIONS + (LOCUS_OPTION,)


def digest(value):
    return hashlib.sha256(
        json.dumps(value, separators=(",", ":")).encode()
    ).hexdigest()


def describe_config(config):
    if isinstance(config, FusedConfig):
        return (f"{config.cfg_a!r} + {config.cfg_b!r} "
                f"b_ext={list(config.b_ext)} outs={list(config.outs)}")
    return repr(config)


def describe_ref(ref):
    if ref is None:
        return "-"
    kind, value = ref
    return f"{'r' if kind == 'reg' else '#'}{value}"


def describe_mapping(mapping):
    config = mapping.config
    if isinstance(config, FusedConfig):
        target = f"{config.cfg_a.ptype.name}+{config.cfg_b.ptype.name}"
    else:
        target = config.ptype.name
    operands = ",".join(describe_ref(ref) for ref in mapping.ext_binding)
    outs = ",".join(str(reg) for reg in mapping.out_binding)
    remote = ",".join(str(node_id) for node_id in mapping.remote_node_ids)
    return (f"{target}: {describe_config(config)} | ins {operands} | "
            f"outs {outs} | remote {remote}")


def versions(label, kernel):
    """``{option name: record}`` of ``kernel`` compiled at every option."""
    report = CompileReport(label)
    compiler = KernelCompiler(kernel, allow_replication=label in FIG11_KERNELS,
                              report=report)
    records = {}
    for option in OPTIONS:
        compiled = compiler.compile(option)
        blocks = [
            {
                "block": block.block_index,
                "decisions": len(block.candidates),
                "sha256": digest([
                    [list(c.node_ids), c.status, c.reason, c.target]
                    for c in block.candidates
                ]),
            }
            for block in report.versions[option.name].blocks
        ]
        records[option.name] = {
            "cycles": compiled.cycles,
            "mappings": [describe_mapping(m) for m in compiled.mappings],
            "blocks": blocks,
            "program_sha256": digest([
                compiled.program.text(),
                [describe_config(config) for config in compiled.cfg_table],
            ]),
        }
    return records


@lru_cache(maxsize=None)
def golden():
    with open(FIXTURE) as handle:
        return json.load(handle)


def test_fixture_covers_every_version():
    assert list(golden()["targets"]) == list(kernels())
    for records in golden()["targets"].values():
        assert list(records) == [option.name for option in OPTIONS]


@pytest.mark.parametrize("label", list(kernels()))
def test_selections_match_golden(label):
    want = golden()["targets"][label]
    got = versions(label, kernels()[label])
    for option in OPTIONS:
        where = f"{label} @ {option.name}"
        mine, theirs = got[option.name], want[option.name]
        assert mine["mappings"] == theirs["mappings"], where
        assert mine["blocks"] == theirs["blocks"], where
        assert mine["program_sha256"] == theirs["program_sha256"], where
        assert mine["cycles"] == theirs["cycles"], where


def main():
    fixture = {
        "options": [option.name for option in OPTIONS],
        "targets": {
            label: versions(label, kernel) for label, kernel in targets()
        },
    }
    FIXTURE.parent.mkdir(exist_ok=True)
    with open(FIXTURE, "w") as handle:
        json.dump(fixture, handle, indent=1)
        handle.write("\n")
    count = sum(len(records) for records in fixture["targets"].values())
    print(f"wrote {FIXTURE} ({len(fixture['targets'])} targets, "
          f"{count} versions)", file=sys.stderr)


if __name__ == "__main__":
    main()
