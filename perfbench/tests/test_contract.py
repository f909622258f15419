import json
from collections import Counter
from pathlib import Path

from perfbench.run import layer_metrics
from perfbench.spans import LAYERS

ROOT = Path(__file__).resolve().parents[2]


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def test_benchmark_json_has_exactly_the_contract_keys():
    contract = _load(ROOT / "BENCHMARK.json")
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    assert len(names) == len(set(names))
    assert max(m["bound"] for m in contract["end_to_end"]) == next(
        m["bound"] for m in contract["end_to_end"] if m["name"] == "setup_s"
    )


def test_per_layer_names_match_the_ledger_and_the_code():
    contract = _load(ROOT / "BENCHMARK.json")
    ledger = _load(ROOT / "perfbench" / "ledger.json")
    names = {m["name"] for m in contract["per_layer"]}
    assert names == set(ledger["per_layer"])
    computed, *_ = layer_metrics([], Counter(), 1.0)
    computed = set(computed) | {"trace_overhead_pct"} | {
        f"setup.{layer}_s" for layer in LAYERS + ("other",)
    }
    assert names == computed
