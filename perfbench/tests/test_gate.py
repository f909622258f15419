import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.workloads import (
    CompileWorkload,
    Gate,
    RECORDED_SEED,
    load_expected,
)

ROOT = Path(__file__).resolve().parents[2]


def _one_pass(workload):
    gate = Gate()
    workload.setup(gate)
    run.measure(workload, gate, 0, "pass")
    workload.finish(gate)
    return gate


def test_gate_counts_a_raising_job():
    gate = Gate()
    assert gate.run("pass1/ok", lambda: 7) == 7
    assert gate.run("pass1/bad", lambda: {}["missing"]) is None
    assert (gate.attempted, gate.failed, gate.failed_ratio) == (2, 1, 0.5)
    assert "KeyError" in gate.failures["pass1/bad"]


def test_recorded_seed_passes_the_gate():
    expected = load_expected()["compile"]
    gate = _one_pass(CompileWorkload(RECORDED_SEED, expected, ("fir",)))
    assert (gate.attempted, gate.failed) == (1, 0)


def test_one_tampered_expected_value_fails_the_job():
    expected = copy.deepcopy(load_expected()["compile"])
    expected["fir"]["cycles"]["versions"]["AT-MA"] += 1
    workload = CompileWorkload(RECORDED_SEED, expected, ("fir",))
    gate = _one_pass(workload)
    assert gate.failed_ratio > 0
    assert "AT-MA" in gate.failures["pass1/fir"]


def test_one_tampered_model_count_fails_the_job():
    expected = copy.deepcopy(load_expected()["compile"])
    expected["fir"]["model"]["core.patch_calls"] -= 1
    gate = _one_pass(CompileWorkload(RECORDED_SEED, expected, ("fir",)))
    assert gate.failed == 1
    assert "core.patch_calls" in gate.failures["pass1/fir"]


def test_a_job_that_raises_fails_and_the_rest_still_run(monkeypatch):
    from repro.compiler import driver

    original = driver.KernelCompiler.compile

    def compile_or_fail(self, option):
        if self.kernel.name == "fir" and option.name == "AT-AS":
            raise driver.MiscompileError("fir @ AT-AS: injected")
        return original(self, option)

    monkeypatch.setattr(driver.KernelCompiler, "compile", compile_or_fail)
    expected = load_expected()["compile"]
    gate = _one_pass(CompileWorkload(RECORDED_SEED, expected,
                                     ("fir", "update")))
    assert (gate.attempted, gate.failed) == (2, 1)
    assert "MiscompileError" in gate.failures["pass1/fir"]


def _main_on_fir(monkeypatch, capsys, tamper):
    """``run.main`` on the compile workload cut to ``fir``, with ``tamper``
    applied to a copy of the recorded values: (exit code, result line)."""

    def fir_only(name, seed, expected):
        expected = copy.deepcopy(expected)
        tamper(expected)
        return CompileWorkload(seed, expected, ("fir",))

    monkeypatch.setattr(workloads, "make_workload", fir_only)
    monkeypatch.setattr(CompileWorkload, "extra_setups", 0)
    monkeypatch.setattr(CompileWorkload, "min_passes", 1)
    code = run.main(["--workload", "compile", "--seconds", "0"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_main_exits_zero_on_the_recorded_values(monkeypatch, capsys):
    code, result = _main_on_fir(monkeypatch, capsys, lambda expected: None)
    assert code == 0
    assert (result["correct"], result["attempted"], result["failed"]) == (
        True, 1, 0)


def test_main_exits_nonzero_when_an_expected_value_is_tampered(
        monkeypatch, capsys):
    def tamper(expected):
        expected["fir"]["cycles"]["baseline"] += 1

    code, result = _main_on_fir(monkeypatch, capsys, tamper)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert set(result["metrics"]) >= {"pass_s", "setup_s"}


def test_a_cold_set_up_runs_in_a_fresh_interpreter():
    args = run.parse_args(["--workload", "compile", "--seed", "3"])
    assert 0 < run.cold_setup_s(args) < 60


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py"] + list(args), cwd=cwd,
        capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_without_the_sources_it_exits_nonzero_and_prints_no_result(
        tmp_path, trace):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "compile", "--seed", "3",
                "--seconds", "1", "--trace", trace)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
