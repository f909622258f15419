"""Smoke tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        source = tmp_path / "prog.s"
        source.write_text(
            "movi r1, 6\nmovi r2, 7\nmul r3, r1, r2\nhalt\n"
        )
        main(["run", str(source)])
        out = capsys.readouterr().out
        assert "stopped: halt" in out
        assert "'r3': 42" in out

    def test_plain_run_takes_the_fast_loop(self, tmp_path, monkeypatch):
        from repro.cpu import Core

        engines = []
        dispatch = Core._dispatch

        def spy(core, *args):
            engines.append(core.selected_engine())
            return dispatch(core, *args)

        monkeypatch.setattr(Core, "_dispatch", spy)
        source = tmp_path / "prog.s"
        source.write_text("movi r1, 6\nmovi r2, 7\nmul r3, r1, r2\nhalt\n")
        main(["run", str(source)])
        assert engines == ["fast"]

    @pytest.mark.parametrize("source, message", [
        ("movi r1, 3\ncix 0, (r2), (r1)\nhalt\n",
         "BlockedError: core 0: cix executed but no patch is attached"),
        ("movi r1, 1\nmovi r2, 4096\nsend r1, r2, r1\nhalt\n",
         "BlockedError: send executed but no network is attached"),
        ("movi r1, 1\n",
         "ExecutionError: core 0: pc 1 ran off the end of '{}' "
         "(missing halt?)"),
    ], ids=["cix", "send", "no-halt"])
    @pytest.mark.parametrize("flags", [[], ["--stats"]],
                             ids=["fast", "instrumented"])
    def test_run_fault_is_one_line(self, tmp_path, source, message, flags):
        path = tmp_path / "prog.s"
        path.write_text(source)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(path), *flags])
        assert exc.value.code == message.format(path)

    def test_compile_command_single_option(self, capsys):
        main(["compile", "fir", "--option", "AT-MA"])
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "AT-MA" in out
        assert "x" in out

    def test_compile_unknown_option_exits(self):
        with pytest.raises(SystemExit):
            main(["compile", "fir", "--option", "NOPE"])

    def test_compile_unknown_kernel_is_one_line(self):
        with pytest.raises(SystemExit) as exc:
            main(["compile", "nosuch"])
        message = str(exc.value.code)
        assert message.startswith("unknown compile target 'nosuch': not a kernel")
        assert "'fir'" in message and "\n" not in message

    @pytest.mark.parametrize("command", ["compile", "explain"])
    def test_unknown_option_rejected_before_compiling(self, command,
                                                      monkeypatch):
        from repro.compiler import driver

        def refuse(*args, **kwargs):
            raise AssertionError("KernelCompiler constructed")

        monkeypatch.setattr(driver, "KernelCompiler", refuse)
        with pytest.raises(SystemExit) as exc:
            main([command, "fir", "--option", "NOPE"])
        message = str(exc.value.code)
        assert message.startswith("unknown option 'NOPE': not a patch option")
        assert "'AT-MA'" in message and "\n" not in message

    def test_unknown_app_exits(self):
        with pytest.raises(SystemExit):
            main(["app", "APP9"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestBadInputFiles:
    """A missing, malformed or rejected input file ends in one line and
    exit 1 before any work starts, never in a traceback."""

    def one_line_exit(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        return message

    @pytest.mark.parametrize("argv,what", [
        (["run"], "source file"),
        (["chaos", "fir", "--plan"], "injection plan"),
    ], ids=["run", "chaos"])
    def test_missing_file(self, tmp_path, argv, what):
        path = str(tmp_path / "missing")
        message = self.one_line_exit(argv + [path])
        assert message == f"cannot read {what} {path!r}: No such file or directory"

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_binary_source(self, tmp_path, command):
        path = tmp_path / "prog.s"
        path.write_bytes(b"\xff\xfe movi r1, 1")
        message = self.one_line_exit([command, str(path)])
        assert message.startswith(f"cannot read source file {str(path)!r}")

    @pytest.mark.parametrize("argv,what", [
        (["sweep", "--config"], "platform file"),
        (["verify", "--platform"], "platform file"),
        (["chaos", "fir", "--plan"], "injection plan"),
        (["monitor"], "time series"),
    ], ids=["sweep", "verify", "chaos", "monitor"])
    def test_malformed_json(self, tmp_path, argv, what):
        path = tmp_path / "bad.json"
        path.write_text("{bad")
        message = self.one_line_exit(argv + [str(path)])
        assert message.startswith(f"{what} {str(path)!r} is not valid JSON")

    def test_chaos_rejected_plan_fails_before_the_sweep(self, tmp_path,
                                                        monkeypatch):
        from repro.sweep import runner

        def refuse(*args, **kwargs):
            raise AssertionError("run_sweep started")

        monkeypatch.setattr(runner, "run_sweep", refuse)
        plan = tmp_path / "plan.json"
        plan.write_text('{"name": "p", "faults": [{"site": "reg", "reg": 0}]}')
        message = self.one_line_exit(["chaos", "fir", "--plan", str(plan)])
        assert message.startswith(f"injection plan {str(plan)!r}")
        assert "register r0 outside r1..r15" in message

    @pytest.mark.parametrize("argv", [
        ["sweep", "--config"],
        ["critpath", "fir", "--platform"],
    ], ids=["sweep", "critpath"])
    @pytest.mark.parametrize("payload,issues", [
        ({"bogus": 1}, "V706 @ custom: unknown parameter group(s): bogus"),
        ({"mem": {"dram_latency": 0}},
         "V704 @ custom.mem.dram_latency: mem.dram_latency must be >= 1, "
         "got 0"),
    ], ids=["unknown-group", "invalid"])
    def test_rejected_platform_file(self, tmp_path, monkeypatch, argv,
                                    payload, issues):
        from repro.critpath import runner as critpath_runner
        from repro.sweep import runner as sweep_runner

        def refuse(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(sweep_runner, "run_sweep", refuse)
        monkeypatch.setattr(critpath_runner, "record_target", refuse)
        path = tmp_path / "platform.json"
        path.write_text(json.dumps(payload))
        message = self.one_line_exit(argv + [str(path)])
        assert message == f"platform file {str(path)!r} rejected: {issues}"


class TestBadOutputPaths:
    """An output path that cannot be written ends in one line and exit 1
    before any work starts, and no file is created."""

    @pytest.fixture(autouse=True)
    def refuse_work(self, monkeypatch):
        import repro.sweep
        from repro.analysis import report
        from repro.cpu import Core
        from repro.critpath import runner as critpath_runner
        from repro.sim.baselines import AppEvaluator
        from repro.sweep import runner as sweep_runner

        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(Core, "run", refuse)
        monkeypatch.setattr(AppEvaluator, "__init__", refuse)
        monkeypatch.setattr(critpath_runner, "record_target", refuse)
        monkeypatch.setattr(repro.sweep, "run_sweep", refuse)
        monkeypatch.setattr(sweep_runner, "run_sweep", refuse)
        monkeypatch.setattr(report, "generate", refuse)

    FLAGS = [
        (["run", "prog.s"], "--trace", "chrome trace"),
        (["run", "prog.s"], "--timeseries", "time series"),
        (["app", "APP3"], "--trace", "chrome trace"),
        (["app", "APP3"], "--timeseries", "time series"),
        (["critpath", "fir"], "--out", "critical-path capture"),
        (["sweep", "--smoke"], "--out", "sweep results"),
        (["chaos", "fir", "--campaign", "2", "--seed", "1"], "--json",
         "campaign report"),
        (["report"], None, "report"),
    ]
    IDS = ["run-trace", "run-timeseries", "app-trace", "app-timeseries",
           "critpath-out", "sweep-out", "chaos-json", "report-path"]

    def one_line_exit(self, tmp_path, argv, flag, path):
        source = tmp_path / "prog.s"
        source.write_text("movi r1, 6\nhalt\n")
        argv = [str(source) if arg == "prog.s" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, path] if flag else argv + [path])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        return message

    @pytest.mark.parametrize("argv,flag,what", FLAGS, ids=IDS)
    def test_missing_directory(self, tmp_path, argv, flag, what):
        path = str(tmp_path / "missing" / "out.json")
        message = self.one_line_exit(tmp_path, argv, flag, path)
        assert message == f"cannot write {what} {path!r}: no such directory"
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("argv,flag,what", FLAGS, ids=IDS)
    def test_directory(self, tmp_path, argv, flag, what):
        path = str(tmp_path)
        message = self.one_line_exit(tmp_path, argv, flag, path)
        assert message == f"cannot write {what} {path!r}: is a directory"

    @pytest.mark.parametrize("argv,suffix,what", [
        (["verify", "fir", "--dump-cfg"], ".cfg.dot", "CFG"),
        (["explain", "fir", "--dot"], ".dfg.dot", "DFG"),
        (["explain", "APP1", "--dot"], ".plan.dot", "mesh plan"),
    ], ids=["verify-dump-cfg", "explain-kernel-dot", "explain-app-dot"])
    def test_prefix_in_a_missing_directory(self, tmp_path, argv, suffix,
                                           what):
        prefix = str(tmp_path / "missing" / "p")
        message = self.one_line_exit(tmp_path, argv, None, prefix)
        path = prefix + suffix
        assert message == f"cannot write {what} {path!r}: no such directory"
        assert not (tmp_path / "missing").exists()

    def test_process_exits_1_without_traceback(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        path = str(tmp_path / "missing" / "t.json")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "repro", "app", "APP3", "--trace", path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == (
            f"cannot write chrome trace {path!r}: no such directory\n")


class TestBenchCheck:
    """``bench --check DIR`` compares every payload it produced, or
    fails: it never passes without comparing."""

    @pytest.fixture(autouse=True)
    def small_bench(self, monkeypatch):
        from repro.analysis import bench

        self.calls = []

        def fig11(kernels=None, seed=1, workers=None):
            self.calls.append("fig11")
            return {"fir": {"cycles": 100}}

        def fig12(apps=None, seed=1, workers=None):
            raise AssertionError("fig12 not skipped")

        monkeypatch.setattr(bench, "bench_fig11", fig11)
        monkeypatch.setattr(bench, "bench_fig12", fig12)

    def bench(self, tmp_path, check):
        main(["bench", "--kernels", "fir", "--skip-fig12",
              "--out", str(tmp_path / "out"), "--check", str(check)])

    @pytest.mark.parametrize("make", [
        lambda path: None,
        lambda path: path.write_text("{}"),
    ], ids=["missing", "file"])
    def test_check_needs_a_directory_before_any_bench(self, tmp_path, make):
        check = tmp_path / "baselines"
        make(check)
        with pytest.raises(SystemExit) as exc:
            self.bench(tmp_path, check)
        assert exc.value.code == (
            f"cannot check against baselines {str(check)!r}: "
            "no such directory")
        assert self.calls == []
        assert not (tmp_path / "out").exists()

    def test_missing_baseline_file_fails(self, tmp_path, capsys):
        check = tmp_path / "baselines"
        check.mkdir()
        with pytest.raises(SystemExit) as exc:
            self.bench(tmp_path, check)
        assert exc.value.code == 1
        out = capsys.readouterr().out
        path = check / "BENCH_fig11.json"
        assert f"BENCH_fig11.json: REGRESSION: no baseline at {path}" in out

    def test_matching_baseline_passes(self, tmp_path, capsys):
        check = tmp_path / "baselines"
        check.mkdir()
        (check / "BENCH_fig11.json").write_text('{"fir": {"cycles": 100}}')
        self.bench(tmp_path, check)
        assert "BENCH_fig11.json: within 3% of baseline" in (
            capsys.readouterr().out)


class TestChaosPlanRecovery:
    """With ``--plan`` every point runs the plan's own recovery block,
    so that block is what the header and the report name."""

    NO_RECOVERY = {"recv_timeout": 0, "max_retries": 0, "retry_backoff": 0,
                   "ecc": False, "ecc_penalty": 0, "remap": False}

    def plan_file(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "name": "raw",
            "faults": [{"site": "reg", "reg": 5, "cycle": 40, "bit": 3}],
            "recovery": self.NO_RECOVERY,
        }))
        return plan

    def test_header_and_report_name_the_plan_recovery(self, tmp_path,
                                                      capsys):
        out = tmp_path / "report.json"
        main(["chaos", "fir", "--plan", str(self.plan_file(tmp_path)),
              "--json", str(out)])
        header = capsys.readouterr().out.splitlines()[0]
        assert f"recovery {json.dumps(self.NO_RECOVERY)}," in header
        report = json.loads(out.read_text())
        assert report["campaign"]["recovery"] == self.NO_RECOVERY

    def test_no_recovery_with_a_plan_is_refused_before_the_sweep(
            self, tmp_path, monkeypatch):
        from repro.sweep import runner

        def refuse(*args, **kwargs):
            raise AssertionError("run_sweep started")

        monkeypatch.setattr(runner, "run_sweep", refuse)
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "fir", "--plan", str(self.plan_file(tmp_path)),
                  "--no-recovery"])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert "--no-recovery" in message and "--plan" in message


KERNEL_SOURCE = """\
    movi r1, 0x100
    movi r5, 0
    movi r6, 4
loop:
    lw   r2, 0(r1)
    add  r5, r5, r2
    addi r1, r1, 4
    addi r6, r6, -1
    bne  r6, r0, loop
    halt
"""


class TestTelemetryCli:
    def run_traced(self, tmp_path, capsys, extra=()):
        source = tmp_path / "kernel.s"
        source.write_text(KERNEL_SOURCE)
        trace = tmp_path / "out.json"
        main(["run", str(source), "--trace", str(trace), *extra])
        return trace, capsys.readouterr().out

    def test_run_stats_prints_exact_attribution(self, tmp_path, capsys):
        source = tmp_path / "kernel.s"
        source.write_text(KERNEL_SOURCE)
        main(["run", str(source), "--stats"])
        out = capsys.readouterr().out
        assert "compute" in out and "memory_stall" in out
        assert "attribution" in out
        assert "V500" not in out  # measured run verifies clean

    def test_run_trace_is_valid_chrome_json(self, tmp_path, capsys):
        trace, out = self.run_traced(tmp_path, capsys)
        assert "chrome trace written" in out
        doc = json.loads(trace.read_text())
        events = doc["traceEvents"]
        assert events, "trace must not be empty"
        # Track structure: a metadata event names the tile's thread and
        # every span/instant carries the Chrome-required fields.
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "thread_name"
                   and e["args"]["name"] == "tile 0" for e in meta)
        spans = [e for e in events if e["ph"] == "X"]
        assert spans, "the run slice must appear as a span"
        for span in spans:
            assert span["dur"] >= 0 and span["ts"] >= 0
            assert {"pid", "tid", "name"} <= set(span)
        instants = [e for e in events if e["ph"] == "i"]
        assert instants, "cache misses must appear as instants"

    def test_app_stats_reports_rollup(self, capsys):
        main(["app", "APP4", "--stats", "--items", "1"])
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "attribution" in out
        assert "V500" not in out

    def test_run_gz_trace(self, tmp_path, capsys):
        import gzip
        source = tmp_path / "kernel.s"
        source.write_text(KERNEL_SOURCE)
        trace = tmp_path / "out.json.gz"
        main(["run", str(source), "--trace", str(trace)])
        assert trace.read_bytes()[:2] == b"\x1f\x8b"
        with gzip.open(trace, "rt", encoding="utf-8") as handle:
            assert json.load(handle)["traceEvents"]

    def test_run_timeseries_is_monotonic(self, tmp_path, capsys):
        source = tmp_path / "kernel.s"
        source.write_text(KERNEL_SOURCE)
        out_path = tmp_path / "series.json"
        main(["run", str(source), "--timeseries", str(out_path),
              "--interval", "16"])
        out = capsys.readouterr().out
        assert "time series written" in out
        payload = json.loads(out_path.read_text())
        assert payload["interval"] == 16
        samples = payload["tiles"]["0"]
        indices = [s["index"] for s in samples]
        assert indices == sorted(indices)
        assert all(s["end"] - s["start"] == 16 for s in samples)
        assert all("energy_nj" in s for s in samples)


class TestProfileCli:
    def test_profile_kernel_summary(self, capsys):
        main(["profile", "fft"])
        out = capsys.readouterr().out
        assert "reconciled" in out
        assert "loop@fft_bf" in out
        assert "V900" not in out

    def test_profile_annotate(self, capsys):
        main(["profile", "fir", "--annotate"])
        out = capsys.readouterr().out
        assert "cycles" in out and "share" in out and "retired" in out
        assert "fir" in out and "halt" in out

    def test_profile_json_reconciles(self, capsys):
        main(["profile", "fir", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["reconciled"] is True
        assert doc["target"] == "fir"
        tile = doc["tiles"]["0"]
        assert tile["total_cycles"] == tile["profiled_cycles"]
        assert not doc["diagnostics"]["diagnostics"]

    def test_profile_folded(self, capsys):
        main(["profile", "fir", "--folded"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)

    def test_profile_unknown_target_exits(self):
        with pytest.raises(SystemExit):
            main(["profile", "no-such-thing"])


class TestCritpathCli:
    def test_critpath_kernel_summary(self, capsys):
        main(["critpath", "fir"])
        out = capsys.readouterr().out
        assert "makespan:" in out and "(complete)" in out
        assert "critical path:" in out
        assert "DOES NOT RECONCILE" not in out

    def test_critpath_json_reconciles(self, capsys):
        main(["critpath", "fir", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["target"] == "fir"
        assert doc["partial"] is False
        analysis = doc["analysis"]
        assert analysis["reconciled"] is True
        assert analysis["consistent"] is True
        assert analysis["critical_cycles"] == doc["measured_cycles"]
        assert not doc["diagnostics"]["diagnostics"]

    def test_critpath_gantt(self, capsys):
        main(["critpath", "fir", "--gantt", "--width", "40"])
        out = capsys.readouterr().out
        assert "tile   0 |" in out
        assert "uppercase = critical path" in out

    def test_critpath_whatif_and_validation(self, capsys):
        main(["critpath", "fir", "--what-if", "dram_latency*2",
              "--validate", "dram_latency*2"])
        out = capsys.readouterr().out
        assert "what-if ['dram_latency*2']" in out
        assert "drift +0.0000%" in out

    def test_critpath_out_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "capture.json"
        main(["critpath", "fir", "--out", str(out_path)])
        capsys.readouterr()
        doc = json.loads(out_path.read_text())
        assert doc["analysis"]["reconciled"] is True
        from repro.verify import check_critpath_capture

        assert check_critpath_capture(doc).ok(strict=True)

    def test_critpath_bad_whatif_exits(self):
        with pytest.raises(SystemExit):
            main(["critpath", "fir", "--what-if", "warp_drive*9"])

    def test_critpath_unknown_target_exits(self):
        with pytest.raises(SystemExit):
            main(["critpath", "no-such-thing"])


class TestMonitorCli:
    def test_monitor_kernel(self, capsys):
        main(["monitor", "fir", "--interval", "64"])
        out = capsys.readouterr().out
        assert "stall timeline" in out
        assert "tile 0" in out
        assert "V901" not in out

    def test_monitor_saved_capture(self, tmp_path, capsys):
        source = tmp_path / "kernel.s"
        source.write_text(KERNEL_SOURCE)
        series = tmp_path / "series.json"
        main(["run", str(source), "--timeseries", str(series),
              "--interval", "16"])
        capsys.readouterr()
        main(["monitor", str(series)])
        out = capsys.readouterr().out
        assert "stall timeline" in out

    def test_monitor_reads_gzipped_capture(self, tmp_path, capsys):
        import gzip
        from repro.telemetry import TimeSeries

        ts = TimeSeries(interval=100)
        ts.tile_sample(0, 0, {"cycles": 100, "instructions": 90,
                              "memory_stall": 10})
        path = tmp_path / "series.json.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(ts.to_dict(), handle)
        main(["monitor", str(path)])
        out = capsys.readouterr().out
        assert "stall timeline" in out
        assert "tile 0" in out

    def test_monitor_reads_a_gzipped_run_capture(self, tmp_path, capsys):
        source = tmp_path / "kernel.s"
        source.write_text(KERNEL_SOURCE)
        series = tmp_path / "series.json.gz"
        main(["run", str(source), "--timeseries", str(series),
              "--interval", "16"])
        capsys.readouterr()
        assert series.read_bytes()[:2] == b"\x1f\x8b"
        main(["monitor", str(series)])
        out = capsys.readouterr().out
        assert "stall timeline" in out and "V901" not in out

    @pytest.mark.parametrize("content,problem", [
        (b'{"interval": 16}', "Not a gzipped file"),
        (b"\x1f\x8b\x08\x00", "Compressed file ended"),
    ], ids=["plain-json", "truncated"])
    def test_monitor_unreadable_gz_capture_is_one_line(self, tmp_path,
                                                       content, problem):
        path = tmp_path / "series.json.gz"
        path.write_bytes(content)
        with pytest.raises(SystemExit) as exc:
            main(["monitor", str(path)])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"cannot read time series {str(path)!r}")
        assert problem in message

    @pytest.mark.parametrize("content,problem", [
        ("[1]", "not a JSON object"),
        ('{"interval": 64, "tiles": 5}', "'tiles' is not a JSON object"),
        ('{"interval": 64, "noc": {"links": []}}',
         "'noc.links' is not a JSON object"),
        ('{"interval": 64, "fabric": "x"}', "'fabric' is not a JSON object"),
    ], ids=["array", "tiles-number", "links-array", "fabric-string"])
    def test_monitor_rejects_json_that_is_not_a_capture(self, tmp_path,
                                                        content, problem):
        path = tmp_path / "series.json"
        path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["monitor", str(path)])
        assert exc.value.code == f"time series {str(path)!r}: {problem}"

    @pytest.mark.parametrize("content, problem", [
        ('{"interval": 64, "tiles": {"0": 5}}',
         "'tiles' series '0' is not a list of samples"),
        ('{"interval": 64, "tiles": {"0": [{"start": 0}]}}',
         "'tiles' series '0' sample 0 has no integer 'index'"),
        ('{"interval": 64, "tiles": {"0": [{"index": 0, "start": 0, '
         '"end": 64, "instructions": "9"}]}}',
         "'tiles' series '0' sample 0 has no integer 'instructions'"),
        ('{"interval": 64, "tiles": {"one": []}}',
         "'tiles' names 'one', not a tile number"),
        ('{"interval": 64, "noc": {"links": {"0->1": [{"index": 0, '
         '"start": 0, "end": 64}]}}}',
         "'noc.links' series '0->1' sample 0 has no integer 'flits'"),
        ('{"interval": 64, "fabric": {"channels": {"0->1": [7]}}}',
         "'fabric.channels' series '0->1' sample 0 is not a JSON object"),
        ('{"interval": "64"}', "'interval' is not a number"),
    ], ids=["series-number", "no-index", "stall-string", "tile-name",
            "no-flits", "sample-number", "interval-string"])
    def test_monitor_rejects_a_malformed_series(self, tmp_path, content,
                                                problem):
        path = tmp_path / "series.json"
        path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["monitor", str(path)])
        assert exc.value.code == f"time series {str(path)!r}: {problem}"

    def test_monitor_renders_series_without_samples(self, tmp_path, capsys):
        path = tmp_path / "series.json"
        path.write_text('{"interval": 64, "tiles": {"0": []}, '
                        '"noc": {"links": {"0->1": []}}}')
        main(["monitor", str(path)])
        out = capsys.readouterr().out
        assert "no tile samples" in out
        assert "no NoC link traffic sampled" in out

    def test_monitor_rejects_bad_capture(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"interval": 0, "tiles": {}}')
        with pytest.raises(SystemExit):
            main(["monitor", str(bad)])
        assert "V901" in capsys.readouterr().out
