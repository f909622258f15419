"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``kernels`` — list the workload suite with baseline cycle counts,
* ``compile <kernel> [--option NAME]`` — compile + measure one kernel
  across patch options (default: all 12 + LOCUS),
* ``run <file.s> [--stats] [--trace out.json] [--timeseries out.json]``
  — assemble and run a program on one simulated tile; ``--stats``
  prints the cycle attribution (and verifies it sums exactly),
  ``--trace`` writes a Chrome trace-event file (``chrome://tracing`` /
  Perfetto; a ``.gz`` suffix gzips it), ``--timeseries`` samples
  interval counters (``--interval`` cycles each) into a JSON/CSV file,
* ``app <APP1..APP4> [--stats] [--trace out.json] [--timeseries ...]``
  — evaluate one application across the four architectures (Figure 12
  row); with ``--stats``/``--trace``/``--timeseries`` the Stitch plan
  is additionally co-simulated on all 16 tiles with telemetry on,
* ``profile <kernel|APP1..APP4> [--json|--folded|--annotate]`` — the
  cycle-attribution profiler: retired-cycle histograms per PC folded
  onto basic blocks and natural loops; totals reconcile exactly with
  the simulator's attribution (rules V900/V901 gate the output),
* ``monitor <kernel|APP1..APP4|capture.json>`` — ASCII link-utilization
  heatmap + per-tile stall timeline from a time-series capture (live
  run or a saved ``--timeseries`` file),
* ``verify <kernel|APP1..APP4|file.s>`` — static verification
  (stitch-lint) of a kernel, application or raw assembly file; with
  ``--strict`` the exit code reflects the findings,
* ``explain <kernel|APP1..APP4>`` — compile (or stitch) with decision
  provenance on and narrate every choice the tool chain made: each ISE
  candidate's fate, each version's measured cycles and bit-exact
  verdict, each placement alternative Algorithm 1 weighed; ``--json``
  for the machine form, ``--dot PREFIX`` for Graphviz pictures,
* ``bench [--out DIR] [--check DIR] [--workers N]`` — re-measure the
  Fig. 11/12 result sets into ``BENCH_fig11.json``/``BENCH_fig12.json``
  and optionally diff them against a committed baseline (CI's
  regression gate); ``--workers`` fans kernels/apps over processes,
* ``sweep [--study NAME] [--smoke] [--workers N] [--out FILE]`` — run a
  design-space study (mesh size / DRAM latency / D$ capacity, or a
  custom platform JSON via ``--config``) over a process pool;
  ``--check-serial`` re-runs serially and asserts identical JSON,
* ``chaos [targets ...] [--seed N] [--campaign N] [--plan FILE]`` —
  seeded fault-injection campaigns over kernels and APP1-4: every
  perturbed run is classified against its clean golden run as masked /
  detected_recovered / detected_failed / sdc, the report is gated by
  rules V1100-V1103, ``--workers`` fans points over processes
  (byte-identical to serial), ``--json FILE`` saves the report, and
  ``--strict`` additionally fails on any silent data corruption,
* ``report [path]`` — regenerate the full EXPERIMENTS.md (slow).
"""

import argparse
import os
import sys


def cmd_kernels(_args):
    from repro.compiler.profiler import profile_kernel
    from repro.workloads import KERNEL_FACTORIES, make_kernel

    print(f"{'kernel':12s} {'instructions':>12s} {'cycles':>10s}  description")
    for name in sorted(KERNEL_FACTORIES):
        kernel = make_kernel(name)
        profile = profile_kernel(kernel.program, kernel.setup)
        doc = (type(kernel).__module__.split(".")[-1])
        print(f"{name:12s} {profile.instructions:12d} {profile.cycles:10d}  {doc}")


def _patch_options(name):
    """The patch option called ``name`` (all 13 when ``None``); exits 1
    with one line for an unknown name, before any kernel is compiled."""
    from repro.compiler.driver import ALL_OPTIONS, LOCUS_OPTION

    options = ALL_OPTIONS + (LOCUS_OPTION,)
    if not name:
        return options
    chosen = tuple(o for o in options if o.name == name)
    if not chosen:
        sys.exit(
            f"unknown option {name!r}: not a patch option "
            f"({[o.name for o in options]})"
        )
    return chosen


def cmd_compile(args):
    from repro.compiler.driver import KernelCompiler
    from repro.workloads import KERNEL_FACTORIES, make_kernel

    if args.kernel not in KERNEL_FACTORIES:
        sys.exit(
            f"unknown compile target {args.kernel!r}: not a kernel "
            f"({sorted(KERNEL_FACTORIES)})"
        )
    options = _patch_options(args.option)
    kernel = make_kernel(args.kernel, seed=args.seed)
    compiler = KernelCompiler(kernel, allow_replication=not args.no_replication)
    print(f"{args.kernel}: baseline {compiler.baseline_cycles} cycles")
    for option in options:
        compiled = compiler.compile(option)
        extras = []
        if compiled.uses_fusion:
            extras.append("fused")
        if compiled.replicated_regions:
            extras.append(
                "replicates " + ",".join(r.name for r in compiled.replicated_regions)
            )
        tag = f" ({'; '.join(extras)})" if extras else ""
        print(
            f"  {option.name:14s} {compiled.cycles:8d} cycles  "
            f"{compiled.speedup:5.2f}x  {len(compiled.mappings)} cix{tag}"
        )


def _telemetry(args):
    """The bundle ``--stats``/``--trace``/``--timeseries`` ask for, if any."""
    from repro.telemetry import Telemetry, TimeSeries

    if not (args.stats or args.trace or args.timeseries):
        return None
    return Telemetry(timeseries=TimeSeries(interval=args.interval)
                     if args.timeseries else None)


def _write_captures(telemetry, args):
    """Write the ``--trace`` and ``--timeseries`` captures."""
    if args.trace:
        telemetry.tracer.write_chrome(args.trace)
        print(
            f"chrome trace written to {args.trace} "
            f"({len(telemetry.tracer)} events)"
        )
    if args.timeseries:
        timeseries = telemetry.timeseries
        timeseries.write(args.timeseries)
        print(
            f"time series written to {args.timeseries} "
            f"({len(timeseries)} samples, interval {timeseries.interval})"
        )


def cmd_run(args):
    from repro.cpu import BlockedError, Core, ExecutionError
    from repro.isa import AssemblerError, assemble
    from repro.mem import MemorySystem
    from repro.telemetry import ATTRIBUTION_BUCKETS

    _check_output(args.trace, "chrome trace")
    _check_output(args.timeseries, "time series")
    try:
        program = assemble(_read_text(args.file, "source file"),
                           name=args.file)
    except AssemblerError as exc:
        sys.exit(str(exc))
    telemetry = _telemetry(args)
    core = Core(program, MemorySystem.stitch(), probe=telemetry)
    try:
        outcome = core.run(max_instructions=args.max_instructions)
    except (BlockedError, ExecutionError) as exc:  # no patch or network
        sys.exit(f"{type(exc).__name__}: {exc}")
    if telemetry is not None:
        telemetry.run_end([core], {core: outcome.reason}, "complete")
    print(f"stopped: {outcome.reason}")
    print(f"cycles: {core.cycles}  instructions: {core.instret}")
    live = {f"r{i}": v for i, v in enumerate(core.regs) if v}
    print(f"registers: {live}")
    if args.stats:
        from repro.verify import check_core

        attribution = core.attribution()
        print("cycle attribution (every cycle in exactly one bucket):")
        for bucket in ATTRIBUTION_BUCKETS:
            share = attribution[bucket] / core.cycles if core.cycles else 0.0
            print(f"  {bucket:13s} {attribution[bucket]:10d}  ({share:.1%})")
        for level, counts in core.memory.stats().items():
            print(
                f"{level}: {counts['hits']} hits / {counts['misses']} misses "
                f"({counts['hit_rate']:.1%} hit rate)"
            )
        print(check_core(core).render())
    if telemetry is not None:
        _write_captures(telemetry, args)


def cmd_app(args):
    from repro.sim.baselines import ARCHITECTURES, ARCH_STITCH, AppEvaluator
    from repro.workloads.apps import APP_FACTORIES

    factory = APP_FACTORIES.get(args.app.upper())
    if factory is None:
        sys.exit(f"unknown app {args.app!r}; choose from {sorted(APP_FACTORIES)}")
    _check_output(args.trace, "chrome trace")
    _check_output(args.timeseries, "time series")
    evaluator = AppEvaluator(factory(seed=args.seed))
    print(f"evaluating {evaluator.app.name} (compiles every kernel option)...")
    throughputs = evaluator.normalized_throughputs()
    for arch in ARCHITECTURES:
        print(f"  {arch:18s} {throughputs[arch]:.2f}x")
    plan = evaluator.plan(ARCH_STITCH)
    print(plan.describe())
    telemetry = _telemetry(args)
    if telemetry is not None:
        from repro.verify import check_run

        system, _ = evaluator.build_system(
            ARCH_STITCH, items=args.items, telemetry=telemetry
        )
        results = system.run()  # flushes sampling + derives energy
        print(f"co-simulated {evaluator.app.name} on {ARCH_STITCH}: "
              f"makespan {system.makespan(results)} cycles")
        if args.stats:
            print(results.stats.render())
            print(check_run(results).render())
        _write_captures(telemetry, args)


def cmd_profile(args):
    import json

    from repro.profile import (
        profile_app_cycles,
        profile_kernel_cycles,
        render_annotated,
        render_folded,
        render_summary,
    )
    from repro.verify import check_profile, check_profile_run
    from repro.workloads import KERNEL_FACTORIES
    from repro.workloads.apps import APP_FACTORIES

    target = args.target
    if target in KERNEL_FACTORIES:
        profile, core = profile_kernel_cycles(target, seed=args.seed)
        profiles = {core.core_id: profile}
        report = check_profile(profile, total_cycles=core.cycles)
    elif target.upper() in APP_FACTORIES:
        profiles, results = profile_app_cycles(
            target, seed=args.seed, items=args.items
        )
        report = check_profile_run(profiles, results)
    else:
        sys.exit(
            f"unknown profile target {target!r}: not a kernel "
            f"({sorted(KERNEL_FACTORIES)}) or app ({sorted(APP_FACTORIES)})"
        )

    ordered = [profiles[tile] for tile in sorted(profiles)]
    if args.json:
        payload = {
            "target": target,
            "reconciled": all(p.reconciles() for p in ordered),
            "tiles": {str(p.tile): p.to_dict() for p in ordered},
            "diagnostics": report.to_dict(),
        }
        print(json.dumps(payload, indent=2))
    elif args.folded:
        for profile in ordered:
            print(render_folded(profile))
    elif args.annotate:
        for profile in ordered:
            print(render_annotated(profile))
    else:
        for profile in ordered:
            print(render_summary(profile))
        print(report.render())
    if report.errors():
        sys.exit(1)


def cmd_monitor(args):
    from repro.telemetry.monitor import render_monitor
    from repro.verify import check_timeseries

    target = args.target
    if os.path.isfile(target):
        payload = _read_json(target, "time series")
        problem = _capture_problem(payload)
        if problem is not None:
            sys.exit(f"time series {target!r}: {problem}")
    else:
        payload = _capture_timeseries(target, args)
    report = check_timeseries(payload)
    print(render_monitor(payload, width=args.width))
    if not report.ok():
        print(report.render())
        sys.exit(1)


def cmd_critpath(args):
    import json

    from repro.critpath import (
        WhatIfError,
        WhatIfInfeasible,
        render_gantt,
        render_summary,
    )
    from repro.critpath.runner import record_target, validate_whatif
    from repro.verify import check_critpath

    _check_output(args.out, "critical-path capture")
    platform = _valid_platform(args.platform) if args.platform else None
    try:
        run = record_target(args.target, seed=args.seed, items=args.items,
                            platform=platform)
    except KeyError as exc:
        sys.exit(str(exc.args[0]) if exc.args else str(exc))
    report = check_critpath(run.graph, run.analysis, measured=run.measured)

    projections = []
    validation = None
    try:
        if args.what_if:
            projections.append(run.project(args.what_if))
        if args.validate:
            validation = validate_whatif(run, args.validate,
                                         seed=args.seed, items=args.items)
    except (WhatIfError, WhatIfInfeasible) as exc:
        sys.exit(f"what-if failed: {exc}")

    if args.out:
        payload = run.to_dict()
        payload["diagnostics"] = report.to_dict()
        if projections:
            payload["what_if"] = projections
        if validation is not None:
            payload["validation"] = validation
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.out}", file=sys.stderr)

    if args.json:
        payload = run.to_dict()
        payload["diagnostics"] = report.to_dict()
        if projections:
            payload["what_if"] = projections
        if validation is not None:
            payload["validation"] = validation
        print(json.dumps(payload, indent=2))
    else:
        if args.gantt:
            print(render_gantt(run.graph, run.analysis, width=args.width))
            print()
        print(render_summary(run.graph, run.analysis))
        if run.partial:
            print(f"note: partial run ({run.error})")
        for projection in projections:
            print(f"what-if {projection['expressions']}: "
                  f"{projection['baseline_cycles']} -> "
                  f"{projection['projected_cycles']} cycles "
                  f"(speedup {projection['speedup']})")
        if validation is not None:
            print(f"validated {validation['expressions']}: projected "
                  f"{validation['projected_cycles']} vs actual re-run "
                  f"{validation['actual_cycles']} "
                  f"(drift {validation['drift']:+.4%})")
        if not report.ok():
            print(report.render())
    if report.errors():
        sys.exit(1)


def _capture_timeseries(target, args):
    """Run a kernel or app with interval sampling on; returns the payload."""
    from repro.telemetry import Telemetry, TimeSeries
    from repro.workloads import KERNEL_FACTORIES, make_kernel
    from repro.workloads.apps import APP_FACTORIES

    timeseries = TimeSeries(interval=args.interval)
    if target in KERNEL_FACTORIES:
        from repro.cpu import Core
        from repro.mem import MemorySystem

        kernel = make_kernel(target, seed=args.seed)
        core = Core(kernel.program, MemorySystem.stitch(), probe=timeseries)
        kernel.setup(core)
        outcome = core.run(max_instructions=5_000_000)
        timeseries.run_end([core], {core: outcome.reason}, "complete")
    elif target.upper() in APP_FACTORIES:
        from repro.sim.baselines import ARCH_STITCH, AppEvaluator

        evaluator = AppEvaluator(APP_FACTORIES[target.upper()](seed=args.seed))
        system, _ = evaluator.build_system(
            ARCH_STITCH, items=args.items,
            telemetry=Telemetry(timeseries=timeseries),
        )
        system.run()  # flushes sampling + derives energy
    else:
        sys.exit(
            f"unknown monitor target {target!r}: not a kernel "
            f"({sorted(KERNEL_FACTORIES)}), app ({sorted(APP_FACTORIES)}) "
            f"or existing capture file"
        )
    return timeseries.to_dict()


def _verify_exit_code(report, strict):
    """Severity-aware exit status of ``repro verify``.

    0 — clean (or warnings only, outside strict mode);
    1 — error-severity diagnostics, strict or not;
    2 — strict mode and the report is not completely clean.
    """
    if report.errors():
        return 1
    if strict and not report.ok(strict=True):
        return 2
    return 0


def _dump_cfg(prefix, program):
    """Write ``<prefix>.cfg.dot``: the analyzed CFG of ``program``."""
    from repro.verify.absint import analyze_program, cfg_dot

    analysis = analyze_program(program)
    if analysis is None:
        sys.exit(f"cannot build a CFG for {program.name} "
                 f"(empty program or broken branch targets)")
    path = f"{prefix}.cfg.dot"
    with open(path, "w") as handle:
        handle.write(cfg_dot(analysis))
    # stderr keeps --json stdout machine-readable
    print(f"wrote {path}", file=sys.stderr)


def cmd_verify(args):
    import json

    from repro.verify import RULES, verify_app, verify_kernel, verify_source

    deep = args.deep or args.strict

    if args.rules:
        print(f"{'code':6s} {'severity':8s} {'pass':12s} summary")
        for code in sorted(RULES):
            rule = RULES[code]
            print(f"{rule.code:6s} {str(rule.severity):8s} "
                  f"{rule.pass_name:12s} {rule.summary}")
        return

    if args.platform:
        report = _verify_platform(args.platform)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(report.render())
        code = _verify_exit_code(report, args.strict)
        if code:
            sys.exit(code)
        return

    if args.target is None:
        sys.exit("verify needs a kernel name, app name or .s file")
    if args.dump_cfg:
        _check_output(f"{args.dump_cfg}.cfg.dot", "CFG")

    from repro.workloads import KERNEL_FACTORIES, make_kernel
    from repro.workloads.apps import APP_FACTORIES

    target = args.target
    program = None  # the --dump-cfg subject, when the target has one
    if target in KERNEL_FACTORIES:
        kernel = make_kernel(target, seed=args.seed)
        report = verify_kernel(
            kernel, compile_options=not args.no_compile, deep=deep
        )
        program = kernel.program
    elif target.upper() in APP_FACTORIES:
        app = APP_FACTORIES[target.upper()](seed=args.seed)
        report = verify_app(app, deep=deep)
    elif os.path.isfile(target):
        source = _read_text(target, "source file")
        report = verify_source(source, name=target, deep=deep)
        from repro.isa.assembler import AssemblerError, assemble

        try:
            program = assemble(source, name=target)
        except AssemblerError:
            program = None  # already reported as V100
    else:
        sys.exit(
            f"unknown verify target {target!r}: not a kernel "
            f"({sorted(KERNEL_FACTORIES)}), app ({sorted(APP_FACTORIES)}) "
            f"or existing file"
        )

    if args.dump_cfg:
        if program is None:
            sys.exit(f"--dump-cfg needs a kernel or .s target, "
                     f"not {target!r}")
        _dump_cfg(args.dump_cfg, program)

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    code = _verify_exit_code(report, args.strict)
    if code:
        sys.exit(code)


def _read_text(path, what):
    """The text of ``path``, gunzipped for ``*.gz``; one line and exit 1
    if it cannot be read."""
    import zlib

    from repro.telemetry.trace import _open_trace

    try:
        with _open_trace(path, "r") as handle:
            return handle.read()
    except OSError as exc:  # gzip.BadGzipFile too: no strerror
        sys.exit(f"cannot read {what} {path!r}: {exc.strerror or exc}")
    except (EOFError, zlib.error) as exc:  # a truncated or corrupt .gz
        sys.exit(f"cannot read {what} {path!r}: {exc}")
    except UnicodeDecodeError as exc:
        sys.exit(f"cannot read {what} {path!r}: not text ({exc.reason})")


def _read_json(path, what):
    """The JSON document in ``path``; one line and exit 1 if it cannot be
    read or parsed."""
    import json

    try:
        return json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        sys.exit(f"{what} {path!r} is not valid JSON: {exc}")


def _capture_problem(payload):
    """Why a loaded ``payload`` cannot be a time-series capture, or None:
    it, or a group the monitor walks, is not a JSON object, or a series
    in a group is not a list of samples carrying the integer fields
    ``check_timeseries`` and ``render_monitor`` read."""
    from repro.telemetry.monitor import STALL_GLYPHS

    if not isinstance(payload, dict):
        return "not a JSON object"
    interval = payload.get("interval")
    if interval is not None and not isinstance(interval, (int, float)):
        return "'interval' is not a number"
    # The groups of series: the fields their samples carry beside
    # index/start/end, and those read as 0 when absent.
    series = {"tiles": ((), tuple(field for field, _, _ in STALL_GLYPHS)),
              "noc.links": (("flits",), ()),
              "fabric.channels": ((), ())}
    # Each group after the one holding it, so ``get`` is safe.
    for path in (("tiles",), ("noc",), ("noc", "links"), ("fabric",),
                 ("fabric", "channels")):
        value = payload
        for key in path:
            value = value.get(key, {})
        where = ".".join(path)
        if not isinstance(value, dict):
            return f"{where!r} is not a JSON object"
        if where not in series:
            continue
        required, optional = series[where]
        for name, samples in value.items():
            if where == "tiles":
                try:
                    int(name)  # the timeline sorts tiles by number
                except ValueError:
                    return f"'tiles' names {name!r}, not a tile number"
            problem = _series_problem(samples, ("index", "start", "end")
                                      + required, optional)
            if problem is not None:
                return f"{where!r} series {name!r} {problem}"
    return None


def _series_problem(samples, required, optional):
    """Why ``samples`` is not a list of objects whose ``required`` and
    present ``optional`` fields are integers, or None."""
    if not isinstance(samples, list):
        return "is not a list of samples"
    for number, sample in enumerate(samples):
        if not isinstance(sample, dict):
            return f"sample {number} is not a JSON object"
        for field in required + optional:
            value = sample.get(field, 0 if field in optional else None)
            if not isinstance(value, int):
                return f"sample {number} has no integer {field!r}"
    return None


def _check_output(path, what):
    """One line and exit 1 if ``path`` (None: no output asked for) could
    not be written: its directory is missing, or it is a directory.
    Commands call this before any work; it neither creates nor
    truncates the file."""
    if path is None:
        return
    if os.path.isdir(path):
        sys.exit(f"cannot write {what} {path!r}: is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        sys.exit(f"cannot write {what} {path!r}: no such directory")


def _load_platform(spec):
    """Resolve ``spec`` (preset name or JSON file) to a PlatformConfig.

    Validation is deferred to the caller — the verify command wants to
    *report* inconsistencies, not crash on them.
    """
    from repro.platform import PRESET_NAMES, PlatformConfig, get_preset

    if spec in PRESET_NAMES:
        return get_preset(spec)
    if os.path.isfile(spec):
        return PlatformConfig.from_dict(_read_json(spec, "platform file"),
                                        validate=False)
    sys.exit(
        f"unknown platform {spec!r}: not a preset ({list(PRESET_NAMES)}) "
        f"or an existing JSON file"
    )


def _valid_platform(spec):
    """:func:`_load_platform`, validated: a file that names an unknown
    group or field, or fails ``validate()``, ends in one line and exit
    1 (``verify --platform`` reports the same issues instead)."""
    from repro.platform import PlatformConfigError

    try:
        return _load_platform(spec).validate()
    except PlatformConfigError as exc:
        issues = "; ".join(f"{code} @ {loc}: {message}"
                           for code, loc, message in exc.issues)
        sys.exit(f"platform file {spec!r} rejected: {issues}")


def _verify_platform(spec):
    from repro.platform import PlatformConfigError
    from repro.verify import Report, check_platform

    try:
        config = _load_platform(spec)
    except PlatformConfigError as exc:
        # Structurally broken (unknown fields/groups): report the
        # issues instead of tracebacking.
        report = Report(spec)
        for code, loc, message in exc.issues:
            report.emit(code, loc, message)
        return report
    print(config.describe())
    return check_platform(config)


def _explain_kernel(name, args):
    import json

    from repro.compiler.driver import KernelCompiler
    from repro.provenance import CompileReport, dfg_dot
    from repro.verify import check_compile_report
    from repro.workloads import make_kernel

    options = _patch_options(args.option)
    path = f"{args.dot}.dfg.dot" if args.dot else None
    _check_output(path, "DFG")
    kernel = make_kernel(name, seed=args.seed)
    report = CompileReport(name)
    compiler = KernelCompiler(kernel, allow_replication=True, report=report)
    compiled = compiler.compile_options(options)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        from repro.provenance import render_compile_report

        print(render_compile_report(report, verbose=args.verbose))
        print(check_compile_report(report).render())
    if path:
        best = max(compiled.values(), key=lambda c: c.speedup)
        with open(path, "w") as handle:
            handle.write(dfg_dot(best))
        print(f"DFG written to {path} ({best.option.name})")
    if not report.accounted():
        sys.exit("provenance accounting failed: candidates unaccounted for")


def _explain_app(name, args):
    import json

    from repro.core.placement import DEFAULT_PLACEMENT
    from repro.provenance import StitchTrace, plan_dot
    from repro.sim.baselines import ARCH_STITCH, AppEvaluator
    from repro.workloads.apps import APP_FACTORIES

    path = f"{args.dot}.plan.dot" if args.dot else None
    _check_output(path, "mesh plan")
    evaluator = AppEvaluator(APP_FACTORIES[name](seed=args.seed))
    trace = StitchTrace(name)
    plan = evaluator.plan(ARCH_STITCH, trace=trace)
    if args.json:
        payload = trace.to_dict()
        payload["plan"] = {
            "bottleneck_cycles": plan.bottleneck_cycles(),
            "assignments": {
                str(sid): {
                    "tile": a.tile,
                    "option": a.option,
                    "remote_tile": a.remote_tile,
                    "path": a.path,
                    "cycles": a.cycles,
                }
                for sid, a in plan.assignments.items()
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(trace.render(plan=plan))
    if path:
        with open(path, "w") as handle:
            handle.write(plan_dot(plan, DEFAULT_PLACEMENT))
        print(f"mesh plan written to {path}")


def cmd_explain(args):
    from repro.workloads import KERNEL_FACTORIES
    from repro.workloads.apps import APP_FACTORIES

    target = args.target
    if target in KERNEL_FACTORIES:
        _explain_kernel(target, args)
    elif target.upper() in APP_FACTORIES:
        _explain_app(target.upper(), args)
    else:
        sys.exit(
            f"unknown explain target {target!r}: not a kernel "
            f"({sorted(KERNEL_FACTORIES)}) or app ({sorted(APP_FACTORIES)})"
        )


def cmd_bench(args):
    from repro.analysis.bench import (
        bench_fig11,
        bench_fig12,
        compare_bench,
        load_bench,
        write_bench,
    )

    if args.check is not None and not os.path.isdir(args.check):
        sys.exit(f"cannot check against baselines {args.check!r}: "
                 f"no such directory")
    os.makedirs(args.out, exist_ok=True)
    kernels = args.kernels.split(",") if args.kernels else None
    apps = [a.upper() for a in args.apps.split(",")] if args.apps else None
    payloads = {}
    if not args.skip_fig11:
        print("bench fig11 (compiles every kernel x option)...")
        payloads["BENCH_fig11.json"] = bench_fig11(
            kernels, seed=args.seed, workers=args.workers
        )
    if not args.skip_fig12:
        print("bench fig12 (stitches every app)...")
        payloads["BENCH_fig12.json"] = bench_fig12(
            apps, seed=args.seed, workers=args.workers
        )
    for filename, payload in payloads.items():
        path = os.path.join(args.out, filename)
        write_bench(payload, path)
        print(f"wrote {path}")
    if not args.check:
        return
    failed = False
    for filename, payload in payloads.items():
        baseline_path = os.path.join(args.check, filename)
        if not os.path.isfile(baseline_path):
            print(f"{filename}: REGRESSION: no baseline at {baseline_path}")
            failed = True
            continue
        regressions, notes = compare_bench(
            payload, load_bench(baseline_path), tolerance=args.tolerance
        )
        for note in notes:
            print(f"{filename}: note: {note}")
        for regression in regressions:
            print(f"{filename}: REGRESSION: {regression}")
        if regressions:
            failed = True
        else:
            print(f"{filename}: within {args.tolerance:.0%} of baseline")
    if failed:
        sys.exit(1)


def cmd_sweep(args):
    from repro.sweep import make_points, run_sweep, smoke_points, sweep_to_json
    from repro.sweep.studies import STUDY_KERNELS

    _check_output(args.out, "sweep results")
    if args.smoke:
        points = smoke_points()
    elif args.config:
        config = _valid_platform(args.config)
        print(config.describe())
        points = [
            {
                "id": f"{config.name}/{kernel}",
                "config": config.to_dict(),
                "workload": {"kind": "kernel", "name": kernel,
                             "seed": args.seed},
            }
            for kernel in STUDY_KERNELS
        ]
    else:
        studies = args.study.split(",") if args.study else None
        try:
            points = make_points(studies)
        except KeyError as exc:
            sys.exit(str(exc.args[0]))
    if args.telemetry:
        for point in points:
            point["workload"]["telemetry"] = True
    workers = args.workers
    print(f"sweep: {len(points)} point(s), "
          f"{'serial' if not workers or workers <= 1 else f'{workers} workers'}")
    payload = run_sweep(points, workers=workers)
    if args.check_serial and workers and workers > 1:
        serial = run_sweep(points, workers=1)
        if sweep_to_json(serial) != sweep_to_json(payload):
            sys.exit("sweep: parallel and serial runs disagree")
        print("sweep: parallel == serial (checked)")
    rendered = sweep_to_json(payload)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered)
        print(f"wrote {args.out}")
    for record in payload["results"]:
        if "error" in record:
            print(f"  {record['id']}: ERROR {record['error']}")
        else:
            metrics = record["metrics"]
            line = ", ".join(f"{k}={v}" for k, v in metrics.items())
            print(f"  {record['id']}: {line}")
    if payload["errors"]:
        sys.exit(f"sweep: {payload['errors']} point(s) failed")


def cmd_chaos(args):
    import json

    from repro.chaos import InjectionPlan, InjectionPlanError
    from repro.chaos.campaign import (
        campaign_points,
        campaign_report,
        campaign_to_json,
    )
    from repro.platform import DEFAULT_PLATFORM
    from repro.sweep.runner import run_sweep
    from repro.verify import check_campaign

    _check_output(args.json, "campaign report")
    targets = args.targets or ["fir", "fft", "2dconv", "APP1"]
    recovery = shown = "none" if args.no_recovery else "full"
    sites = args.sites.split(",") if args.sites else None
    if args.plan:
        if args.no_recovery:
            sys.exit("chaos: --no-recovery does not apply to --plan: each "
                     "point runs the plan's own recovery block")
        plan_dict = _read_json(args.plan, "injection plan")
        try:  # a plan every point would reject fails here, once
            plan = InjectionPlan.from_dict(plan_dict)
        except (InjectionPlanError, TypeError, AttributeError) as exc:
            sys.exit(f"injection plan {args.plan!r}: {exc}")
        recovery = plan.recovery.to_dict()
        shown = json.dumps(recovery)
        config_dict = DEFAULT_PLATFORM.to_dict()
        points = [
            {
                "id": f"{target}/plan",
                "config": config_dict,
                "workload": {"kind": "chaos", "target": target,
                             "plan": plan_dict},
            }
            for target in targets
        ]
    else:
        points = campaign_points(targets, args.campaign, args.seed,
                                 recovery=recovery, sites=sites)
    workers = args.workers
    print(f"chaos: {len(points)} point(s) over {', '.join(targets)}, "
          f"recovery {shown}, "
          f"{'serial' if not workers or workers <= 1 else f'{workers} workers'}")

    def build_report(fanout):
        return campaign_report(run_sweep(points, workers=fanout),
                               targets=targets, seed=args.seed,
                               recovery=recovery)

    report = build_report(workers)
    if args.check_serial and workers and workers > 1:
        if campaign_to_json(build_report(1)) != campaign_to_json(report):
            sys.exit("chaos: parallel and serial campaigns disagree")
        print("chaos: parallel == serial (checked)")
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(campaign_to_json(report))
        print(f"wrote {args.json}")
    for record in report["results"]:
        if "error" in record:
            print(f"  {record['id']}: ERROR {record['error']}")
            continue
        metrics = record["metrics"]
        extra = ""
        if metrics.get("loud"):
            extra = f" [{metrics['loud'].split(':')[0]}]"
        if metrics.get("remapped"):
            extra += f" [remapped around {metrics['remapped']['excluded']}]"
        print(f"  {record['id']}: {metrics['outcome']}"
              f" (triggered {metrics['faults_triggered']},"
              f" recovery {metrics['recovery_cycles']} cy){extra}")
    tally = report["campaign"]["outcomes"]
    print("chaos: " + ", ".join(f"{name}={tally[name]}" for name in tally))
    verdict = check_campaign(report)
    print(verdict.render())
    if report["errors"]:
        sys.exit(f"chaos: {report['errors']} point(s) failed")
    if not verdict.ok():
        sys.exit(1)
    if args.strict and report["campaign"]["sdc"]:
        sys.exit(f"chaos: {report['campaign']['sdc']} silent data "
                 f"corruption(s)")


def cmd_report(args):
    from repro.analysis.report import generate

    _check_output(args.path, "report")
    generate(args.path)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro", description="Stitch (ISCA 2018) reproduction tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("kernels", help="list the kernel suite")

    p_compile = sub.add_parser("compile", help="compile one kernel")
    p_compile.add_argument("kernel")
    p_compile.add_argument("--option", help="single patch option name")
    p_compile.add_argument("--seed", type=int, default=1)
    p_compile.add_argument("--no-replication", action="store_true")

    p_run = sub.add_parser("run", help="run an assembly file on one tile")
    p_run.add_argument("file")
    p_run.add_argument("--max-instructions", type=int, default=10_000_000)
    p_run.add_argument(
        "--stats", action="store_true",
        help="print cycle attribution + cache stats (and verify them)",
    )
    p_run.add_argument(
        "--trace", metavar="PATH",
        help="write a Chrome trace-event JSON file of the run "
             "(gzipped when PATH ends in .gz)",
    )
    p_run.add_argument(
        "--timeseries", metavar="PATH",
        help="sample interval counters into PATH (.csv for CSV, else JSON)",
    )
    p_run.add_argument(
        "--interval", type=int, default=1024,
        help="sampling interval in cycles (default 1024)",
    )

    p_app = sub.add_parser("app", help="evaluate an application")
    p_app.add_argument("app", help="APP1 | APP2 | APP3 | APP4")
    p_app.add_argument("--seed", type=int, default=1)
    p_app.add_argument(
        "--stats", action="store_true",
        help="co-simulate the Stitch plan with telemetry and print the roll-up",
    )
    p_app.add_argument(
        "--trace", metavar="PATH",
        help="co-simulate and write a Chrome trace-event JSON file "
             "(gzipped when PATH ends in .gz)",
    )
    p_app.add_argument(
        "--timeseries", metavar="PATH",
        help="co-simulate and sample interval counters into PATH "
             "(.csv for CSV, else JSON)",
    )
    p_app.add_argument(
        "--interval", type=int, default=1024,
        help="sampling interval in cycles (default 1024)",
    )
    p_app.add_argument(
        "--items", type=int, default=2,
        help="items to stream through the telemetry co-simulation",
    )

    p_profile = sub.add_parser(
        "profile", help="cycle-attribution profiler (PC/block/loop)"
    )
    p_profile.add_argument(
        "target", help="kernel name | APP1..APP4",
    )
    p_profile.add_argument(
        "--json", action="store_true",
        help="machine-readable profile (per-PC, per-block, per-loop)",
    )
    p_profile.add_argument(
        "--folded", action="store_true",
        help="flamegraph folded stacks (prog;loop;block cycles)",
    )
    p_profile.add_argument(
        "--annotate", action="store_true",
        help="annotated disassembly with per-instruction cycles",
    )
    p_profile.add_argument("--seed", type=int, default=1)
    p_profile.add_argument(
        "--items", type=int, default=2,
        help="app targets: items to stream through the co-simulation",
    )

    p_monitor = sub.add_parser(
        "monitor", help="ASCII heatmap/timeline from a time-series capture"
    )
    p_monitor.add_argument(
        "target", help="kernel name | APP1..APP4 | saved --timeseries JSON",
    )
    p_monitor.add_argument(
        "--interval", type=int, default=1024,
        help="sampling interval in cycles for live captures (default 1024)",
    )
    p_monitor.add_argument(
        "--width", type=int, default=64,
        help="maximum columns in the rendered timeline (default 64)",
    )
    p_monitor.add_argument("--seed", type=int, default=1)
    p_monitor.add_argument(
        "--items", type=int, default=2,
        help="app targets: items to stream through the co-simulation",
    )

    p_critpath = sub.add_parser(
        "critpath",
        help="causal critical-path analysis and what-if projections",
    )
    p_critpath.add_argument(
        "target", help="kernel name | APP1..APP4",
    )
    p_critpath.add_argument(
        "--json", action="store_true",
        help="machine-readable capture (graph + analysis + diagnostics)",
    )
    p_critpath.add_argument(
        "--gantt", action="store_true",
        help="ASCII Gantt chart with the critical path highlighted",
    )
    p_critpath.add_argument(
        "--what-if", action="append", default=[], metavar="EXPR",
        help="replay with scaled weights, e.g. 'tile3.compute*0.5', "
             "'dram_latency*2', 'link_latency*2', 'channel_capacity=64' "
             "(repeatable; clauses compose)",
    )
    p_critpath.add_argument(
        "--validate", action="append", default=[], metavar="EXPR",
        help="project a dram_latency what-if AND re-run the simulator "
             "with the equivalent platform change; reports the drift",
    )
    p_critpath.add_argument(
        "--out", metavar="FILE",
        help="also write the JSON capture here (for CI artifacts / sweep)",
    )
    p_critpath.add_argument(
        "--platform", metavar="PRESET|FILE",
        help="record on a platform preset or config JSON",
    )
    p_critpath.add_argument(
        "--width", type=int, default=72,
        help="columns in the --gantt chart (default 72)",
    )
    p_critpath.add_argument("--seed", type=int, default=1)
    p_critpath.add_argument(
        "--items", type=int, default=2,
        help="app targets: items to stream through the co-simulation",
    )

    p_verify = sub.add_parser(
        "verify", help="statically verify a kernel, app or assembly file"
    )
    p_verify.add_argument(
        "target", nargs="?",
        help="kernel name | APP1..APP4 | path to a .s file",
    )
    p_verify.add_argument(
        "--strict", action="store_true",
        help="exit non-zero unless the report is completely clean "
             "(implies --deep; exit 2 distinguishes warnings-only)",
    )
    p_verify.add_argument(
        "--deep", action="store_true",
        help="also run the abstract interpreter (V800 rule family: "
             "init-before-use, SPM bounds, 19-bit control words, ...)",
    )
    p_verify.add_argument(
        "--dump-cfg", metavar="PREFIX",
        help="write PREFIX.cfg.dot: the target's CFG annotated with "
             "per-block interval states (kernel or .s targets)",
    )
    p_verify.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_verify.add_argument(
        "--no-compile", action="store_true",
        help="kernel targets: program lint only, skip option compilation",
    )
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument(
        "--rules", action="store_true", help="list registered rules and exit"
    )
    p_verify.add_argument(
        "--platform", metavar="PRESET|FILE",
        help="verify a platform config (preset name or JSON file) "
             "against the V700 rule family",
    )

    p_explain = sub.add_parser(
        "explain", help="narrate the tool chain's decisions with provenance"
    )
    p_explain.add_argument(
        "target", help="kernel name | APP1..APP4",
    )
    p_explain.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_explain.add_argument(
        "--dot", metavar="PREFIX",
        help="write Graphviz files (PREFIX.dfg.dot / PREFIX.plan.dot)",
    )
    p_explain.add_argument(
        "--option", help="kernel targets: explain a single patch option"
    )
    p_explain.add_argument(
        "--verbose", action="store_true",
        help="list every rejected candidate, not just the tallies",
    )
    p_explain.add_argument("--seed", type=int, default=1)

    p_bench = sub.add_parser(
        "bench", help="re-measure Fig. 11/12 into BENCH_*.json"
    )
    p_bench.add_argument(
        "--out", default=".", help="directory for the BENCH_*.json files"
    )
    p_bench.add_argument(
        "--check", metavar="DIR",
        help="compare against baseline BENCH_*.json in DIR; exit 1 on "
             "regression, on a missing baseline file or a missing DIR",
    )
    p_bench.add_argument(
        "--tolerance", type=float, default=0.03,
        help="relative drift allowed on simulated metrics (default 3%%)",
    )
    p_bench.add_argument(
        "--kernels", help="comma-separated subset for fig11"
    )
    p_bench.add_argument(
        "--apps", help="comma-separated subset for fig12"
    )
    p_bench.add_argument("--skip-fig11", action="store_true")
    p_bench.add_argument("--skip-fig12", action="store_true")
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument(
        "--workers", type=int,
        help="fan kernels/apps over N worker processes (default: serial)",
    )

    p_sweep = sub.add_parser(
        "sweep", help="run a design-space study over a process pool"
    )
    p_sweep.add_argument(
        "--study",
        help="comma-separated studies to run (mesh | dram | dcache; "
             "default: all)",
    )
    p_sweep.add_argument(
        "--smoke", action="store_true",
        help="the tiny CI sweep: 2 configs x 2 kernels",
    )
    p_sweep.add_argument(
        "--config", metavar="PRESET|FILE",
        help="sweep the study kernels on one platform (preset name or "
             "config JSON) instead of a built-in study",
    )
    p_sweep.add_argument(
        "--workers", type=int,
        help="worker processes (default: serial)",
    )
    p_sweep.add_argument(
        "--out", metavar="FILE", help="write the sweep JSON here"
    )
    p_sweep.add_argument(
        "--check-serial", action="store_true",
        help="re-run serially and assert byte-identical results",
    )
    p_sweep.add_argument(
        "--telemetry", action="store_true",
        help="capture per-point stats and merge them (submission order) "
             "into the payload's stats_total",
    )
    p_sweep.add_argument("--seed", type=int, default=1)

    p_chaos = sub.add_parser(
        "chaos", help="run a seeded fault-injection campaign"
    )
    p_chaos.add_argument(
        "targets", nargs="*",
        help="kernels and/or APP1..APP4 (default: fir fft 2dconv APP1)",
    )
    p_chaos.add_argument("--seed", type=int, default=1)
    p_chaos.add_argument(
        "--campaign", type=int, default=16, metavar="N",
        help="number of single-fault points (default: 16)",
    )
    p_chaos.add_argument(
        "--plan", metavar="FILE",
        help="run one explicit InjectionPlan JSON per target instead of "
             "a seeded campaign",
    )
    p_chaos.add_argument(
        "--sites", metavar="A,B,...",
        help="restrict drawn faults to these sites "
             "(reg,spm,dram,freeze,cix,link,channel)",
    )
    p_chaos.add_argument(
        "--no-recovery", action="store_true",
        help="disarm every detection/recovery policy (faults land raw); "
             "not with --plan, whose own recovery block applies",
    )
    p_chaos.add_argument(
        "--workers", type=int,
        help="worker processes (default: serial)",
    )
    p_chaos.add_argument(
        "--json", metavar="FILE", help="write the campaign report here"
    )
    p_chaos.add_argument(
        "--check-serial", action="store_true",
        help="re-run serially and assert byte-identical reports",
    )
    p_chaos.add_argument(
        "--strict", action="store_true",
        help="also fail on any silent data corruption",
    )

    p_report = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    p_report.add_argument("path", nargs="?", default="EXPERIMENTS.md")

    args = parser.parse_args(argv)
    handler = {
        "kernels": cmd_kernels,
        "compile": cmd_compile,
        "run": cmd_run,
        "app": cmd_app,
        "profile": cmd_profile,
        "monitor": cmd_monitor,
        "critpath": cmd_critpath,
        "verify": cmd_verify,
        "explain": cmd_explain,
        "bench": cmd_bench,
        "sweep": cmd_sweep,
        "chaos": cmd_chaos,
        "report": cmd_report,
    }[args.command]
    handler(args)


if __name__ == "__main__":
    main()
