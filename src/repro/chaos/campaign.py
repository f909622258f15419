"""Seeded fault-injection campaigns with differential classification.

A campaign run is a sweep of *chaos points* — one perturbed execution
each — fanned out through :func:`repro.sweep.runner.run_sweep` (the
same order-preserving process pool as every other sweep, so parallel
and serial campaign reports are byte-identical by construction).

Every point computes its own clean **golden run** in-process, injects
one seeded fault plan, and classifies the perturbed run against the
golden output:

``masked``
    The run completed with bit-identical output and no recovery was
    needed (the fault landed on dead state, or never triggered).
``detected_recovered``
    A detection policy caught the fault and a recovery policy repaired
    it (ECC scrub, channel retry, plan remap); output matches golden.
``detected_failed``
    The fault was detected but the run still failed — loudly (watchdog,
    deadlock, stall, corruption past the retry budget, an execution
    trap) or with wrong output despite the detection.
``sdc``
    Silent data corruption: the run completed, nothing detected
    anything, and the output differs from golden.  The outcome a
    resilient design must drive to zero.

Workload dict (the ``"chaos"`` sweep kind)::

    {"kind": "chaos", "target": "fir" | "APP1", "seed": 7,
     "faults": 1, "recovery": "full" | "none",
     "sites": [...], "engine": "auto", "plan": {...explicit...}}

``target`` names a Figure-11 kernel (single-tile run, core-site faults)
or one of APP1-4 (16-tile stitched co-simulation, every fault site).
A kernel point's ``engine`` must fire the injector's hooks: ``fast``
or ``reference`` with an armed plan raises ``ValueError``.
"""

import json

from repro.chaos.injector import CixStallError, Injector
from repro.chaos.plan import (
    CORE_SITES,
    SITES,
    InjectionPlan,
    RecoveryParams,
    random_plan,
)
from repro.platform import DEFAULT_PLATFORM, PlatformConfig
from repro.sweep.runner import checksum

OUTCOMES = ("masked", "detected_recovered", "detected_failed", "sdc")

#: Default co-simulated items per app point (matches AppEvaluator).
APP_ITEMS = 2

#: Instruction budget of one kernel point's run.
KERNEL_BUDGET = 20_000_000


def _recovery(workload):
    mode = workload.get("recovery", "full")
    if isinstance(mode, dict):
        return RecoveryParams.from_dict(mode)
    if mode == "full":
        return RecoveryParams.full()
    if mode == "none":
        return RecoveryParams.none()
    raise ValueError(f"unknown recovery mode {mode!r}")


def classify(events, loud, matches):
    """Map one run's evidence to its outcome class.

    ``events`` is the injector's event log, ``loud`` the loud-failure
    description (None when the run completed), ``matches`` whether the
    output is bit-identical to the golden run.
    """
    if loud is not None:
        return "detected_failed"
    if matches:
        recovered = any(e["kind"] == "recover" for e in events)
        return "detected_recovered" if recovered else "masked"
    detected = any(e["kind"] == "detect" for e in events)
    return "detected_failed" if detected else "sdc"


# -- kernel points -----------------------------------------------------------


def _kernel_core(config, name, engine, injector):
    """Kernel ``name`` loaded on a fresh core; ``Core`` raises
    ``ValueError`` when ``engine`` cannot apply ``injector``'s faults."""
    from repro.cpu.core import Core
    from repro.mem.hierarchy import MemorySystem
    from repro.workloads import make_kernel

    kernel = make_kernel(name, seed=1)
    memory = MemorySystem(config.mem)
    core = Core(kernel.program, memory, params=config.core, engine=engine,
                probe=injector)
    kernel.setup(core)
    return kernel, core


def _kernel_run(config, name, engine, injector):
    kernel, core = _kernel_core(config, name, engine, injector)
    outcome = core.run(max_instructions=KERNEL_BUDGET)
    return kernel.result(core), outcome, core


def _kernel_point(config, workload):
    from repro.cpu.core import STOP_HALT

    name = workload["target"]
    engine = workload.get("engine", "auto")
    golden, outcome, core = _kernel_run(config, name, engine, None)
    if outcome.reason != STOP_HALT:
        raise RuntimeError(
            f"golden run of kernel {name!r} did not halt ({outcome.reason})"
        )
    plan = _point_plan(
        workload, sites=CORE_SITES, tiles=1, max_cycle=max(core.cycles, 1),
        spm_base=config.mem.spm_base, spm_bytes=config.mem.spm_bytes,
        dram_words=min(config.mem.dram_size_bytes // 4, 4096),
    )
    injector = Injector(plan)
    # Built outside the try: an engine that cannot apply the faults is
    # a configuration error, not a loud failure of the perturbed run.
    kernel, faulty = _kernel_core(config, name, engine, injector)
    loud = None
    result = None
    try:
        outcome = faulty.run(max_instructions=KERNEL_BUDGET)
        result = kernel.result(faulty)
        if outcome.reason != STOP_HALT:
            loud = f"NoHalt: kernel stopped with reason {outcome.reason!r}"
    except Exception as exc:  # loud failure: trap, stall, budget, ...
        loud = f"{type(exc).__name__}: {exc}"
    matches = result == golden
    return _metrics(workload, plan, injector, loud, matches,
                    golden_cycles=core.cycles,
                    golden_checksum=checksum(golden),
                    output_checksum=checksum(result) if loud is None
                    else None)


# -- application points ------------------------------------------------------


def _app_outputs(system, plan, app):
    return {
        stage.id: stage.kernel.result(system.cores[plan.tile_of(stage.id)])
        for stage in app.stages
    }


def _app_point(config, workload):
    from repro.chaos.recovery import app_channels, fused_sites, remap_plan
    from repro.provenance import StitchTrace
    from repro.sim.baselines import ARCH_STITCH, AppEvaluator
    from repro.workloads.apps import APP_FACTORIES

    target = workload["target"]
    app = APP_FACTORIES[target]()
    evaluator = AppEvaluator(app, platform=config)
    items = workload.get("items", APP_ITEMS)

    golden_system, stitch = evaluator.build_system(ARCH_STITCH, items=items)
    golden_results = golden_system.run()
    golden = _app_outputs(golden_system, stitch, app)
    golden_makespan = golden_system.makespan(golden_results)

    plan = _point_plan(
        workload, sites=SITES, tiles=evaluator.placement.mesh.num_tiles,
        max_cycle=max(golden_makespan, 1),
        spm_base=config.mem.spm_base, spm_bytes=config.mem.spm_bytes,
        dram_words=min(config.mem.dram_size_bytes // 4, 4096),
        cix_sites=fused_sites(evaluator, ARCH_STITCH),
        channels=app_channels(evaluator, ARCH_STITCH),
    )
    injector = Injector(plan)
    loud = None
    remapped = None
    outputs = None
    try:
        system, splan = evaluator.build_system(ARCH_STITCH, items=items,
                                               telemetry=injector)
        system.run()
        outputs = _app_outputs(system, splan, app)
    except CixStallError as exc:
        if plan.recovery.remap:
            # Graceful degradation: exclude the failed option and
            # materialize the best surviving stitch (the alternatives
            # the StitchTrace records).
            trace = StitchTrace(f"{target}/remap")
            try:
                degraded, excluded = remap_plan(evaluator, exc.tile,
                                                ARCH_STITCH, trace=trace)
                system, splan = evaluator.build_system(
                    ARCH_STITCH, items=items, plan=degraded,
                )
                system.run()
                outputs = _app_outputs(system, splan, app)
                remapped = {
                    "excluded": excluded,
                    "bottleneck_cycles": degraded.bottleneck_cycles(),
                }
                injector.log_recover("cix", exc.tile, exc.cycle,
                                     excluded=excluded)
            except Exception as inner:
                loud = f"{type(inner).__name__}: {inner}"
        else:
            loud = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # watchdog, deadlock, corruption, trap, ...
        loud = f"{type(exc).__name__}: {exc}"
    matches = outputs == golden
    return _metrics(workload, plan, injector, loud, matches,
                    golden_cycles=golden_makespan,
                    golden_checksum=checksum(golden),
                    output_checksum=checksum(outputs) if loud is None
                    else None,
                    remapped=remapped)


# -- shared plumbing ---------------------------------------------------------


def _point_plan(workload, sites, **kwargs):
    """Resolve the point's plan: explicit dict, or a seeded draw."""
    explicit = workload.get("plan")
    if explicit is not None:
        return InjectionPlan.from_dict(explicit)
    requested = workload.get("sites")
    if requested:
        chosen = tuple(s for s in sites if s in set(requested))
        if not chosen:
            raise ValueError(
                f"no requested site in {sorted(requested)} is valid for "
                f"this target (valid: {list(sites)})"
            )
        sites = chosen
    return random_plan(
        workload.get("seed", 0),
        n_faults=workload.get("faults", 1),
        sites=sites,
        recovery=_recovery(workload),
        **kwargs,
    )


def _metrics(workload, plan, injector, loud, matches, golden_cycles,
             golden_checksum, output_checksum, remapped=None):
    outcome = classify(injector.events, loud, matches)
    metrics = {
        "target": workload["target"],
        "outcome": outcome,
        "plan": plan.to_dict(),
        "events": [dict(e) for e in injector.events],
        "faults_triggered": injector.triggered(),
        "faults_untriggered": injector.untriggered(),
        "recovery_cycles": injector.recovery_cycles,
        "golden_cycles": golden_cycles,
        "golden_checksum": golden_checksum,
        "output_checksum": output_checksum,
    }
    if loud is not None:
        metrics["loud"] = loud
    if remapped is not None:
        metrics["remapped"] = remapped
    return metrics


def run_chaos_point(config, workload):
    """Sweep-runner entry for one ``"chaos"`` workload point.

    Pure function of ``(config, workload)`` — both golden and perturbed
    runs happen in-process, so parallel fan-out stays deterministic.
    Returns ``(metrics, stats)`` like every other workload kind.
    """
    from repro.workloads.apps import APP_FACTORIES
    from repro.workloads.suite import KERNEL_FACTORIES

    target = workload.get("target")
    if target in APP_FACTORIES:
        return _app_point(config, workload), None
    if target in KERNEL_FACTORIES:
        return _kernel_point(config, workload), None
    raise ValueError(
        f"unknown chaos target {target!r} (kernels: "
        f"{sorted(KERNEL_FACTORIES)}; apps: {sorted(APP_FACTORIES)})"
    )


# -- campaigns ---------------------------------------------------------------


def campaign_points(targets, faults, seed, recovery="full", config=None,
                    sites=None):
    """The sweep points of one seeded campaign.

    ``faults`` single-fault points round-robin over ``targets``; point
    *i* draws its plan from ``seed + i``, so the whole campaign is a
    pure function of ``(targets, faults, seed, recovery, config)``.
    """
    config = config if config is not None else DEFAULT_PLATFORM
    if isinstance(config, dict):
        config = PlatformConfig.from_dict(config)
    targets = list(targets)
    if not targets:
        raise ValueError("campaign needs at least one target")
    config_dict = config.to_dict()
    points = []
    for i in range(faults):
        target = targets[i % len(targets)]
        workload = {
            "kind": "chaos",
            "target": target,
            "seed": seed + i,
            "faults": 1,
            "recovery": recovery,
        }
        if sites:
            workload["sites"] = sorted(sites)
        points.append({
            "id": f"{target}/{seed + i}",
            "config": config_dict,
            "workload": workload,
        })
    return points


def run_campaign(targets, faults, seed, recovery="full", workers=None,
                 config=None, sites=None):
    """Run one campaign; returns the classified report payload."""
    from repro.sweep.runner import run_sweep

    points = campaign_points(targets, faults, seed, recovery=recovery,
                             config=config, sites=sites)
    payload = run_sweep(points, workers=workers)
    return campaign_report(payload, targets=targets, seed=seed,
                           recovery=recovery)


def campaign_report(payload, targets=None, seed=None, recovery=None):
    """Attach the campaign tally to a sweep payload of chaos points."""
    outcomes = {name: 0 for name in OUTCOMES}
    triggered = untriggered = recovery_cycles = 0
    for record in payload["results"]:
        metrics = record.get("metrics")
        if metrics is None:
            continue
        outcomes[metrics["outcome"]] += 1
        triggered += metrics["faults_triggered"]
        untriggered += metrics["faults_untriggered"]
        recovery_cycles += metrics["recovery_cycles"]
    report = dict(payload)
    report["campaign"] = {
        "targets": sorted(set(targets)) if targets is not None else None,
        "seed": seed,
        "recovery": recovery,
        "outcomes": outcomes,
        "faults_triggered": triggered,
        "faults_untriggered": untriggered,
        "recovery_cycles": recovery_cycles,
        "sdc": outcomes["sdc"],
    }
    return report


def campaign_to_json(report):
    """Canonical JSON rendering (what serial-vs-parallel diffs compare)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
