"""Process-parallel execution of sweep points.

A *point* is a plain JSON-shaped dict::

    {"id": "dram50/fir",
     "config": {...PlatformConfig.to_dict()...},
     "workload": {"kind": "kernel", "name": "fir", "seed": 1}}

Workload kinds:

* ``kernel`` — run one Figure-11 kernel on a single tile built from the
  config's memory parameters; reports cycles, instructions, cache hit
  rates and a result checksum (the bit-exactness witness).
* ``ring`` — a token ring over every tile of the config's mesh: tile 0
  injects a token, each tile increments and forwards it, and the run
  reports the makespan plus the final token value.  This exercises the
  whole co-simulator (NoC timing, message passing, per-tile memories),
  so it is the workload the mesh study sweeps.

:func:`run_sweep` fans points over a :class:`ProcessPoolExecutor`.
Points are pure functions of their dict (fresh processes, no shared
caches), and the merge step reassembles results in the submitted
order — parallel and serial runs are byte-identical by construction,
which ``--check-serial`` (and the CI smoke job) assert.

A workload may pin ``"engine"`` (``auto``/``fast``/``instrumented``/
``reference``, see :class:`repro.cpu.Core`) to force a particular
execution loop — the differential harness uses this to diff sweep
points between engines; the default ``auto`` picks the fast loop
whenever the point records no telemetry.

A workload with ``"telemetry": true`` additionally captures a per-point
:class:`~repro.telemetry.Stats` registry (shipped across the process
boundary in its flat picklable form) and the payload gains a
``stats_total`` — every point's registry folded together with
:meth:`Stats.merge` in submission order, so the aggregate is as
deterministic as the per-point records.
"""

import json
import zlib
from concurrent.futures import ProcessPoolExecutor

from repro.platform import PlatformConfig

SCHEMA_VERSION = 1


def _checksum(value):
    """Stable checksum of a kernel-result structure (ints/sequences)."""
    return zlib.crc32(repr(value).encode("utf-8")) & 0xFFFFFFFF


def _hit_rate(cache):
    total = cache.hits + cache.misses
    return round(cache.hits / total, 6) if total else None


def _kernel_stats(core, memory):
    """Per-point Stats registry of one kernel run (telemetry mode)."""
    from repro.telemetry import Stats

    stats = Stats()
    stats.add("kernel.cycles", core.cycles)
    stats.add("kernel.instructions", core.instret)
    for bucket, value in core.attribution().items():
        if bucket != "total":
            stats.add(f"kernel.attribution.{bucket}", value)
    for level in ("icache", "dcache"):
        cache = getattr(memory, level)
        stats.add(f"kernel.{level}.hits", cache.hits)
        stats.add(f"kernel.{level}.misses", cache.misses)
    return stats


def _critpath_metrics(recorder, measured):
    """Compact causal-analysis record for one sweep point.

    The full graph stays out of the payload (sweeps run thousands of
    points); what survives is the reconciliation verdict and the
    critical-time decomposition — the numbers a study plots.
    """
    from repro.critpath import DependencyGraph, analyze

    graph = DependencyGraph.from_recorder(recorder)
    analysis = analyze(graph)
    attribution = analysis.attribution()
    return {
        "reconciled": analysis.reconciled(),
        "consistent": analysis.consistent(),
        "critical_cycles": analysis.total,
        "by_kind": attribution["kinds"],
        "tile_critical_cycles": {
            str(tile): cycles
            for tile, cycles in sorted(
                attribution["tile_critical_cycles"].items()
            )
        },
    }


def _run_kernel(config, workload):
    from repro.cpu.core import Core
    from repro.mem.hierarchy import MemorySystem
    from repro.workloads import make_kernel

    recorder = None
    if workload.get("critpath"):
        from repro.critpath import DependencyRecorder

        recorder = DependencyRecorder(config)
    kernel = make_kernel(workload["name"], seed=workload.get("seed", 1))
    memory = MemorySystem(config.mem)
    core = Core(kernel.program, memory, params=config.core,
                engine=workload.get("engine", "auto"), probe=recorder)
    kernel.setup(core)
    outcome = core.run(
        max_instructions=workload.get("max_instructions", 20_000_000)
    )
    if outcome.reason != "halt":
        raise RuntimeError(
            f"kernel {workload['name']!r} did not halt ({outcome.reason})"
        )
    metrics = {
        "cycles": core.cycles,
        "instructions": core.instret,
        "icache_hit_rate": _hit_rate(memory.icache),
        "dcache_hit_rate": _hit_rate(memory.dcache),
        "result_checksum": _checksum(kernel.result(core)),
    }
    if recorder is not None:
        recorder.run_end([core], {core: outcome.reason}, "complete")
        metrics["critpath"] = _critpath_metrics(recorder, core.cycles)
    stats = _kernel_stats(core, memory) if workload.get("telemetry") else None
    return metrics, stats


def ring_programs(num_tiles, token=1, laps=1):
    """Token-ring binaries: ``{tile: program}`` for an N-tile ring.

    Tile 0 injects ``token``, every tile adds its tile id and forwards,
    and after ``laps`` trips tile 0 holds the final value in ``r4``.
    The expected value is :func:`ring_expected`.
    """
    from repro.isa import assemble

    if num_tiles < 2:
        raise ValueError("a ring needs at least two tiles")
    programs = {}
    for tile in range(num_tiles):
        nxt = (tile + 1) % num_tiles
        prev = (tile - 1) % num_tiles
        if tile == 0:
            body = [f"movi r4, {token}"]
            for _ in range(laps):
                body += [
                    f"movi r1, {nxt}",
                    "movi r2, 0x100",
                    "movi r3, 1",
                    "sw   r4, 0(r2)",
                    "send r1, r2, r3",
                    f"movi r1, {prev}",
                    "movi r2, 0x200",
                    "recv r1, r2, r3",
                    "lw   r4, 0(r2)",
                ]
            body.append("halt")
        else:
            body = []
            for _ in range(laps):
                body += [
                    f"movi r1, {prev}",
                    "movi r2, 0x200",
                    "movi r3, 1",
                    "recv r1, r2, r3",
                    "lw   r4, 0(r2)",
                    f"addi r4, r4, {tile}",
                    "movi r2, 0x100",
                    "sw   r4, 0(r2)",
                    f"movi r1, {nxt}",
                    "send r1, r2, r3",
                ]
            body.append("halt")
        programs[tile] = assemble("\n".join(body))
    return programs


def ring_expected(num_tiles, token=1, laps=1):
    """Final token value after ``laps`` trips around the ring."""
    return token + laps * sum(range(1, num_tiles))


def _run_ring(config, workload):
    from repro.probe import combine
    from repro.sim.system import StitchSystem

    token = workload.get("token", 1)
    laps = workload.get("laps", 1)
    stats = None
    recorder = None
    if workload.get("telemetry"):
        from repro.telemetry import Stats

        stats = Stats()
    if workload.get("critpath"):
        from repro.critpath import DependencyRecorder

        recorder = DependencyRecorder(config)
    system = StitchSystem(platform=config, telemetry=combine(stats, recorder),
                          engine=workload.get("engine", "auto"))
    num_tiles = system.mesh.num_tiles
    for tile, program in ring_programs(num_tiles, token, laps).items():
        system.load(tile, program)
    results = system.run()
    metrics = {
        "tiles": num_tiles,
        "makespan": system.makespan(results),
        "total_instructions": sum(r.instructions for r in results),
        "token": system.cores[0].regs[4],
        "token_expected": ring_expected(num_tiles, token, laps),
    }
    if recorder is not None:
        metrics["critpath"] = _critpath_metrics(
            recorder, metrics["makespan"]
        )
    return metrics, stats


def _run_chaos(config, workload):
    """One fault-injection point (see :mod:`repro.chaos.campaign`)."""
    from repro.chaos.campaign import run_chaos_point

    return run_chaos_point(config, workload)


_WORKLOADS = {"kernel": _run_kernel, "ring": _run_ring, "chaos": _run_chaos}


def run_point(point):
    """Execute one sweep point; pure function of the point dict.

    Top-level (picklable) so :class:`ProcessPoolExecutor` can ship it
    to worker processes.  Returns the point's result record; workload
    failures are captured as an ``error`` field rather than raised, so
    one bad point never sinks a whole sweep.
    """
    config = PlatformConfig.from_dict(point["config"])
    workload = point["workload"]
    record = {
        "id": point["id"],
        "config": config.name,
        "workload": dict(workload),
    }
    runner = _WORKLOADS.get(workload.get("kind"))
    try:
        if runner is None:
            raise ValueError(f"unknown workload kind {workload.get('kind')!r}")
        record["metrics"], stats = runner(config, workload)
        if stats is not None:
            # Flat form crosses the process boundary; merged by run_sweep.
            record["stats"] = stats.to_flat()
    except Exception as exc:  # captured, not raised: keep the sweep going
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def run_sweep(points, workers=None):
    """Run every point; returns the merged sweep payload.

    ``workers`` <= 1 (or ``None``) runs serially in-process; anything
    larger fans out over a process pool.  The merged payload lists
    results in the submitted point order either way.
    """
    points = list(points)
    duplicates = sorted(
        {p["id"] for p in points if sum(q["id"] == p["id"] for q in points) > 1}
    )
    if duplicates:
        raise ValueError(f"duplicate sweep point id(s): {duplicates}")
    if workers is not None and workers > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # executor.map preserves input order, so the merge is
            # deterministic no matter which worker finishes first.
            results = list(pool.map(run_point, points))
    else:
        results = [run_point(point) for point in points]
    payload = {
        "schema": SCHEMA_VERSION,
        "points": len(results),
        "errors": sum(1 for r in results if "error" in r),
        "results": results,
    }
    carried = [r["stats"] for r in results if "stats" in r]
    if carried:
        from repro.telemetry import Stats

        total = Stats()
        for flat in carried:  # submission order == results order
            total.merge(flat)
        payload["stats_total"] = total.to_flat()
    return payload


def sweep_to_json(payload):
    """Canonical JSON rendering (what ``--check-serial`` compares)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
