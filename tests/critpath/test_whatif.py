"""What-if parsing and logical-clock replay."""

import pytest

from repro.critpath import (
    DependencyRecorder,
    WhatIfError,
    WhatIfInfeasible,
    WhatIfSpec,
    project,
)
from repro.critpath.recorder import KIND_SEND
from repro.critpath.runner import (
    record_kernel,
    record_system,
    validate_whatif,
)
from repro.sim import StitchSystem
from repro.sweep.runner import ring_programs


def recorded_ring(laps=2):
    telemetry = recorder = DependencyRecorder()
    system = StitchSystem(telemetry=telemetry)
    for tile, program in ring_programs(4, laps=laps).items():
        system.load(tile, program)
    return record_system("ring4", system, recorder)


def recorded_handshake(words=4):
    """One multi-word producer -> consumer message (for capacity tests)."""
    from repro.isa import assemble

    stores = "\n".join(f"sw r4, {4 * i}(r2)" for i in range(words))
    producer = assemble(f"""
        movi r1, 1
        movi r2, 0x100
        movi r3, {words}
        movi r4, 9
        {stores}
        send r1, r2, r3
        halt
    """)
    consumer = assemble(f"""
        movi r1, 0
        movi r2, 0x200
        movi r3, {words}
        recv r1, r2, r3
        halt
    """)
    telemetry = recorder = DependencyRecorder()
    system = StitchSystem(telemetry=telemetry)
    system.load(0, producer)
    system.load(1, consumer)
    return record_system("handshake", system, recorder)


class TestParsing:
    def test_scale_and_set_clauses(self):
        spec = WhatIfSpec.parse(
            ["compute*0.5", "tile3.compute*2", "dram_latency=60",
             "link_latency*2", "drain*0.5", "cix*1.5",
             "channel_capacity=64"]
        )
        assert spec.compute_scale == 0.5
        assert spec.tile_compute_scale == {3: 2.0}
        assert spec.dram == ("=", 60.0)
        assert spec.link_scale == 2.0
        assert spec.drain_scale == 0.5
        assert spec.cix_scale == 1.5
        assert spec.channel_capacity == 64

    def test_whitespace_tolerated(self):
        spec = WhatIfSpec.parse(["dram_latency * 2"])
        assert spec.dram == ("*", 2.0)

    @pytest.mark.parametrize("expression", [
        "nonsense",                 # no operator
        "compute/2",                # unsupported operator
        "compute*lots",             # non-numeric value
        "compute*-1",               # negative factor
        "tile3.compute=5",          # tiles only scale
        "channel_capacity=0",       # capacity must be >= 1
        "channel_capacity=2.5",     # capacity must be integral
        "warp_drive*9",             # unknown target
    ])
    def test_malformed_expressions_raise(self, expression):
        with pytest.raises(WhatIfError):
            WhatIfSpec.parse([expression])

    def test_error_names_supported_targets(self):
        with pytest.raises(WhatIfError, match="dram_latency"):
            WhatIfSpec.parse(["warp_drive*9"])


class TestReplay:
    def test_identity_reproduces_baseline(self):
        run = recorded_ring()
        for identity in ([], ["compute*1"], ["link_latency*1"]):
            projection = project(run.graph, identity)
            assert projection["projected_cycles"] == run.measured

    def test_compute_scaling_moves_makespan(self):
        run = recorded_ring()
        faster = project(run.graph, ["compute*0.5"])
        slower = project(run.graph, ["compute*2"])
        assert faster["projected_cycles"] < run.measured
        assert slower["projected_cycles"] > run.measured
        assert slower["speedup"] < 1.0 < faster["speedup"]

    def test_tile_scaling_targets_one_tile(self):
        run = recorded_ring()
        projection = project(run.graph, ["tile1.compute*0.5"])
        per_tile = projection["per_tile"]
        assert per_tile["1"]["projected"] < per_tile["1"]["baseline"]

    def test_link_scaling_slows_cross_tile_paths(self):
        run = recorded_ring()
        slower = project(run.graph, ["link_latency*4"])
        assert slower["projected_cycles"] > run.measured

    def test_capacity_at_message_size_matches_baseline(self):
        run = recorded_ring()
        largest = max(r.words for r in run.graph.records
                      if r.kind == KIND_SEND)
        # The ring is a strict handshake: channels never hold more than
        # one message, so a capacity that fits one is no constraint.
        projection = project(run.graph,
                             [f"channel_capacity={largest}"])
        assert projection["projected_cycles"] == run.measured

    def test_capacity_below_message_size_is_infeasible(self):
        # Sends inject atomically, so a 1-word buffer can never hold a
        # 4-word message: no schedule exists, and the replay must say
        # so instead of producing a bogus number.
        run = recorded_handshake(words=4)
        largest = max(r.words for r in run.graph.records
                      if r.kind == KIND_SEND)
        assert largest == 4
        with pytest.raises(WhatIfInfeasible):
            project(run.graph, ["channel_capacity=1"])

    def test_dram_whatif_needs_platform_metadata(self):
        run = recorded_ring()
        run.graph.meta.pop("dram_latency", None)
        with pytest.raises(WhatIfError, match="dram_latency"):
            project(run.graph, ["dram_latency*2"])


class TestValidation:
    def test_kernel_dram_whatif_matches_rerun_exactly(self):
        run = record_kernel("fir")
        comparison = validate_whatif(run, ["dram_latency*2"])
        assert comparison["projected_cycles"] == comparison["actual_cycles"]
        assert comparison["drift"] == 0.0
        assert comparison["within_2pct"]

    def test_validate_rejects_non_platform_whatifs(self):
        run = record_kernel("fir")
        with pytest.raises(WhatIfError, match="dram_latency"):
            validate_whatif(run, ["compute*0.5"])
