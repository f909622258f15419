"""Property: the PC profiler is an exact twin of cycle attribution.

The acceptance check for the profiler layer: for any kernel, on any
slice schedule, the retired-cycle histogram sums to ``core.cycles``
*exactly* — and on a full 16-tile stitched application every tile's
profile reconciles with the SystemStats roll-up while the interval
samples re-sum to the end-of-run totals.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import ATTRIBUTION_BUCKETS, Core, STOP_HALT, STOP_LIMIT
from repro.mem import MemorySystem
from repro.probe import combine
from repro.profile import CycleProfile, PCProfiler, profile_kernel_cycles
from repro.sim.baselines import ARCH_STITCH, AppEvaluator
from repro.telemetry import Telemetry, TimeSeries
from repro.verify import check_profile, check_profile_run, check_timeseries
from repro.workloads import make_kernel
from repro.workloads.apps import app4_transport

# Same structural spread as the attribution property tests.
KERNEL_NAMES = ("2dconv", "dtw", "aes")


def assert_reconciled(core):
    profile = CycleProfile.from_core(core)
    assert profile.profiled_cycles() == core.cycles, (
        f"profiler drifted: {profile.profiled_cycles()} != {core.cycles}"
    )
    assert profile.retired_instructions() == core.instret
    assert check_profile(profile).ok(strict=True)
    return profile


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_kernel_profile_reconciles_exactly(name):
    profile, core = profile_kernel_cycles(name, seed=3)
    assert profile.reconciles()
    assert profile.profiled_cycles() == core.cycles
    # The profiler and the attribution counters describe the same run.
    attribution = core.attribution()
    assert sum(attribution[b] for b in ATTRIBUTION_BUCKETS) == (
        profile.profiled_cycles()
    )
    # Block folding loses nothing either.
    assert sum(b.cycles for b in profile.blocks) == core.cycles
    assert sum(b.retired for b in profile.blocks) == core.instret


@settings(max_examples=10, deadline=None)
@given(
    name=st.sampled_from(KERNEL_NAMES),
    seed=st.integers(min_value=1, max_value=50),
    slice_size=st.integers(min_value=997, max_value=100_000),
)
def test_profile_invariant_under_any_slicing(name, seed, slice_size):
    """Stopping and resuming the core at arbitrary points never loses
    a profiled cycle: the histogram stays exact at every pause."""
    kernel = make_kernel(name, seed=seed)
    core = Core(kernel.program, MemorySystem.stitch(), probe=PCProfiler())
    kernel.setup(core)
    for _ in range(3_000_000 // slice_size + 2):
        outcome = core.run(max_instructions=slice_size)
        assert_reconciled(core)
        if outcome.reason != STOP_LIMIT:
            break
    assert outcome.reason == STOP_HALT


@pytest.fixture(scope="module")
def app_run():
    evaluator = AppEvaluator(app4_transport())
    telemetry = Telemetry(timeseries=TimeSeries(interval=512))
    system, _ = evaluator.build_system(
        ARCH_STITCH, items=2, telemetry=combine(telemetry, PCProfiler())
    )
    results = system.run()
    profiles = {
        core.core_id: CycleProfile.from_core(core)
        for core in system.cores
        if core is not None
    }
    return profiles, results, telemetry.timeseries


class TestStitchedApp:
    def test_every_tile_reconciles(self, app_run):
        profiles, results, _ts = app_run
        assert len(profiles) == 16
        for result in results:
            profile = profiles[result.tile]
            assert profile.reconciles()
            assert profile.profiled_cycles() == result.cycles

    def test_profiles_match_stats_rollup(self, app_run):
        profiles, results, _ts = app_run
        tiles = results.stats.tiles
        for tile, profile in profiles.items():
            assert profile.profiled_cycles() == tiles[tile]["total"]
        assert check_profile_run(profiles, results).ok(strict=True)

    def test_interval_samples_resum_to_totals(self, app_run):
        """Acceptance: per-interval cycle sums equal end-of-run totals."""
        profiles, results, ts = app_run
        assert check_timeseries(ts).ok(strict=True)
        for result in results:
            totals = ts.tile_totals(result.tile)
            assert totals["cycles"] == result.cycles
            assert totals["instructions"] == result.instructions
            indices = [index for index, _ in ts.tile_series(result.tile)]
            assert indices == sorted(set(indices))  # strictly increasing
