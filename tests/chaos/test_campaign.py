"""Campaign orchestration: classification, determinism, reporting."""

import pytest

from repro.chaos import InjectionPlan
from repro.chaos.campaign import (
    OUTCOMES,
    campaign_points,
    campaign_to_json,
    classify,
    run_campaign,
    run_chaos_point,
)
from repro.platform import DEFAULT_PLATFORM
from repro.verify import check_campaign


class TestClassify:
    def test_loud_failure_wins(self):
        events = [{"kind": "fault"}, {"kind": "recover"}]
        assert classify(events, "DeadlockError: ...", False) == "detected_failed"

    def test_clean_match_without_recovery_is_masked(self):
        assert classify([{"kind": "fault"}], None, True) == "masked"
        assert classify([], None, True) == "masked"

    def test_match_after_recovery(self):
        events = [{"kind": "fault"}, {"kind": "detect"}, {"kind": "recover"}]
        assert classify(events, None, True) == "detected_recovered"

    def test_mismatch_without_detection_is_sdc(self):
        assert classify([{"kind": "fault"}], None, False) == "sdc"

    def test_detected_mismatch_fails_loud_in_classification(self):
        events = [{"kind": "fault"}, {"kind": "detect"}]
        assert classify(events, None, False) == "detected_failed"


class TestPoints:
    def test_round_robin_over_targets(self):
        points = campaign_points(["fir", "fft"], faults=5, seed=10)
        assert [p["workload"]["target"] for p in points] == \
            ["fir", "fft", "fir", "fft", "fir"]
        assert [p["workload"]["seed"] for p in points] == list(range(10, 15))
        assert all(p["workload"]["kind"] == "chaos" for p in points)

    def test_zero_fault_plan_is_masked(self):
        workload = {"kind": "chaos", "target": "fir",
                    "plan": InjectionPlan(name="clean").to_dict()}
        metrics, _ = run_chaos_point(DEFAULT_PLATFORM, workload)
        assert metrics["outcome"] == "masked"
        assert metrics["faults_triggered"] == 0
        assert metrics["events"] == []
        assert metrics["recovery_cycles"] == 0
        assert metrics["output_checksum"] == metrics["golden_checksum"]

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos target"):
            run_chaos_point(DEFAULT_PLATFORM, {"kind": "chaos",
                                               "target": "nope"})

    def test_invalid_site_intersection_rejected(self):
        workload = {"kind": "chaos", "target": "fir", "seed": 1,
                    "sites": ["link"]}  # fabric site, kernel target
        with pytest.raises(ValueError, match="no requested site"):
            run_chaos_point(DEFAULT_PLATFORM, workload)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_hook_free_engine_with_armed_plan_rejected(self, engine):
        # A configuration error, not a detected_failed outcome.
        workload = {"kind": "chaos", "target": "fir", "seed": 1,
                    "faults": 1, "engine": engine}
        with pytest.raises(ValueError, match="fires no probe hooks"):
            run_chaos_point(DEFAULT_PLATFORM, workload)

    def test_hook_free_engine_with_zero_fault_plan_runs(self):
        workload = {"kind": "chaos", "target": "fir", "engine": "fast",
                    "plan": InjectionPlan(name="clean").to_dict()}
        metrics, _ = run_chaos_point(DEFAULT_PLATFORM, workload)
        assert metrics["outcome"] == "masked"


class TestCampaign:
    def run_small(self, **kwargs):
        return run_campaign(["fir"], faults=4, seed=7, **kwargs)

    def test_every_outcome_classified_and_verifiable(self):
        report = self.run_small()
        assert report["errors"] == 0
        for record in report["results"]:
            assert record["metrics"]["outcome"] in OUTCOMES
        tally = report["campaign"]["outcomes"]
        assert sum(tally.values()) == 4
        assert check_campaign(report).ok(strict=True)

    def test_same_seed_same_report(self):
        assert campaign_to_json(self.run_small()) == \
            campaign_to_json(self.run_small())

    def test_parallel_matches_serial_byte_for_byte(self):
        serial = campaign_to_json(self.run_small())
        fanned = campaign_to_json(self.run_small(workers=2))
        assert fanned == serial

    def test_recovery_none_threads_through(self):
        report = run_campaign(["fir"], faults=3, seed=2, recovery="none")
        assert report["campaign"]["recovery"] == "none"
        assert report["campaign"]["recovery_cycles"] == 0
        assert not any(e["kind"] == "recover"
                       for r in report["results"]
                       for e in r["metrics"]["events"])
