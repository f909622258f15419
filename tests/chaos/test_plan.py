"""InjectionPlan: validation, serialization, seeded determinism."""

import pytest

from repro.chaos import (
    CORE_SITES,
    SITES,
    Fault,
    InjectionPlan,
    InjectionPlanError,
    RecoveryParams,
    random_plan,
)


class TestFault:
    def test_compact_dict_omits_defaults(self):
        fault = Fault("reg", tile=3, cycle=100, reg=5, bit=7)
        payload = fault.to_dict()
        assert payload == {"site": "reg", "tile": 3, "cycle": 100,
                           "reg": 5, "bit": 7}
        assert Fault.from_dict(payload) == fault

    def test_unknown_field_rejected(self):
        with pytest.raises(InjectionPlanError, match="unknown Fault"):
            Fault.from_dict({"site": "reg", "bogus": 1})

    @pytest.mark.parametrize("fault, code", [
        (Fault("meteor"), "C001"),
        (Fault("reg", bit=32), "C002"),
        (Fault("reg", tile=-1), "C003"),
        (Fault("spm", addr=0x1001), "C004"),
        (Fault("link", src=-1), "C003"),
        (Fault("link", delay=-5), "C003"),
        (Fault("reg", reg=0), "C003"),  # r0 is hardwired zero
        (Fault("reg", reg=16), "C003"),
        (Fault("reg", reg=-1), "C003"),
    ])
    def test_site_validation(self, fault, code):
        codes = [c for c, _, _ in fault.issues("fault[0]")]
        assert code in codes


class TestRecoveryParams:
    def test_presets(self):
        full = RecoveryParams.full()
        assert full.ecc and full.remap
        assert full.recv_timeout > 0 and full.max_retries > 0
        none = RecoveryParams.none()
        assert not none.ecc and not none.remap
        assert none.recv_timeout == 0 and none.max_retries == 0

    def test_negative_rejected(self):
        plan = InjectionPlan(
            faults=(Fault("reg"),),
            recovery=RecoveryParams(recv_timeout=-1),
        )
        with pytest.raises(InjectionPlanError, match="recv_timeout"):
            plan.validate()


class TestInjectionPlan:
    def test_round_trip_json(self):
        plan = random_plan(seed=11, n_faults=5, recovery=RecoveryParams.full())
        again = InjectionPlan.from_json(plan.to_json())
        assert again == plan

    def test_unarmed_plan(self):
        plan = InjectionPlan(name="quiet")
        assert not plan.armed
        assert InjectionPlan.from_json(plan.to_json()) == plan

    def test_unknown_plan_field_rejected(self):
        with pytest.raises(InjectionPlanError, match="unknown InjectionPlan"):
            InjectionPlan.from_dict({"name": "x", "faults": [], "extra": 1})

    def test_by_site(self):
        plan = InjectionPlan(faults=(
            Fault("reg"), Fault("link", src=0, dst=1), Fault("spm"),
        ))
        assert len(plan.by_site("reg", "spm")) == 2
        assert len(plan.by_site("link")) == 1


class TestRandomPlan:
    def test_seeded_determinism(self):
        a = random_plan(seed=99, n_faults=10)
        b = random_plan(seed=99, n_faults=10)
        assert a == b
        c = random_plan(seed=100, n_faults=10)
        assert a != c

    def test_sites_respected(self):
        plan = random_plan(seed=1, n_faults=20, sites=CORE_SITES)
        assert {f.site for f in plan.faults} <= set(CORE_SITES)

    def test_cix_needs_sites(self):
        # Without reachable cix sites, cix never drawn even if requested.
        plan = random_plan(seed=1, n_faults=20, sites=SITES)
        assert "cix" not in {f.site for f in plan.faults}
        sited = random_plan(seed=1, n_faults=20, sites=("cix",),
                            cix_sites=[(3, 2)])
        assert all(f.site == "cix" and (f.tile, f.cfg) == (3, 2)
                   for f in sited.faults)

    def test_channels_aim_fabric_faults(self):
        plan = random_plan(seed=4, n_faults=20, sites=("link", "channel"),
                           channels=[(0, 5), (5, 9)])
        assert plan.faults
        assert {(f.src, f.dst) for f in plan.faults} <= {(0, 5), (5, 9)}

    def test_all_plans_validate(self):
        for seed in range(25):
            random_plan(seed=seed, n_faults=4).validate()
