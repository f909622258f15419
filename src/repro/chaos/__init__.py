"""Deterministic fault injection and resilience policies.

The chaos layer perturbs a run the way the telemetry layer observes
one: the :class:`Injector` is a :class:`~repro.probe.Probe`, passed as
(or combined into) a system's ``telemetry=`` probe.  An armed injector
observes the core, so ``engine="auto"`` runs the hooked block engine.

* :mod:`repro.chaos.plan` — :class:`InjectionPlan`: the frozen,
  JSON-round-trippable description of what to break (site, trigger,
  payload) and how to recover (:class:`RecoveryParams`).
* :mod:`repro.chaos.injector` — :class:`Injector`: applies one plan to
  one run; logs every fault/detect/recover event into telemetry.
* :mod:`repro.chaos.recovery` — graceful degradation (plan remap) and
  campaign target introspection.  Imported explicitly, not from here:
  it pulls in the simulator stack, which imports this package.
* :mod:`repro.chaos.campaign` — seeded campaigns over kernels and apps
  with differential masked / detected_recovered / detected_failed /
  sdc classification (``repro chaos``).  Also imported explicitly.
"""

from repro.chaos.injector import (
    ChannelCorruptionError,
    ChaosError,
    CixStallError,
    Injector,
)
from repro.chaos.plan import (
    CORE_SITES,
    FABRIC_SITES,
    SITES,
    Fault,
    InjectionPlan,
    InjectionPlanError,
    RecoveryParams,
    random_fault,
    random_plan,
)

__all__ = [
    "CORE_SITES",
    "FABRIC_SITES",
    "SITES",
    "ChannelCorruptionError",
    "ChaosError",
    "CixStallError",
    "Fault",
    "InjectionPlan",
    "InjectionPlanError",
    "Injector",
    "RecoveryParams",
    "random_fault",
    "random_plan",
]
