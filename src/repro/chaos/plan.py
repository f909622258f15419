"""Fault-injection plans: what to break, where, and how to recover.

An :class:`InjectionPlan` is the frozen, JSON-round-trippable
description of one perturbed run — a tuple of :class:`Fault` records
plus the :class:`RecoveryParams` governing detection and repair.  Like
:class:`repro.platform.PlatformConfig` it validates itself
(:meth:`issues` / :meth:`validate`), serializes to a plain dict, and
reconstructs bit-identically from that dict, so campaign reports carry
their full provenance and a seeded campaign is reproducible from its
JSON alone.

Fault sites (``Fault.site``):

``reg``
    Flip bit ``bit`` of register ``reg`` (1..15: r0 is hardwired zero)
    on ``tile`` at the first injector boundary at or after ``cycle``.
``spm`` / ``dram``
    Flip bit ``bit`` of the word at ``addr`` in the tile's scratchpad /
    private DRAM at ``cycle`` (architectural perturbation, untimed).
``freeze``
    The core on ``tile`` stops retiring instructions at ``cycle`` and
    never resumes (a hung tile; peers must detect it).
``cix``
    The (possibly fused) patch configuration ``cfg`` on ``tile`` is
    broken: executing it raises :class:`~repro.chaos.CixStallError`.
``link``
    The ``index``-th message injected on the directed tile pair
    ``src -> dst``: with ``delay > 0`` its arrival is late by that many
    cycles (a retransmitted flit); with ``delay == 0`` the payload is
    dropped on the floor (the NoC still burns the cycles, the words
    never arrive).
``channel``
    Flip bit ``bit`` of word ``word`` of the ``index``-th message on
    the MPI channel ``src -> dst`` (corruption in flight, caught by the
    checksum side-band when recovery is on).

Triggers are exact and deterministic: the same plan over the same
workload injects at the same simulated cycle/message every time, on
every execution engine.
"""

import dataclasses
import json
import random

SITES = ("reg", "spm", "dram", "freeze", "cix", "link", "channel")

#: Sites triggered by a core-local cycle boundary.
CORE_SITES = ("reg", "spm", "dram", "freeze")
#: Sites triggered by fabric traffic on a directed tile pair.
FABRIC_SITES = ("link", "channel")


class InjectionPlanError(ValueError):
    """An :class:`InjectionPlan` (or one of its faults) is inconsistent."""


@dataclasses.dataclass(frozen=True)
class Fault:
    """One injected fault; field meaning depends on ``site`` (see module
    docstring).  Unused fields stay at their defaults so every fault
    serializes with the same compact shape."""

    site: str
    tile: int = 0
    cycle: int = 0
    reg: int = 1
    addr: int = 0
    bit: int = 0
    cfg: int = 0
    src: int = 0
    dst: int = 0
    index: int = 0
    word: int = 0
    delay: int = 0

    def issues(self, loc):
        found = []
        if self.site not in SITES:
            found.append(("C001", loc, f"unknown fault site {self.site!r}"))
            return found
        if not 0 <= self.bit < 32:
            found.append(("C002", loc, f"bit {self.bit} outside 0..31"))
        if self.tile < 0:
            found.append(("C003", loc, f"negative tile {self.tile}"))
        if self.cycle < 0:
            found.append(("C003", loc, f"negative trigger cycle {self.cycle}"))
        if self.site == "reg" and not 1 <= self.reg < 16:
            found.append(("C003", loc, f"register r{self.reg} outside "
                                       "r1..r15 (r0 is hardwired zero)"))
        if self.site in ("spm", "dram") and self.addr % 4:
            found.append(
                ("C004", loc, f"unaligned word address {self.addr:#x}")
            )
        if self.site in FABRIC_SITES:
            if self.src < 0 or self.dst < 0:
                found.append(("C003", loc, "negative src/dst tile"))
            if self.index < 0:
                found.append(("C003", loc, f"negative index {self.index}"))
        if self.site == "link" and self.delay < 0:
            found.append(("C003", loc, f"negative delay {self.delay}"))
        return found

    def to_dict(self):
        payload = {"site": self.site}
        for field in dataclasses.fields(Fault):
            if field.name == "site":
                continue
            value = getattr(self, field.name)
            if value != field.default:
                payload[field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload):
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise InjectionPlanError(f"unknown Fault field(s): {unknown}")
        return cls(**payload)


@dataclasses.dataclass(frozen=True)
class RecoveryParams:
    """Detection & repair policy knobs.

    ``recv_timeout``
        Watchdog deadline (simulated cycles) on a blocked RECV; 0
        disables the watchdog and leaves only round-end deadlock
        detection.
    ``max_retries`` / ``retry_backoff``
        Bounded retransmission of corrupted channel words via the
        checksum side-band: attempt *i* costs ``retry_backoff * 2**(i-1)``
        receiver cycles; more corrupted words than retries fails loud.
        ``max_retries == 0`` disables the side-band entirely (corrupted
        words are delivered silently).
    ``ecc``
        Scrub-on-trigger ECC over register file, SPM and DRAM: a bit
        flip is detected and corrected at its injection boundary for
        ``ecc_penalty`` core cycles.
    ``remap``
        Graceful degradation: re-stitch the application plan around a
        failed fused unit using the alternatives the stitcher recorded.
    """

    recv_timeout: int = 0
    max_retries: int = 0
    retry_backoff: int = 0
    ecc: bool = False
    ecc_penalty: int = 12
    remap: bool = False

    @classmethod
    def full(cls):
        """Every policy armed (the campaign's recovery-on mode)."""
        return cls(recv_timeout=50_000, max_retries=3, retry_backoff=16,
                   ecc=True, remap=True)

    @classmethod
    def none(cls):
        """Every policy disarmed (faults land unmitigated)."""
        return cls()

    def issues(self, loc):
        found = []
        for name in ("recv_timeout", "max_retries", "retry_backoff",
                     "ecc_penalty"):
            if getattr(self, name) < 0:
                found.append(("C005", loc, f"negative {name}"))
        return found

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload):
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise InjectionPlanError(
                f"unknown RecoveryParams field(s): {unknown}"
            )
        return cls(**payload)


@dataclasses.dataclass(frozen=True)
class InjectionPlan:
    """A named, seeded set of faults plus the recovery policy."""

    name: str = "plan"
    seed: int = 0
    faults: tuple = ()
    recovery: RecoveryParams = dataclasses.field(
        default_factory=RecoveryParams
    )

    @property
    def armed(self):
        """True when the plan injects anything at all.

        An unarmed plan must leave every run bit-identical to a clean
        one (rule V1101) — in particular the fast execution engine
        stays eligible.
        """
        return bool(self.faults)

    def by_site(self, *sites):
        return tuple(f for f in self.faults if f.site in sites)

    def issues(self):
        """All inconsistencies as ``(code, loc, message)`` tuples."""
        found = []
        if not self.name:
            found.append(("C006", "plan", "empty plan name"))
        for i, fault in enumerate(self.faults):
            found.extend(fault.issues(f"fault[{i}]"))
        found.extend(self.recovery.issues("recovery"))
        return found

    def validate(self):
        issues = self.issues()
        if issues:
            detail = "; ".join(f"{loc}: {msg}" for _, loc, msg in issues)
            raise InjectionPlanError(
                f"invalid injection plan {self.name!r}: {detail}"
            )
        return self

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [fault.to_dict() for fault in self.faults],
            "recovery": self.recovery.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload, validate=True):
        known = {"name", "seed", "faults", "recovery"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise InjectionPlanError(
                f"unknown InjectionPlan field(s): {unknown}"
            )
        plan = cls(
            name=payload.get("name", "plan"),
            seed=payload.get("seed", 0),
            faults=tuple(
                Fault.from_dict(f) for f in payload.get("faults", ())
            ),
            recovery=RecoveryParams.from_dict(payload.get("recovery", {})),
        )
        return plan.validate() if validate else plan

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text, validate=True):
        return cls.from_dict(json.loads(text), validate=validate)


def random_fault(rng, sites, tiles=16, max_cycle=20_000,
                 spm_base=0x1000_0000, spm_bytes=4096, dram_words=256,
                 cix_sites=(), channels=()):
    """Draw one deterministic :class:`Fault` from ``rng``.

    ``cix_sites`` is the list of real ``(tile, cfg)`` pairs a stitched
    application actually executes (see
    :func:`repro.chaos.recovery.fused_sites`); ``cix`` draws land on
    one of them so the fault is guaranteed to be reachable.  Likewise
    ``channels`` — real communicating ``(src, dst)`` tile pairs — aims
    link/channel faults at traffic that actually flows (without it they
    land on uniformly random pairs and mostly stay untriggered).
    """
    site = rng.choice([s for s in sites if s != "cix" or cix_sites])
    tile = rng.randrange(tiles)
    cycle = rng.randrange(max_cycle)
    bit = rng.randrange(32)
    if site == "reg":
        return Fault("reg", tile=tile, cycle=cycle, bit=bit,
                     reg=rng.randrange(1, 16))
    if site == "spm":
        addr = spm_base + 4 * rng.randrange(spm_bytes // 4)
        return Fault("spm", tile=tile, cycle=cycle, bit=bit, addr=addr)
    if site == "dram":
        return Fault("dram", tile=tile, cycle=cycle, bit=bit,
                     addr=4 * rng.randrange(dram_words))
    if site == "freeze":
        return Fault("freeze", tile=tile, cycle=cycle)
    if site == "cix":
        tile, cfg = cix_sites[rng.randrange(len(cix_sites))]
        return Fault("cix", tile=tile, cfg=cfg)
    if channels:
        src, dst = channels[rng.randrange(len(channels))]
    else:
        src = rng.randrange(tiles)
        dst = rng.randrange(tiles)
    index = rng.randrange(4)
    if site == "link":
        delay = rng.choice([0, rng.randrange(1, 64)])
        return Fault("link", src=src, dst=dst, index=index, delay=delay)
    return Fault("channel", src=src, dst=dst, index=index,
                 word=rng.randrange(8), bit=bit)


def random_plan(seed, n_faults=1, sites=SITES, name=None, recovery=None,
                **kwargs):
    """A deterministic seeded plan: same arguments ⇒ identical plan."""
    rng = random.Random(seed)
    faults = tuple(
        random_fault(rng, sites, **kwargs) for _ in range(n_faults)
    )
    return InjectionPlan(
        name=name if name is not None else f"random-{seed}",
        seed=seed,
        faults=faults,
        recovery=recovery if recovery is not None else RecoveryParams(),
    ).validate()
