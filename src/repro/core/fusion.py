"""Fused-patch configurations and the single-cycle timing rule.

Two patches are stitched by configuring the inter-patch NoC so the
first patch's outputs are delivered to the second patch's operand
inputs, and the final results return to the origin tile's register
file, all within one clock (Section III-B).  The ns-level path model
reproduces the paper's critical-path arithmetic (Table IV)::

    delay = 3 x switch + delay(A) + delay(B)
            + 2 x hops x (wire + switch)

which gives 4.63 ns for {AT-MA, AT-AS} three hops apart — the chip's
critical path, setting the 200 MHz clock.
"""

from repro.core.config import PatchConfig
from repro.platform import DEFAULT_PLATFORM

# Table IV / Section VI-D numbers — derived compatibility aliases; the
# values themselves live in repro.platform's presets.
SWITCH_DELAY_NS = DEFAULT_PLATFORM.fabric.switch_delay_ns
WIRE_DELAY_PER_HOP_NS = DEFAULT_PLATFORM.fabric.wire_delay_per_hop_ns
CLOCK_NS = DEFAULT_PLATFORM.fabric.clock_ns          # 200 MHz
MAX_FUSION_HOPS = DEFAULT_PLATFORM.fabric.max_fusion_hops
# (Manhattan distance between stitched tiles; the operands traverse
# <= 2 * MAX_FUSION_HOPS link hops round trip — the paper's <= 6 rule.)

# Sources selectable for the fused pair's external wiring.
A_OUT0 = "a_out0"
A_OUT1 = "a_out1"
B_OUT0 = "b_out0"
B_OUT1 = "b_out1"
_B_EXT_CHOICES = ("ext0", "ext1", "ext2", "ext3", A_OUT0, A_OUT1)
_OUT_CHOICES = (A_OUT0, A_OUT1, B_OUT0, B_OUT1)


class FusionTiming:
    """Critical-path arithmetic for single and fused patches.

    The class attributes carry the stitch preset's fabric delays;
    :meth:`configured` derives a timing class for any other
    :class:`repro.platform.FabricParams` (every classmethod below works
    unchanged on the derived class).
    """

    switch_ns = SWITCH_DELAY_NS
    wire_ns = WIRE_DELAY_PER_HOP_NS
    clock_ns = CLOCK_NS

    @classmethod
    def configured(cls, fabric):
        """A timing class bound to another fabric's delays."""
        return type(
            f"FusionTiming_{id(fabric):x}", (cls,),
            {
                "switch_ns": fabric.switch_delay_ns,
                "wire_ns": fabric.wire_delay_per_hop_ns,
                "clock_ns": fabric.clock_ns,
            },
        )

    @classmethod
    def single_delay(cls, ptype):
        """Single patch incl. NoC overhead: 2 switch traversals."""
        return 2 * cls.switch_ns + ptype.delay_ns

    @classmethod
    def fused_delay(cls, ptype_a, ptype_b, hops):
        """Fused pair ``hops`` apart (each direction)."""
        if hops < 1:
            raise ValueError("fused patches must be at least one hop apart")
        transit = hops * (cls.wire_ns + cls.switch_ns)
        return 3 * cls.switch_ns + ptype_a.delay_ns + ptype_b.delay_ns + 2 * transit

    @classmethod
    def fits_single_cycle(cls, delay_ns):
        return delay_ns <= cls.clock_ns + 1e-9

    @classmethod
    def max_fused_delay(cls):
        """Worst delay over all type pairs at the hop limit."""
        from repro.core.patches import PATCH_TYPES

        return max(
            cls.fused_delay(a, b, MAX_FUSION_HOPS)
            for a in PATCH_TYPES.values()
            for b in PATCH_TYPES.values()
        )


class FusedConfig:
    """A validated fused-pair configuration.

    ``b_ext`` wires each of patch B's four external operand slots to an
    original operand (``ext0..3``) or to one of patch A's outputs.
    ``outs`` names the (up to two) values written back to the origin
    register file.  ``remote_tile``, when set, names the tile whose
    scratchpad the B half's LMAU uses; the mapper leaves it None (the
    stitcher records the partner tile in ``Assignment.remote_tile``).
    """

    def __init__(self, cfg_a, cfg_b, b_ext, outs, remote_tile=None):
        if not isinstance(cfg_a, PatchConfig) or not isinstance(cfg_b, PatchConfig):
            raise TypeError("fused halves must be PatchConfig instances")
        b_ext = tuple(b_ext)
        outs = tuple(outs)
        if len(b_ext) != 4:
            raise ValueError("b_ext must wire all four operand slots")
        for source in b_ext:
            if source not in _B_EXT_CHOICES:
                raise ValueError(f"illegal B operand source: {source}")
        if not 1 <= len(outs) <= 2:
            raise ValueError("a custom instruction writes one or two outputs")
        for source in outs:
            if source not in _OUT_CHOICES:
                raise ValueError(f"illegal output source: {source}")
        self.cfg_a = cfg_a
        self.cfg_b = cfg_b
        self.b_ext = b_ext
        self.outs = outs
        self.remote_tile = remote_tile

    def control_bits(self):
        """The 38-bit control word carried by the inter-patch link."""
        return self.cfg_a.encode() | (self.cfg_b.encode() << 19)

    def type_pair(self):
        return self.cfg_a.ptype, self.cfg_b.ptype

    def delay_ns(self, hops):
        return FusionTiming.fused_delay(self.cfg_a.ptype, self.cfg_b.ptype, hops)

    def validate_placement(self, hops):
        """Check the paper's stitching rules for a candidate placement."""
        if hops > MAX_FUSION_HOPS:
            raise ValueError(
                f"stitched patches {hops} hops apart exceed the "
                f"{MAX_FUSION_HOPS}-hop limit"
            )
        delay = self.delay_ns(hops)
        if not FusionTiming.fits_single_cycle(delay):
            raise ValueError(
                f"fused path {delay:.2f} ns misses the "
                f"{FusionTiming.clock_ns:.2f} ns clock"
            )

    def ext_slots_used(self):
        """Original operand slots consumed by either half."""
        used = set(self.cfg_a.ext_slots_used())
        for slot, source in enumerate(self.b_ext):
            if source.startswith("ext") and slot in set(self.cfg_b.ext_slots_used()):
                used.add(int(source[3]))
        return sorted(used)

    def __repr__(self):
        return (
            f"FusedConfig({{{self.cfg_a.ptype.name}, {self.cfg_b.ptype.name}}}, "
            f"outs={self.outs})"
        )
