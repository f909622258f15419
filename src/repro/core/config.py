"""The 19-bit per-patch control encoding.

Each custom instruction carries 19 control bits per patch (Section
III-A; a fused pair needs 38, matching the inter-patch NoC's 38 control
wires).  The concrete field layout used by this reproduction, LSB
first::

    [ 0: 3]  u0 op       0 = bypass, 1..7 = FIRST_ALU_OPS index + 1
    [ 3: 5]  u0 in1      external operand select (ext0..ext3)
    [ 5: 7]  u0 in2      external operand select
    [ 7: 9]  T mode      0 off | 1 load (addr = chain)
                         | 2 store (addr = ext2, data = chain)
                         | 3 store (addr = chain, data = ext3)
    [ 9:11]  u2 op       0 = bypass, 1..3 = unit-2 op menu index + 1
    [11]     u2 in1      0 = chain, 1 = ext2
    [12:14]  u2 in2      0 = chain, 1..3 = ext1..ext3
    [14:16]  u3 op       0 = bypass, 1..3 = unit-3 op menu index + 1
    [16]     u3 in1      0 = chain, 1 = ext2
    [17:19]  u3 in2      0 = chain, 1..3 = ext1..ext3

Total: 19 bits exactly.  The *chain* wire carries the most recent
active unit's output (defaulting to ext0 when nothing has produced a
value yet); bypassed units are transparent.
"""

import enum

from repro.core.units import Source
from repro.core.patches import PatchType

CONTROL_BITS = 19


class TMode(enum.IntEnum):
    """LMAU operating mode (2-bit field)."""

    OFF = 0
    LOAD = 1                # result = SPM[chain]
    STORE_DATA_CHAIN = 2    # SPM[ext2] = chain
    STORE_ADDR_CHAIN = 3    # SPM[chain] = ext3


class UnitConfig:
    """Configuration of one compute unit: op + operand sources."""

    __slots__ = ("op", "in1", "in2")

    def __init__(self, op, in1, in2):
        self.op = op
        self.in1 = in1
        self.in2 = in2

    def __repr__(self):
        return f"UnitConfig({self.op.value}, {self.in1}, {self.in2})"

    def __eq__(self, other):
        return (
            isinstance(other, UnitConfig)
            and (self.op, self.in1, self.in2) == (other.op, other.in1, other.in2)
        )

    def __hash__(self):
        return hash((self.op, self.in1, self.in2))


class PatchConfig:
    """A complete, validated single-patch configuration."""

    def __init__(self, ptype, u0=None, t=TMode.OFF, u2=None, u3=None, u1=None):
        if not isinstance(ptype, PatchType):
            raise TypeError("ptype must be a PatchType")
        self.ptype = ptype
        self.u0 = u0
        self.t = TMode(t)
        self.u1 = u1
        self.u2 = u2
        self.u3 = u3
        self._validate()

    def _validate(self):
        if self.ptype.has_lmau:
            if self.u1 is not None:
                raise ValueError(
                    f"{self.ptype.name} position 1 is the LMAU; use t=..."
                )
        else:
            if self.t is not TMode.OFF:
                raise ValueError(f"{self.ptype.name} has no LMAU")
        if (
            self.u0 is None and self.t is TMode.OFF and self.u1 is None
            and self.u2 is None and self.u3 is None
        ):
            raise ValueError("configuration activates no unit")
        for position, unit_cfg in (
            (0, self.u0), (1, self.u1), (2, self.u2), (3, self.u3)
        ):
            if unit_cfg is None:
                continue
            spec = self.ptype.unit(position)
            if not spec.allows_op(unit_cfg.op):
                raise ValueError(
                    f"unit {position} of {self.ptype.name} cannot compute "
                    f"{unit_cfg.op.value} (menu: {[o.value for o in spec.ops]})"
                )
            if unit_cfg.in1 not in spec.in1_choices:
                raise ValueError(
                    f"unit {position} in1 cannot select {unit_cfg.in1}"
                )
            if unit_cfg.in2 not in spec.in2_choices:
                raise ValueError(
                    f"unit {position} in2 cannot select {unit_cfg.in2}"
                )

    # -- queries -----------------------------------------------------------

    def active_positions(self):
        positions = []
        if self.u0 is not None:
            positions.append(0)
        if self.t is not TMode.OFF or self.u1 is not None:
            positions.append(1)
        if self.u2 is not None:
            positions.append(2)
        if self.u3 is not None:
            positions.append(3)
        return positions

    def unit_config(self, position):
        """The compute UnitConfig at ``position`` (None for LMAU/bypass)."""
        return (self.u0, self.u1, self.u2, self.u3)[position]

    def uses_lmau(self):
        return self.t is not TMode.OFF

    def signature(self):
        """Active unit-kind string, e.g. ``AT`` or ``AS``."""
        kinds = self.ptype.kinds()
        return "".join(kinds[p].value for p in self.active_positions())

    def ext_slots_used(self):
        """Indices of external operand slots this config reads."""
        used = set()
        for unit_cfg in (self.u0, self.u1, self.u2, self.u3):
            if unit_cfg is None:
                continue
            for source in (unit_cfg.in1, unit_cfg.in2):
                if Source.is_ext(source):
                    used.add(Source.ext_index(source))
        if self.t is TMode.STORE_DATA_CHAIN:
            used.add(2)
        if self.t is TMode.STORE_ADDR_CHAIN:
            used.add(3)
        # The chain wire carries ext0 until a unit drives it, so the
        # first active unit reads ext0 when it is the LMAU (every T mode
        # consumes the chain for addr or data) or reads the chain.
        first = self.active_positions()[0]
        unit_cfg = self.unit_config(first)
        if unit_cfg is None or Source.CHAIN in (unit_cfg.in1, unit_cfg.in2):
            used.add(0)
        return sorted(used)

    # -- encoding ------------------------------------------------------------

    def encode(self):
        """Pack into the 19-bit control word (AT-prefix patches only)."""
        if not self.ptype.has_lmau:
            raise ValueError(
                f"{self.ptype.name} does not use the 19-bit Stitch encoding"
            )
        bits = 0

        def put(value, offset, width):
            nonlocal bits
            if not 0 <= value < (1 << width):
                raise ValueError(f"field overflow: {value} in {width} bits")
            bits |= value << offset

        if self.u0 is not None:
            spec = self.ptype.unit(0)
            put(spec.ops.index(self.u0.op) + 1, 0, 3)
            put(Source.ext_index(self.u0.in1), 3, 2)
            put(Source.ext_index(self.u0.in2), 5, 2)
        put(int(self.t), 7, 2)
        for unit_cfg, spec_pos, base in ((self.u2, 2, 9), (self.u3, 3, 14)):
            if unit_cfg is None:
                continue
            spec = self.ptype.unit(spec_pos)
            put(spec.ops.index(unit_cfg.op) + 1, base, 2)
            put(0 if unit_cfg.in1 == Source.CHAIN else 1, base + 2, 1)
            in2_code = (
                0 if unit_cfg.in2 == Source.CHAIN
                else Source.ext_index(unit_cfg.in2)
            )
            put(in2_code, base + 3, 2)
        assert bits < (1 << CONTROL_BITS)
        return bits

    @classmethod
    def decode(cls, ptype, bits):
        """Inverse of :meth:`encode`."""
        if not ptype.has_lmau:
            raise ValueError(
                f"{ptype.name} does not use the 19-bit Stitch encoding"
            )
        if not 0 <= bits < (1 << CONTROL_BITS):
            raise ValueError("control word exceeds 19 bits")

        def get(offset, width):
            return (bits >> offset) & ((1 << width) - 1)

        def menu_op(position, code):
            ops = ptype.unit(position).ops
            if code > len(ops):
                raise ValueError(
                    f"unit {position} of {ptype.name} has no op code "
                    f"{code} (menu: {[o.value for o in ops]})"
                )
            return ops[code - 1]

        u0 = None
        op_code = get(0, 3)
        if op_code:
            u0 = UnitConfig(
                menu_op(0, op_code),
                Source.ext(get(3, 2)),
                Source.ext(get(5, 2)),
            )
        t = TMode(get(7, 2))
        late = []
        for spec_pos, base in ((2, 9), (3, 14)):
            op_code = get(base, 2)
            if op_code:
                in2_code = get(base + 3, 2)
                late.append(
                    UnitConfig(
                        menu_op(spec_pos, op_code),
                        Source.CHAIN if get(base + 2, 1) == 0 else Source.EXT2,
                        Source.CHAIN if in2_code == 0 else Source.ext(in2_code),
                    )
                )
            else:
                late.append(None)
        return cls(ptype, u0=u0, t=t, u2=late[0], u3=late[1])

    def __eq__(self, other):
        return (
            isinstance(other, PatchConfig)
            and self.ptype == other.ptype
            and (self.u0, self.t, self.u1, self.u2, self.u3)
            == (other.u0, other.t, other.u1, other.u2, other.u3)
        )

    def __hash__(self):
        return hash((self.ptype, self.u0, self.t, self.u1, self.u2, self.u3))

    def __repr__(self):
        parts = []
        if self.u0 is not None:
            parts.append(f"u0={self.u0!r}")
        if self.t is not TMode.OFF:
            parts.append(f"t={self.t.name}")
        if self.u1 is not None:
            parts.append(f"u1={self.u1!r}")
        if self.u2 is not None:
            parts.append(f"u2={self.u2!r}")
        if self.u3 is not None:
            parts.append(f"u3={self.u3!r}")
        return f"PatchConfig({self.ptype.name}: {', '.join(parts)})"
