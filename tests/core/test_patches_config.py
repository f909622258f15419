"""Unit tests for patch types and the 19-bit control encoding."""

import pytest

from repro.core import (
    AT_AS,
    AT_MA,
    AT_SA,
    CONTROL_BITS,
    PATCH_TYPES,
    FusedConfig,
    PatchConfig,
    TMode,
    UnitConfig,
)
from repro.core.patches import LOCUS_SFU
from repro.core.units import Source, UnitKind
from repro.isa import Op


def cfg_add(in1=Source.EXT0, in2=Source.EXT1):
    return UnitConfig(Op.ADD, in1, in2)


class TestPatchTypes:
    def test_chain_signatures(self):
        assert AT_MA.chain_signature == "ATMA"
        assert AT_AS.chain_signature == "ATAS"
        assert AT_SA.chain_signature == "ATSA"

    def test_all_types_share_at_prefix(self):
        for ptype in PATCH_TYPES.values():
            kinds = ptype.kinds()
            assert kinds[0] is UnitKind.ALU
            assert kinds[1] is UnitKind.LMAU

    def test_table4_synthesis_numbers(self):
        assert AT_MA.delay_ns == 1.38 and AT_MA.area_um2 == 4152
        assert AT_AS.delay_ns == 1.12 and AT_AS.area_um2 == 2096
        assert AT_SA.delay_ns == 1.02 and AT_SA.area_um2 == 2157

    def test_equality_by_name(self):
        assert AT_MA == PATCH_TYPES["AT-MA"]
        assert AT_MA != AT_AS


class TestConfigValidation:
    def test_minimal_alu_config(self):
        cfg = PatchConfig(AT_MA, u0=cfg_add())
        assert cfg.active_positions() == [0]
        assert cfg.signature() == "A"

    def test_at_load_config(self):
        cfg = PatchConfig(AT_MA, u0=cfg_add(), t=TMode.LOAD)
        assert cfg.signature() == "AT"
        assert cfg.uses_lmau()

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError):
            PatchConfig(AT_MA)

    def test_op_menu_enforced_on_late_alu(self):
        # SLT is only available on the first ALU, not position 3.
        with pytest.raises(ValueError):
            PatchConfig(AT_MA, u3=UnitConfig(Op.SLT, Source.CHAIN, Source.EXT0))

    def test_unit_kind_enforced(self):
        # Position 2 of AT-MA is the multiplier; shifts do not fit.
        with pytest.raises(ValueError):
            PatchConfig(AT_MA, u2=UnitConfig(Op.SLL, Source.CHAIN, Source.EXT1))
        PatchConfig(AT_MA, u2=UnitConfig(Op.MUL, Source.CHAIN, Source.EXT1))

    def test_in1_mux_restriction_on_late_units(self):
        with pytest.raises(ValueError):
            PatchConfig(AT_AS, u2=UnitConfig(Op.ADD, Source.EXT1, Source.EXT2))
        PatchConfig(AT_AS, u2=UnitConfig(Op.ADD, Source.EXT2, Source.EXT1))

    def test_first_alu_takes_any_ext_but_not_chain(self):
        with pytest.raises(ValueError):
            PatchConfig(AT_MA, u0=UnitConfig(Op.ADD, Source.CHAIN, Source.EXT0))
        PatchConfig(AT_MA, u0=UnitConfig(Op.ADD, Source.EXT3, Source.EXT2))

    def test_full_chain_signature(self):
        cfg = PatchConfig(
            AT_AS,
            u0=cfg_add(),
            t=TMode.LOAD,
            u2=UnitConfig(Op.ADD, Source.CHAIN, Source.EXT2),
            u3=UnitConfig(Op.SLL, Source.CHAIN, Source.EXT3),
        )
        assert cfg.signature() == "ATAS"


class TestExtSlotTracking:
    def test_simple_alu_slots(self):
        cfg = PatchConfig(AT_MA, u0=UnitConfig(Op.ADD, Source.EXT0, Source.EXT3))
        assert cfg.ext_slots_used() == [0, 3]

    def test_lone_load_consumes_ext0_via_chain_default(self):
        cfg = PatchConfig(AT_MA, t=TMode.LOAD)
        assert cfg.ext_slots_used() == [0]

    def test_store_modes_consume_their_slots(self):
        cfg = PatchConfig(AT_MA, u0=cfg_add(), t=TMode.STORE_DATA_CHAIN)
        assert 2 in cfg.ext_slots_used()
        cfg = PatchConfig(AT_MA, u0=cfg_add(), t=TMode.STORE_ADDR_CHAIN)
        assert 3 in cfg.ext_slots_used()

    def test_chain_default_through_late_unit(self):
        cfg = PatchConfig(AT_MA, u2=UnitConfig(Op.MUL, Source.CHAIN, Source.EXT1))
        assert cfg.ext_slots_used() == [0, 1]

    def test_chain_default_read_on_in2(self):
        # ext0 x ext2: the chain wire still carries ext0 into in2.
        cfg = PatchConfig(AT_MA, u2=UnitConfig(Op.MUL, Source.EXT2, Source.CHAIN))
        assert cfg.ext_slots_used() == [0, 2]

    def test_first_unit_at_position_1_reads_only_its_sources(self):
        cfg = PatchConfig(LOCUS_SFU, u1=UnitConfig(Op.MUL, Source.EXT2, Source.EXT1))
        assert cfg.ext_slots_used() == [1, 2]

    def test_fused_pair_inherits_the_b_half_slots(self):
        cfg_a = PatchConfig(AT_AS, u0=cfg_add(Source.EXT3, Source.EXT3))
        cfg_b = PatchConfig(AT_MA, u2=UnitConfig(Op.MUL, Source.EXT2, Source.CHAIN))
        fused = FusedConfig(
            cfg_a, cfg_b, b_ext=("ext1", "ext0", "a_out0", "ext0"),
            outs=("b_out0",),
        )
        # B reads its slots 0 (wired to ext1) and 2 (wired to a_out0).
        assert fused.ext_slots_used() == [1, 3]


class TestEncoding:
    def sample_configs(self):
        return [
            PatchConfig(AT_MA, u0=cfg_add()),
            PatchConfig(AT_MA, u0=cfg_add(), t=TMode.LOAD),
            PatchConfig(
                AT_MA,
                u0=UnitConfig(Op.SUB, Source.EXT2, Source.EXT3),
                t=TMode.LOAD,
                u2=UnitConfig(Op.MULH, Source.CHAIN, Source.EXT1),
                u3=UnitConfig(Op.XOR, Source.EXT2, Source.EXT1),
            ),
            PatchConfig(
                AT_AS,
                u0=UnitConfig(Op.SEQ, Source.EXT1, Source.EXT0),
                u3=UnitConfig(Op.SRA, Source.CHAIN, Source.EXT3),
            ),
            PatchConfig(
                AT_MA,
                u0=UnitConfig(Op.ADD, Source.EXT0, Source.EXT1),
                u2=UnitConfig(Op.MUL, Source.CHAIN, Source.CHAIN),  # squaring
            ),
            PatchConfig(AT_SA, t=TMode.STORE_ADDR_CHAIN),
            PatchConfig(
                AT_SA,
                u2=UnitConfig(Op.SRL, Source.EXT2, Source.EXT1),
                u3=UnitConfig(Op.ADD, Source.CHAIN, Source.EXT1),
            ),
        ]

    def test_fits_19_bits(self):
        for cfg in self.sample_configs():
            assert 0 <= cfg.encode() < (1 << CONTROL_BITS)

    def test_roundtrip(self):
        for cfg in self.sample_configs():
            decoded = PatchConfig.decode(cfg.ptype, cfg.encode())
            assert decoded == cfg

    def test_distinct_configs_distinct_words(self):
        words = [cfg.encode() for cfg in self.sample_configs()]
        assert len(set(words)) == len(words)

    def test_decode_rejects_oversized_word(self):
        with pytest.raises(ValueError):
            PatchConfig.decode(AT_MA, 1 << CONTROL_BITS)

    def test_decode_rejects_op_code_past_the_menu(self):
        # AT-MA's position-2 multiplier offers two ops; code 3 is unused.
        with pytest.raises(ValueError, match=r"unit 2 of AT-MA has no op code 3"):
            PatchConfig.decode(AT_MA, 3 << 9)
