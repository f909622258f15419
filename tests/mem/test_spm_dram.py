"""Unit tests for the scratchpad and DRAM models."""

import pytest

from repro.mem import Dram, Scratchpad, SPM_BASE, SPM_SIZE


class TestScratchpad:
    def test_window(self):
        spm = Scratchpad()
        assert spm.contains(SPM_BASE)
        assert spm.contains(SPM_BASE + SPM_SIZE - 4)
        assert not spm.contains(SPM_BASE + SPM_SIZE)
        assert not spm.contains(SPM_BASE - 4)

    def test_read_write_roundtrip(self):
        spm = Scratchpad()
        spm.write_word(SPM_BASE + 8, -12345)
        assert spm.read_word(SPM_BASE + 8) == -12345

    def test_values_wrap_to_32_bits(self):
        spm = Scratchpad()
        spm.write_word(SPM_BASE, 0xFFFFFFFF)
        assert spm.read_word(SPM_BASE) == -1

    def test_rejects_unaligned(self):
        with pytest.raises(ValueError):
            Scratchpad().read_word(SPM_BASE + 2)

    def test_rejects_out_of_window(self):
        with pytest.raises(ValueError):
            Scratchpad().write_word(SPM_BASE + SPM_SIZE, 1)

    def test_bulk_load_dump(self):
        spm = Scratchpad()
        spm.load_words(SPM_BASE + 16, [1, 2, 3])
        assert spm.dump_words(SPM_BASE + 16, 3) == [1, 2, 3]

    def test_bulk_load_overflow_rejected(self):
        spm = Scratchpad()
        with pytest.raises(ValueError):
            spm.load_words(SPM_BASE + SPM_SIZE - 8, [1, 2, 3])

    def test_clear(self):
        spm = Scratchpad()
        words = spm.window()[0]
        spm.write_word(SPM_BASE, 7)
        spm.clear()
        assert spm.read_word(SPM_BASE) == 0
        assert spm.window()[0] is words  # held by patch executors

    def test_stats_count_accesses(self):
        spm = Scratchpad()
        spm.write_word(SPM_BASE, 1)
        spm.read_word(SPM_BASE)
        assert spm.reads == 1 and spm.writes == 1


class TestDram:
    def test_default_zero(self):
        assert Dram().read_word(0x1000) == 0

    def test_roundtrip_and_wrap(self):
        dram = Dram()
        dram.write_word(0x1000, 1 << 31)
        assert dram.read_word(0x1000) == -(1 << 31)

    def test_rejects_unaligned(self):
        with pytest.raises(ValueError):
            Dram().read_word(2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Dram().read_word(512 * 1024 * 1024)

    def test_sparse_footprint(self):
        dram = Dram()
        dram.write_word(0x0, 1)
        dram.write_word(0x10000000, 2)
        assert dram.footprint_words() == 2

    def test_bulk_helpers_untimed(self):
        dram = Dram()
        dram.load_words(0x40, [9, 8, 7])
        assert dram.dump_words(0x40, 3) == [9, 8, 7]
        assert dram.reads == 0 and dram.writes == 0
