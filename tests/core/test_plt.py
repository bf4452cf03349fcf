"""Unit tests for the Parity Line Table."""

import random

import pytest

from repro.coding.parity import xor_reduce
from repro.core.plt_ import ParityLineTable


class TestParityLineTable:
    def test_initial_state(self):
        plt = ParityLineTable(4, 16)
        assert all(plt.parity(g) == 0 for g in range(4))

    def test_incremental_update_tracks_rebuild(self):
        rng = random.Random(1)
        plt = ParityLineTable(1, 64)
        members = [0] * 8
        for _ in range(200):
            slot = rng.randrange(8)
            new = rng.getrandbits(64)
            plt.update(0, members[slot], new)
            members[slot] = new
        assert plt.parity(0) == xor_reduce(members)
        assert plt.mismatch(0, members) == 0

    def test_mismatch_exposes_error_positions(self):
        plt = ParityLineTable(1, 16)
        members = [0xAAAA, 0x5555]
        plt.rebuild(0, members)
        members[0] ^= 0x0101
        assert plt.mismatch(0, members) == 0x0101

    def test_write_traffic_counter(self):
        plt = ParityLineTable(2, 16)
        plt.update(0, 0, 1)
        plt.update(1, 0, 2)
        assert plt.write_updates == 2

    def test_storage_accounting_paper_scale(self):
        # 2048 groups of 553-bit parity lines: ~138 KB per table; the
        # paper rounds to 128 KB using 512-bit data-width parity.
        plt = ParityLineTable(2048, 553)
        assert plt.storage_bytes == (2048 * 553 + 7) // 8
        assert plt.amortised_bits_per_line(1 << 20) == pytest.approx(
            2048 * 553 / (1 << 20)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ParityLineTable(0, 8)
        with pytest.raises(ValueError):
            ParityLineTable(4, 0)
        plt = ParityLineTable(4, 8)
        with pytest.raises(IndexError):
            plt.parity(4)
        with pytest.raises(ValueError):
            plt.update(0, 0, 1 << 8)
        with pytest.raises(ValueError):
            plt.amortised_bits_per_line(0)

    @pytest.mark.parametrize("bad", [-1, 1 << 8])
    def test_rebuild_rejects_a_bad_word_before_any_change(self, bad):
        plt = ParityLineTable(2, 8)
        plt.rebuild(1, [0x0F, 0x30])
        plt.quarantine(1)
        # Twice over, so the fold itself would cancel it and fit.
        with pytest.raises(ValueError, match="does not fit in 8 bits"):
            plt.rebuild(1, [0x01, bad, bad, 0x02])
        assert plt.parity(1) == 0x3F
        assert plt.is_quarantined(1)
        assert plt.verify(1)

    def test_rebuild_of_no_members_stores_zero(self):
        plt = ParityLineTable(1, 8)
        plt.rebuild(0, [0x11])
        assert plt.rebuild(0, []) == 0
        assert plt.parity(0) == 0 and plt.verify(0)
