"""Unit tests for repro.sttram.array."""

import numpy as np
import pytest

from repro.sttram.array import STTRAMArray


class TestBasics:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            STTRAMArray(0, 64)
        with pytest.raises(ValueError):
            STTRAMArray(4, 0)

    def test_write_read_roundtrip(self):
        array = STTRAMArray(8, 64)
        array.write(3, 0xDEADBEEF)
        assert array.read(3) == 0xDEADBEEF
        assert array.golden(3) == 0xDEADBEEF

    def test_write_returns_previous_stored(self):
        array = STTRAMArray(4, 16)
        array.write(0, 0xAAAA)
        array.inject(0, 0x0001)
        assert array.write(0, 0x5555) == 0xAAAB  # faulty old value

    def test_bounds_checking(self):
        array = STTRAMArray(4, 16)
        with pytest.raises(IndexError):
            array.read(4)
        with pytest.raises(ValueError):
            array.write(0, 1 << 16)


class TestFaultTracking:
    def test_inject_and_error_vector(self):
        array = STTRAMArray(4, 16)
        array.write(1, 0xF0F0)
        array.inject(1, 0x0011)
        assert array.read(1) == 0xF0E1
        assert array.error_vector(1) == 0x0011
        assert not array.is_clean(1)

    def test_double_injection_cancels(self):
        array = STTRAMArray(4, 16)
        array.write(0, 0x1234)
        array.inject(0, 0x00FF)
        array.inject(0, 0x00FF)
        assert array.is_clean(0)

    def test_restore_repairs_without_touching_golden(self):
        array = STTRAMArray(4, 16)
        array.write(2, 0xABCD)
        array.inject(2, 0x0F00)
        array.restore(2, 0xABCD)
        assert array.is_clean(2)
        assert array.golden(2) == 0xABCD

    def test_faulty_lines_listing(self):
        array = STTRAMArray(8, 16)
        for index in range(8):
            array.write(index, index)
        array.inject(2, 1)
        array.inject(5, 2)
        assert array.faulty_lines() == [2, 5]
        assert array.total_faulty_bits() == 2

    def test_write_clears_fault(self):
        array = STTRAMArray(4, 16)
        array.write(0, 0x1111)
        array.inject(0, 0x000F)
        array.write(0, 0x2222)
        assert array.is_clean(0)


class TestDirtySet:
    """The dirty-frame index must mirror stored != golden at all times."""

    def test_starts_empty(self):
        array = STTRAMArray(4, 16)
        assert array.dirty_frames() == []
        assert array.dirty_count == 0
        assert not array.is_dirty(0)

    def test_inject_marks_dirty(self):
        array = STTRAMArray(4, 16)
        array.write(1, 0xF0F0)
        array.inject(1, 0x0001)
        assert array.is_dirty(1)
        assert array.dirty_frames() == [1]
        assert array.dirty_count == 1

    def test_inject_twice_cancels(self):
        array = STTRAMArray(4, 16)
        array.write(0, 0x1234)
        array.inject(0, 0x00FF)
        array.inject(0, 0x00FF)
        assert not array.is_dirty(0)
        assert array.dirty_frames() == []

    def test_restore_to_golden_cleans(self):
        array = STTRAMArray(4, 16)
        array.write(2, 0xABCD)
        array.inject(2, 0x0F00)
        assert array.is_dirty(2)
        array.restore(2, 0xABCD)
        assert not array.is_dirty(2)

    def test_restore_to_wrong_value_stays_dirty(self):
        array = STTRAMArray(4, 16)
        array.write(2, 0xABCD)
        array.inject(2, 0x0F00)
        array.restore(2, 0x0000)  # a miscorrection
        assert array.is_dirty(2)

    def test_write_cleans_dirty_frame(self):
        array = STTRAMArray(4, 16)
        array.inject(3, 0x0001)
        assert array.is_dirty(3)
        array.write(3, 0x5555)
        assert not array.is_dirty(3)

    def test_dirty_frames_sorted(self):
        array = STTRAMArray(8, 16)
        for index in (5, 1, 7, 3):
            array.inject(index, 0x0001)
        assert array.dirty_frames() == [1, 3, 5, 7]

    def test_mirrors_brute_force_scan(self):
        array = STTRAMArray(16, 32)
        rng = np.random.default_rng(13)
        for _ in range(200):
            op = rng.integers(0, 3)
            index = int(rng.integers(0, 16))
            value = int(rng.integers(0, 1 << 32))
            if op == 0:
                array.write(index, value)
            elif op == 1:
                array.inject(index, value)
            else:
                array.restore(index, value)
            expected = [
                i for i in range(16) if array.read(i) != array.golden(i)
            ]
            assert array.dirty_frames() == expected


class TestBulk:
    def test_fill_random_reproducible(self):
        array_a = STTRAMArray(32, 553)
        array_b = STTRAMArray(32, 553)
        array_a.fill_random(np.random.default_rng(42))
        array_b.fill_random(np.random.default_rng(42))
        assert list(array_a) == list(array_b)

    def test_len_and_iter(self):
        array = STTRAMArray(8, 16)
        assert len(array) == 8
        assert len(list(array)) == 8


class TestMemoryFollowsFaults:
    """A line back at golden shares golden's int object."""

    def test_restore_and_inject_share_golden(self):
        array = STTRAMArray(4, 600)
        array.write(1, (1 << 599) | 12345)
        golden = array.golden(1)
        array.inject(1, 1 << 7)
        array.restore(1, array.read(1) ^ (1 << 7))
        assert array.read(1) is golden
        array.inject(1, 1 << 9)
        array.inject(1, 1 << 9)
        assert array.read(1) is golden and not array.is_dirty(1)

    def test_repair_campaign_leaves_no_int_per_repair(self):
        from repro.core.engine import build_engine
        from repro.reliability.montecarlo import run_engine_campaign

        array = STTRAMArray(256, 553, storage="list")
        engine = build_engine("Z", array, group_size=16)
        result = run_engine_campaign(
            engine, ber=2e-5, intervals=40, randomize_content=False, seed=11,
        )
        # Repairs only (no heal ran); RAID-4 write-backs count too.
        assert result.interval_failures == 0
        assert result.outcomes["corrected_ecc1"] > 20
        assert len({id(word) for word in array}) <= 1 + array.dirty_count
