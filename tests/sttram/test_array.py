"""Unit tests for repro.sttram.array."""

import random
import tracemalloc

import numpy as np
import pytest

from repro.sttram.array import STTRAMArray
from repro.sttram.faults import FaultKind, PermanentFaultMap


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

    def test_snapshot_and_written_frames(self):
        array = STTRAMArray(8, 16)
        array.fill_word(0x00FF)
        array.write(2, 0x1234)
        array.write(5, 0x00FF)  # the fill word: not a written line
        array.inject(2, 0x0001)
        array.inject(6, 0x0100)
        frames = [6, 0, 2]
        assert array.snapshot(frames) == (
            tuple(array.read(i) for i in frames),
            (True, False, True),
        )
        assert array.written_frames() == [2]
        with pytest.raises(IndexError):
            array.snapshot([0, 8])
        assert array.dirty_items(frames) == ((6, array.read(6)), (2, array.read(2)))
        assert array.dirty_items([0, 5]) == ()
        with pytest.raises(IndexError):
            array.dirty_items([0, 8])


def _brute_split(array, indices):
    """``split_clean`` by definition: one ``read`` per clean member."""
    dirty = [i for i in indices if array.is_dirty(i)]
    clean_xor = 0
    for i in indices:
        if not array.is_dirty(i):
            clean_xor ^= array.read(i)
    return dirty, clean_xor


def _stuck_array():
    """A 16-line array with fill, written, dirty and stuck lines.

    Line 3 is stuck against its golden bit (permanently dirty); line 4
    is stuck at the bit it already holds (clean).
    """
    array = STTRAMArray(16, 16)
    array.fill_word(0x00FF)
    for index, value in {1: 0x1234, 3: 0x0F0F, 4: 0x0F0F, 9: 0xBEEF}.items():
        array.write(index, value)
    array.write(6, 0x00FF)  # the fill word: not a written line
    fault_map = PermanentFaultMap(16)
    fault_map.add(3, 4, FaultKind.STUCK_AT_ONE)  # golden bit 4 is 0
    fault_map.add(4, 0, FaultKind.STUCK_AT_ONE)  # golden bit 0 is 1
    array.attach_permanent_faults(fault_map)
    array.inject(1, 0x0001)
    array.inject(12, 0x0300)
    return array


class TestSplitClean:
    def test_fill_only_group(self):
        array = STTRAMArray(16, 16)
        array.fill_word(0x00FF)
        assert array.split_clean(range(5)) == ([], 0x00FF)
        assert array.split_clean(range(4)) == ([], 0)
        assert array.split_clean([]) == ([], 0)

    @pytest.mark.parametrize(
        "indices",
        [
            range(16),
            range(8),
            [12, 0, 3, 9, 4, 1],
            [0, 2, 5],  # fill only, odd clean count
            [0, 2, 5, 7],  # fill only, even clean count
            [9, 4, 6],  # written, stuck-matching and fill
            [1, 3, 12],  # dirty only
        ],
    )
    def test_matches_read_and_xor(self, indices):
        array = _stuck_array()
        assert array.is_dirty(3) and not array.is_dirty(4)
        assert array.split_clean(indices) == _brute_split(array, indices)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_operation_sequences(self, seed):
        rng = random.Random(seed)
        array = _stuck_array()
        for _ in range(60):
            index = rng.randrange(16)
            value = rng.getrandbits(16)
            op = rng.randrange(4)
            if op == 0:
                array.write(index, value)
            elif op == 1:
                array.inject(index, value)
            elif op == 2:
                array.restore(index, array.golden(index))
            else:
                array.write(index, 0x00FF)
            indices = rng.sample(range(16), rng.randrange(17))
            assert array.split_clean(indices) == _brute_split(array, indices)

    def test_out_of_range_raises(self):
        array = _stuck_array()
        with pytest.raises(IndexError):
            array.split_clean([0, 16])
        with pytest.raises(IndexError):
            array.split_clean(range(-1, 3))


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


def _twin_arrays(stuck):
    """Two identical 64-line arrays with written content, and their state."""
    rng = random.Random(71)
    arrays = [STTRAMArray(64, 32) for _ in range(2)]
    values = {index: rng.getrandbits(32) for index in rng.sample(range(64), 20)}
    fault_map = None
    if stuck:
        fault_map = PermanentFaultMap(32)
        for index in rng.sample(range(64), 16):
            kind = rng.choice([FaultKind.STUCK_AT_ONE, FaultKind.STUCK_AT_ZERO])
            fault_map.add(index, rng.randrange(32), kind)
    for array in arrays:
        array.fill_word(0x0F0F0F0F)
        for index, value in values.items():
            array.write(index, value)
        if fault_map is not None:
            array.attach_permanent_faults(fault_map)
    return arrays, rng


def _state(array):
    return (list(array), array.dirty_frames(), array.written_frames())


class TestBulkInjectRestore:
    """``inject_many`` / ``restore_many`` equal their per-line loops."""

    @pytest.mark.parametrize("stuck", [False, True])
    def test_inject_many_matches_inject(self, stuck):
        (bulk, single), rng = _twin_arrays(stuck)
        for _ in range(3):
            vectors = {
                index: rng.getrandbits(32) | 1
                for index in rng.sample(range(64), 24)
            }
            bulk.inject_many(vectors)
            for index, vector in vectors.items():
                single.inject(index, vector)
            assert _state(bulk) == _state(single)

    @pytest.mark.parametrize("stuck", [False, True])
    def test_restore_many_matches_restore_and_is_clean(self, stuck):
        (bulk, single), rng = _twin_arrays(stuck)
        vectors = {index: 1 << rng.randrange(32) for index in range(64)}
        bulk.inject_many(vectors)
        single.inject_many(vectors)
        frames = rng.sample(range(64), 40)
        # Half repaired to golden, half to a wrong word.
        values = [
            single.golden(frame) ^ (0 if i % 2 else 1 << rng.randrange(32))
            for i, frame in enumerate(frames)
        ]
        flags = bulk.restore_many(frames, values)
        expected = []
        for frame, value in zip(frames, values):
            single.restore(frame, value)
            expected.append(single.is_clean(frame))
        assert flags == expected
        assert _state(bulk) == _state(single)
        assert True in flags and False in flags
        if stuck:
            # A correct repair of a stuck-conflicting line reads clean
            # yet stays in the dirty set.
            assert any(
                ok and bulk.is_dirty(frame) for frame, ok in zip(frames, flags)
            )

    def test_out_of_range_rejected_before_any_write(self):
        array = STTRAMArray(8, 16)
        before = _state(array)
        with pytest.raises(IndexError):
            array.inject_many({0: 1, 8: 1})
        with pytest.raises(IndexError):
            array.inject_many({-1: 1})
        with pytest.raises(ValueError):
            array.inject_many({0: 1, 1: 1 << 16})
        with pytest.raises(IndexError):
            array.restore_many([3, 8], [0, 0])
        with pytest.raises(ValueError):
            array.restore_many([3, 4], [0, -1])
        with pytest.raises(ValueError):
            array.restore_many([3, 4], [0])
        assert _state(array) == before
        array.inject_many({})
        assert array.restore_many([], []) == []


class TestWriteMany:
    """``write_many`` equals a ``write`` per pair, in order."""

    @staticmethod
    def _full_state(array):
        goldens = [array.golden(i) for i in range(array.num_lines)]
        return _state(array) + (goldens,)

    @pytest.mark.parametrize("stuck", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_write(self, stuck, seed):
        (bulk, single), _ = _twin_arrays(stuck)
        rng = random.Random(seed)
        vectors = {index: rng.getrandbits(32) | 1 for index in range(0, 64, 3)}
        bulk.inject_many(vectors)
        single.inject_many(vectors)
        for _ in range(3):
            # Repeated indices (the last value wins) and fill-valued
            # words, over written, dirty, stuck and untouched lines.
            indices = [rng.randrange(64) for _ in range(48)]
            values = [
                0x0F0F0F0F if rng.random() < 0.25 else rng.getrandbits(32)
                for _ in indices
            ]
            bulk.write_many(indices, values)
            for index, value in zip(indices, values):
                single.write(index, value)
            assert self._full_state(bulk) == self._full_state(single)

    def test_range_indices_over_a_fresh_array(self):
        bulk, single = STTRAMArray(16, 16), STTRAMArray(16, 16)
        values = [random.Random(5).getrandbits(16) for _ in range(16)]
        values[3] = 0  # the fill word of a fresh array
        bulk.write_many(range(16), values)
        for index, value in enumerate(values):
            single.write(index, value)
        assert self._full_state(bulk) == self._full_state(single)
        assert list(bulk) == values

    def test_bad_index_or_value_raises_before_any_write(self):
        (array, _), _ = _twin_arrays(True)
        before = self._full_state(array)
        with pytest.raises(IndexError):
            array.write_many([0, 64], [1, 1])
        with pytest.raises(IndexError):
            array.write_many([-1, 0], [1, 1])
        with pytest.raises(ValueError):
            array.write_many([0, 1], [1, 1 << 32])
        with pytest.raises(ValueError):
            array.write_many([0, 1], [-1, 1])
        with pytest.raises(ValueError):
            array.write_many([0, 1], [1])
        assert self._full_state(array) == before
        array.write_many([], [])
        assert self._full_state(array) == before


class TestMemoryFollowsFaults:
    """Storage follows the dirty count, not the lines or the repairs."""

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

        array = STTRAMArray(256, 553)
        engine = build_engine("Z", array, group_size=16)
        result = run_engine_campaign(
            engine, ber=2e-5, intervals=40, randomize_content=False, seed=11,
        )
        # Repairs only (no heal ran); RAID-4 write-backs count too.
        assert result.interval_failures == 0
        assert result.outcomes["corrected_ecc1"] > 20
        assert array.dirty_count == 0
        assert array._diverged == {} and array._written == {}

    def test_z_engine_build_at_4m_lines_allocates_under_8mb(self):
        from repro.core.engine import build_engine
        from repro.core.linecodec import LineCodec

        codec = LineCodec()
        # Warm the codec and kernel tables so only the build is measured.
        build_engine("Z", STTRAMArray(2 ** 18, codec.stored_bits),
                     group_size=512, codec=codec, backend="numpy")
        tracemalloc.start()
        try:
            array = STTRAMArray(2 ** 22, codec.stored_bits)
            engine = build_engine(
                "Z", array, group_size=512, codec=codec, backend="numpy"
            )
            allocated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert engine.array is array
        assert allocated < 8 * 2 ** 20


class _TwoListModel:
    """The naive storage: full stored and golden lists, brute-force scans."""

    def __init__(self, num_lines, line_bits):
        self.stored = [0] * num_lines
        self.golden = [0] * num_lines
        self.fault_map = None

    def through(self, index, value):
        if self.fault_map is None:
            return value
        return self.fault_map.apply(index, value)

    def attach(self, fault_map):
        self.fault_map = fault_map
        for index, value in enumerate(self.stored):
            self.stored[index] = self.through(index, value)

    def write(self, index, value):
        previous = self.stored[index]
        self.stored[index] = self.through(index, value)
        self.golden[index] = value
        return previous

    def inject(self, index, vector):
        self.stored[index] = self.through(index, self.stored[index] ^ vector)

    def restore(self, index, value):
        self.stored[index] = self.through(index, value)

    def fill_word(self, value):
        for index in range(len(self.stored)):
            self.write(index, value)


class TestMatchesTwoListModel:
    """Fill word + sparse maps observe exactly what two full lists do."""

    LINES = 24
    BITS = 40

    def _assert_same(self, array, model):
        for index in range(self.LINES):
            stored, golden = model.stored[index], model.golden[index]
            residual = stored ^ model.through(index, golden)
            assert array.read(index) == stored
            assert array.golden(index) == golden
            assert array.is_dirty(index) == (stored != golden)
            assert array.is_clean(index) == (residual == 0)
            assert array.error_vector(index) == stored ^ golden
            assert array.residual_vector(index) == residual
        pairs = list(zip(model.stored, model.golden))
        assert array.dirty_frames() == [
            index for index, (s, g) in enumerate(pairs) if s != g
        ]
        assert array.dirty_count == len(array.dirty_frames())
        assert array.total_faulty_bits() == sum(
            bin(s ^ g).count("1") for s, g in pairs
        )
        assert list(array) == model.stored

    @pytest.mark.parametrize("seed", range(6))
    def test_random_operation_sequences(self, seed):
        rng = random.Random(seed)
        array = STTRAMArray(self.LINES, self.BITS)
        model = _TwoListModel(self.LINES, self.BITS)
        attach_at = rng.randrange(40, 120)
        # A small pool of values makes writes of the fill word, repairs
        # back to golden and cancelling injections common.
        pool = [rng.getrandbits(self.BITS) for _ in range(4)]
        for step in range(300):
            if step == attach_at:
                fault_map = PermanentFaultMap(line_bits=self.BITS)
                for _ in range(10):
                    kind = rng.choice(
                        (FaultKind.STUCK_AT_ONE, FaultKind.STUCK_AT_ZERO)
                    )
                    try:
                        fault_map.add(
                            rng.randrange(self.LINES),
                            rng.randrange(self.BITS), kind,
                        )
                    except ValueError:
                        pass  # the opposite polarity is already stuck
                array.attach_permanent_faults(fault_map)
                model.attach(fault_map)
            index = rng.randrange(self.LINES)
            op = rng.random()
            if op < 0.3:
                value = rng.choice(pool)
                assert array.write(index, value) == model.write(index, value)
            elif op < 0.6:
                vector = 1 << rng.randrange(self.BITS)
                array.inject(index, vector)
                model.inject(index, vector)
            elif op < 0.9:
                value = rng.choice((model.golden[index], rng.choice(pool)))
                array.restore(index, value)
                model.restore(index, value)
            else:
                value = rng.choice(pool)
                array.fill_word(value)
                model.fill_word(value)
            self._assert_same(array, model)
