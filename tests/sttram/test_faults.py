"""Unit tests for repro.sttram.faults."""

import numpy as np
import pytest

from repro.coding.bitvec import popcount
from repro.sttram.array import STTRAMArray
from repro.sttram.faults import (
    BurstFaultInjector,
    FaultEvent,
    FaultKind,
    PermanentFaultMap,
    TransientFaultInjector,
    burst_error_vector,
    burst_line_masks,
    sample_distinct,
    sample_fault_count,
)


class TestSampleFaultCount:
    def test_statistics(self):
        rng = np.random.default_rng(1)
        counts = [sample_fault_count(10_000, 0.01, rng) for _ in range(500)]
        assert np.mean(counts) == pytest.approx(100, rel=0.1)

    def test_zero_rate(self):
        assert sample_fault_count(1000, 0.0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_fault_count(-1, 0.5)
        with pytest.raises(ValueError):
            sample_fault_count(10, 1.5)


class TestTransientFaultInjector:
    def test_error_vector_width(self):
        injector = TransientFaultInjector(553, 0.01, np.random.default_rng(2))
        for _ in range(50):
            vector = injector.error_vector()
            assert vector >> 553 == 0

    def test_error_vector_rate(self):
        injector = TransientFaultInjector(1000, 0.02, np.random.default_rng(3))
        total = sum(popcount(injector.error_vector()) for _ in range(500))
        assert total == pytest.approx(500 * 1000 * 0.02, rel=0.1)

    def test_error_vectors_bulk_matches_rate(self):
        injector = TransientFaultInjector(553, 1e-3, np.random.default_rng(4))
        vectors = injector.error_vectors(10_000)
        total = sum(popcount(v) for v in vectors.values())
        assert total == pytest.approx(10_000 * 553 * 1e-3, rel=0.1)
        assert all(v != 0 for v in vectors.values())

    def test_inject_interval_consistency(self):
        array = STTRAMArray(256, 553)
        injector = TransientFaultInjector(553, 5e-3, np.random.default_rng(5))
        events = injector.inject_interval(array)
        assert len(events) == array.total_faulty_bits()
        assert all(isinstance(e, FaultEvent) for e in events)
        assert all(e.kind is FaultKind.TRANSIENT for e in events)

    def test_zero_ber_injects_nothing(self):
        array = STTRAMArray(16, 64)
        injector = TransientFaultInjector(64, 0.0, np.random.default_rng(6))
        assert injector.inject_interval(array) == []
        assert array.faulty_lines() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            TransientFaultInjector(0, 0.5)
        with pytest.raises(ValueError):
            TransientFaultInjector(10, -0.1)


class TestErrorVectorAt:
    """Injector-boundary validation of explicit fault positions."""

    def test_places_requested_bits(self):
        injector = TransientFaultInjector(line_bits=16, ber=0.0)
        assert injector.error_vector_at([0, 5, 15]) == (1 | 1 << 5 | 1 << 15)

    def test_out_of_range_position_raises(self):
        injector = TransientFaultInjector(line_bits=16, ber=0.0)
        with pytest.raises(ValueError, match="out of range for a 16-bit"):
            injector.error_vector_at([16])

    def test_negative_position_raises(self):
        injector = TransientFaultInjector(line_bits=16, ber=0.0)
        with pytest.raises(ValueError):
            injector.error_vector_at([-1])

    def test_sampled_vectors_stay_in_width(self):
        injector = TransientFaultInjector(
            line_bits=32, ber=0.3, rng=np.random.default_rng(5)
        )
        for _ in range(100):
            assert injector.error_vector() >> 32 == 0


class TestPermanentFaultMap:
    def test_stuck_at_one(self):
        fault_map = PermanentFaultMap(line_bits=8)
        fault_map.add(0, 3, FaultKind.STUCK_AT_ONE)
        assert fault_map.apply(0, 0b0000_0000) == 0b0000_1000
        assert fault_map.apply(0, 0b0000_1000) == 0b0000_1000

    def test_stuck_at_zero(self):
        fault_map = PermanentFaultMap(line_bits=8)
        fault_map.add(1, 0, FaultKind.STUCK_AT_ZERO)
        assert fault_map.apply(1, 0b0000_0001) == 0
        assert fault_map.apply(0, 0b0000_0001) == 0b0000_0001  # other line unaffected

    def test_error_vector_depends_on_written_value(self):
        fault_map = PermanentFaultMap(line_bits=8)
        fault_map.add(0, 2, FaultKind.STUCK_AT_ONE)
        assert fault_map.error_vector(0, 0b0000_0000) == 0b0000_0100
        assert fault_map.error_vector(0, 0b0000_0100) == 0

    def test_rejects_transient_kind(self):
        fault_map = PermanentFaultMap(line_bits=8)
        with pytest.raises(ValueError):
            fault_map.add(0, 0, FaultKind.TRANSIENT)

    def test_rejects_out_of_range(self):
        fault_map = PermanentFaultMap(line_bits=8)
        with pytest.raises(ValueError):
            fault_map.add(0, 8, FaultKind.STUCK_AT_ONE)

    def test_random_density(self):
        fault_map = PermanentFaultMap.random(
            1000, 553, fault_ppm=1000.0, rng=np.random.default_rng(7)
        )
        total = sum(popcount(m) for m in fault_map.stuck_at_one.values())
        total += sum(popcount(m) for m in fault_map.stuck_at_zero.values())
        expected = 1000 * 553 * 1000e-6
        assert total == pytest.approx(expected, rel=0.25)

    def test_random_count_is_exactly_the_binomial_draw(self):
        # With-replacement sampling used to OR duplicate indices into the
        # same bit, so the realized count fell short of the draw.  Replay
        # the binomial draw on an identically-seeded generator and demand
        # exact agreement.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            fault_map = PermanentFaultMap.random(64, 64, 50_000.0, rng)
            replay = np.random.default_rng(seed)
            count = int(replay.binomial(64 * 64, 50_000 * 1e-6))
            total = sum(popcount(m) for m in fault_map.stuck_at_one.values())
            total += sum(popcount(m) for m in fault_map.stuck_at_zero.values())
            assert total == count

    def test_random_never_double_assigns_a_bit(self):
        fault_map = PermanentFaultMap.random(
            32, 64, fault_ppm=100_000.0, rng=np.random.default_rng(11)
        )
        for line, ones in fault_map.stuck_at_one.items():
            assert ones & fault_map.stuck_at_zero.get(line, 0) == 0

    def test_opposite_polarity_on_same_bit_raises(self):
        fault_map = PermanentFaultMap(line_bits=8)
        fault_map.add(0, 3, FaultKind.STUCK_AT_ONE)
        with pytest.raises(ValueError, match="already +stuck-at-1"):
            fault_map.add(0, 3, FaultKind.STUCK_AT_ZERO)
        fault_map.add(1, 3, FaultKind.STUCK_AT_ZERO)
        with pytest.raises(ValueError, match="already +stuck-at-0"):
            fault_map.add(1, 3, FaultKind.STUCK_AT_ONE)

    def test_same_polarity_twice_is_idempotent(self):
        fault_map = PermanentFaultMap(line_bits=8)
        fault_map.add(0, 3, FaultKind.STUCK_AT_ONE)
        fault_map.add(0, 3, FaultKind.STUCK_AT_ONE)
        assert fault_map.stuck_at_one[0] == 0b1000


class TestSampleDistinct:
    def test_exact_count_and_distinct(self):
        rng = np.random.default_rng(0)
        for count in (0, 1, 7, 64):
            values = sample_distinct(rng, 64, count)
            assert len(values) == count
            assert len(set(int(v) for v in values)) == count
            assert all(0 <= int(v) < 64 for v in values)

    def test_overdraw_raises(self):
        with pytest.raises(ValueError):
            sample_distinct(np.random.default_rng(0), 4, 5)

    @staticmethod
    def _set_based(rng, population, count):
        """The set-accumulating rejection loop ``sample_distinct`` replaced."""
        chosen = set()
        while len(chosen) < count:
            draw = rng.integers(0, population, size=count - len(chosen))
            chosen.update(int(v) for v in draw)
        return chosen

    @pytest.mark.parametrize(
        "population,count",
        [
            (64, 0),
            (64, 1),
            (64, 60),  # collision-heavy: many rejection rounds
            (64, 64),  # the whole population
            (1000, 990),
            (7, 7),
            ((1 << 20) * 553, 3070),  # the paper point's transient draw
        ],
    )
    @pytest.mark.parametrize("seed", [0, 11])
    def test_equals_set_based_loop(self, population, count, seed):
        rng = np.random.default_rng(seed)
        twin = np.random.default_rng(seed)
        values = sample_distinct(rng, population, count)
        expected = self._set_based(twin, population, count)
        assert values.dtype == np.int64
        assert len(values) == count
        assert set(values.tolist()) == expected
        assert np.all(np.diff(values) > 0)  # ascending and unique
        assert rng.bit_generator.state == twin.bit_generator.state


class TestBurstErrors:
    def test_shape(self):
        vector = burst_error_vector(64, start=8, length=4)
        assert vector == 0b1111 << 8

    def test_validation(self):
        with pytest.raises(ValueError):
            burst_error_vector(64, start=62, length=4)
        with pytest.raises(ValueError):
            burst_error_vector(64, start=-1, length=2)


class TestBurstLineMasks:
    def test_no_interleave_is_one_contiguous_mask(self):
        assert burst_line_masks(64, 8, 4) == [(0, 0b1111 << 8)]

    def test_interleave_spreads_across_adjacent_lines(self):
        # Physical bits 0..3 of a D=2 row belong alternately to lines
        # 0 and 1, two bits each.
        masks = dict(burst_line_masks(8, start=0, length=4, interleave=2))
        assert set(masks) == {0, 1}
        assert popcount(masks[0]) == 2
        assert popcount(masks[1]) == 2

    def test_mask_bits_match_burst_length(self):
        for interleave in (1, 2, 4):
            for length in (1, 3, 7):
                masks = burst_line_masks(
                    16, start=2, length=length, interleave=interleave
                )
                assert sum(popcount(m) for _, m in masks) == length

    def test_validation(self):
        with pytest.raises(ValueError):
            burst_line_masks(64, 0, 4, interleave=0)


class TestBurstFaultInjector:
    def _injector(self, seed=0, **kwargs):
        defaults = dict(
            line_bits=64, rate=0.1, length_pmf={3: 1.0},
            rng=np.random.default_rng(seed),
        )
        defaults.update(kwargs)
        return BurstFaultInjector(**defaults)

    def test_deterministic_for_equal_seeds(self):
        a = self._injector(seed=42).error_vectors(256)
        b = self._injector(seed=42).error_vectors(256)
        assert a == b

    def test_fixed_length_bursts_are_contiguous(self):
        injector = self._injector(seed=1, rate=0.2)
        vectors = injector.error_vectors(512)
        assert vectors
        for vector in vectors.values():
            # Each per-line mask is one or more length-3 runs; a single
            # non-overlapping event is exactly a contiguous run of 3.
            assert popcount(vector) % 3 == 0 or popcount(vector) >= 3

    def test_event_rate(self):
        injector = self._injector(seed=2, rate=0.05, length_pmf={2: 1.0})
        total_bits = 0
        for _ in range(200):
            vectors = injector.error_vectors(1000)
            total_bits += sum(popcount(v) for v in vectors.values())
        # events ~ Binomial(1000, 0.05) per call, 2 bits per event.
        assert total_bits == pytest.approx(200 * 1000 * 0.05 * 2, rel=0.1)

    def test_alignment_constrains_start_positions(self):
        injector = self._injector(
            seed=3, rate=0.3, length_pmf={2: 1.0}, alignment=8
        )
        for _ in range(50):
            for vector in injector.error_vectors(128).values():
                low = (vector & -vector).bit_length() - 1
                assert low % 8 == 0

    def test_multiplicity_strikes_consecutive_rows(self):
        injector = self._injector(
            seed=4, rate=1.0 / 64, length_pmf={2: 1.0}, multiplicity=3
        )
        vectors = injector.error_vectors(4096)
        assert vectors
        lines = sorted(vectors)
        # Every struck line is part of a run of 3 consecutive rows
        # sharing the same mask (modulo clipping at the array edge).
        for base in lines:
            if base + 2 in vectors and base + 1 in vectors:
                if vectors[base] == vectors[base + 1] == vectors[base + 2]:
                    break
        else:
            pytest.fail("no 3-row vertical burst found")

    def test_interleave_spreads_each_event(self):
        injector = self._injector(
            seed=5, rate=1.0 / 128, length_pmf={4: 1.0}, interleave=4
        )
        vectors = injector.error_vectors(4096)
        assert vectors
        # length-4 burst over D=4 interleaving: at most 1 bit per line.
        assert all(popcount(v) == 1 for v in vectors.values())

    def test_span_confines_bursts(self):
        injector = self._injector(
            seed=6, rate=0.3, length_pmf={3: 1.0}, span=16
        )
        for _ in range(50):
            for vector in injector.error_vectors(64).values():
                assert vector >> 16 == 0

    def test_edge_events_are_clipped(self):
        injector = self._injector(
            seed=7, rate=1.0, length_pmf={2: 1.0}, multiplicity=4
        )
        vectors = injector.error_vectors(3)
        assert all(line < 3 for line in vectors)

    def test_inject_frames_matches_dirty_set(self):
        array = STTRAMArray(256, 64)
        injector = self._injector(seed=8, rate=0.05)
        frames = injector.inject_frames(array)
        assert frames == array.faulty_lines()

    def test_length_pmf_mixture(self):
        injector = self._injector(
            seed=9, rate=1.0, length_pmf={1: 0.5, 5: 0.5}, alignment=64
        )
        sizes = set()
        for _ in range(30):
            sizes.update(
                popcount(v) for v in injector.error_vectors(64).values()
            )
        assert {1, 5} <= sizes

    def test_validation(self):
        with pytest.raises(ValueError):
            self._injector(rate=1.5)
        with pytest.raises(ValueError):
            self._injector(length_pmf={})
        with pytest.raises(ValueError):
            self._injector(length_pmf={0: 1.0})
        with pytest.raises(ValueError):
            self._injector(length_pmf={3: -1.0})
        with pytest.raises(ValueError):
            self._injector(length_pmf={100: 1.0}, span=16)
        with pytest.raises(ValueError):
            self._injector(span=0)
        with pytest.raises(ValueError):
            self._injector(alignment=0)
        with pytest.raises(ValueError):
            self._injector(multiplicity=0)
        with pytest.raises(ValueError):
            self._injector(interleave=0)
