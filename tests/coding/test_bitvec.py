"""Unit and property tests for repro.coding.bitvec."""

import ast
import pathlib
import random

import pytest
from hypothesis import given, strategies as st

from repro.coding import bitvec
from repro.coding.bitvec import (
    BitVector,
    bit_positions,
    bits_from_int,
    flip_bits,
    hamming_distance,
    int_from_bits,
    mask_of,
    masked_parities,
    popcount,
    random_bits,
    random_error_vector,
)


class TestPopcount:
    def test_zero(self):
        assert popcount(0) == 0

    def test_powers_of_two(self):
        for shift in range(0, 600, 37):
            assert popcount(1 << shift) == 1

    def test_all_ones(self):
        assert popcount(mask_of(553)) == 553

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            popcount(-1)

    def test_matches_reference_on_wide_values(self):
        rng = random.Random(99)
        for _ in range(200):
            value = rng.getrandbits(rng.randrange(1, 700))
            assert popcount(value) == bin(value).count("1")

    def test_table_fallback_matches_kernel(self):
        # The 3.9 fallback counts little-endian bytes through a table;
        # keep it honest on 3.10+ too by reconstructing it here.
        rng = random.Random(7)
        for _ in range(100):
            value = rng.getrandbits(rng.randrange(1, 700))
            assert bitvec._table_popcount(value) == popcount(value)


class TestBitPositions:
    def test_empty(self):
        assert bit_positions(0) == []

    def test_known_pattern(self):
        assert bit_positions(0b1010) == [1, 3]

    def test_sorted_and_complete(self):
        value = (1 << 5) | (1 << 100) | (1 << 552)
        assert bit_positions(value) == [5, 100, 552]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bit_positions(-3)

    def test_matches_per_bit_walk(self):
        # Oracle: test every position up to the width, in order.
        rng = random.Random(17)
        for _ in range(300):
            width = rng.randrange(1, 700)
            weight = rng.randrange(0, min(width, 12) + 1)
            sparse = sum(1 << p for p in rng.sample(range(width), weight))
            for value in (sparse, rng.getrandbits(width)):
                expected = [p for p in range(width) if (value >> p) & 1]
                assert bit_positions(value) == expected


class TestMaskedParities:
    def test_matches_per_row_popcount(self):
        rng = random.Random(31)
        for _ in range(100):
            width = rng.randrange(1, 700)
            value = rng.getrandbits(width)
            masks = [rng.getrandbits(width) for _ in range(rng.randrange(0, 40))]
            expected = sum(
                (popcount(value & mask) & 1) << j for j, mask in enumerate(masks)
            )
            assert masked_parities(value, masks) == expected
            assert bitvec._table_masked_parities(value, masks) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            masked_parities(-1, [1])


class TestPython39Path:
    def test_codec_identical_under_table_kernels(self, monkeypatch):
        # Every parity in the line codec (Hamming checks and syndrome,
        # affine CRC rows) goes through bitvec's version dispatch, so the
        # 3.9 table kernels must reproduce the 3.10+ results exactly.
        from repro.coding.crc import CRC
        from repro.core.linecodec import LineCodec

        rng = random.Random(39)
        codec = LineCodec()
        data = [rng.getrandbits(512) for _ in range(20)]
        faults = [random_error_vector(553, rng.randrange(4), rng) for _ in data]

        def run():
            fresh = CRC(16, 0x1021, init=0xFFFF)
            words = [codec.encode(d) ^ f for d, f in zip(data, faults)]
            return (
                fresh.compute_int(0xABCD, 64),
                words,
                [codec.decode(word) for word in words],
            )

        expected = run()
        monkeypatch.setattr(bitvec, "_popcount_nonneg", bitvec._table_popcount)
        monkeypatch.setattr(
            bitvec, "_masked_parities_nonneg", bitvec._table_masked_parities
        )
        assert run() == expected

    def test_no_bare_bit_count_in_coding(self):
        # int.bit_count is 3.10+; only bitvec's version dispatch may call it.
        package = pathlib.Path(bitvec.__file__).parent
        offenders = []
        for path in sorted(package.glob("*.py")):
            if path.name == "bitvec.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr == "bit_count":
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


class TestFlipBits:
    def test_flip_twice_is_identity(self):
        value = 0xDEADBEEF
        assert flip_bits(flip_bits(value, [3, 17]), [3, 17]) == value

    def test_flip_sets_and_clears(self):
        assert flip_bits(0, [0, 2]) == 0b101
        assert flip_bits(0b101, [0]) == 0b100

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            flip_bits(0, [-1])

    def test_width_bound_accepts_in_range(self):
        assert flip_bits(0, [0, 7], width=8) == 0b10000001

    def test_width_bound_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range for a 8-bit"):
            flip_bits(0, [8], width=8)

    def test_no_width_means_unbounded(self):
        assert flip_bits(0, [512]) == 1 << 512


class TestHammingDistance:
    def test_identical(self):
        assert hamming_distance(12345, 12345) == 0

    def test_known(self):
        assert hamming_distance(0b1100, 0b1001) == 2


class TestRandomHelpers:
    def test_random_bits_width(self):
        rng = random.Random(1)
        for width in (0, 1, 64, 553):
            assert random_bits(width, rng) >> width == 0

    def test_random_error_vector_weight(self):
        rng = random.Random(2)
        for weight in (0, 1, 5, 100):
            vector = random_error_vector(553, weight, rng)
            assert popcount(vector) == weight

    def test_random_error_vector_bounds(self):
        with pytest.raises(ValueError):
            random_error_vector(8, 9)


class TestBitConversions:
    def test_roundtrip(self):
        value = 0b110101
        assert int_from_bits(bits_from_int(value, 8)) == value

    def test_invalid_bit(self):
        with pytest.raises(ValueError):
            int_from_bits([0, 2])

    def test_width_overflow(self):
        with pytest.raises(ValueError):
            bits_from_int(256, 8)


class TestBitVector:
    def test_construction_validates_width(self):
        with pytest.raises(ValueError):
            BitVector(4, 2)

    def test_zeros_ones(self):
        assert BitVector.zeros(8).value == 0
        assert BitVector.ones(8).value == 0xFF

    def test_bit_access(self):
        vector = BitVector(0b1010, 4)
        assert [vector.bit(i) for i in range(4)] == [0, 1, 0, 1]
        with pytest.raises(IndexError):
            vector.bit(4)

    def test_with_bit(self):
        vector = BitVector.zeros(4).with_bit(2, 1)
        assert vector.value == 0b100
        assert vector.with_bit(2, 0).value == 0

    def test_flipped(self):
        assert BitVector(0b1000, 4).flipped([0, 3]).value == 0b0001

    def test_extract_concat_roundtrip(self):
        vector = BitVector(0xABCD, 16)
        low = vector.extract(0, 8)
        high = vector.extract(8, 8)
        assert low.concat(high) == vector

    def test_xor_and_or_invert(self):
        a = BitVector(0b1100, 4)
        b = BitVector(0b1010, 4)
        assert (a ^ b).value == 0b0110
        assert (a & b).value == 0b1000
        assert (a | b).value == 0b1110
        assert (~a).value == 0b0011

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BitVector(0, 4) ^ BitVector(0, 5)

    def test_bytes_roundtrip(self):
        vector = BitVector(0x0102, 16)
        assert BitVector.from_bytes(vector.to_bytes()) == vector

    def test_iteration_matches_bits(self):
        vector = BitVector(0b101, 3)
        assert list(vector) == [1, 0, 1]


@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_property_xor_popcount_is_distance(a, b):
    assert popcount(a ^ b) == hamming_distance(a, b)


@given(st.lists(st.integers(min_value=0, max_value=255), min_size=0, max_size=32))
def test_property_bytes_roundtrip(byte_values):
    data = bytes(byte_values)
    assert BitVector.from_bytes(data).to_bytes() == data


@given(st.integers(min_value=1, max_value=300), st.data())
def test_property_flip_involution(width, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    positions = data.draw(
        st.lists(st.integers(min_value=0, max_value=width - 1), max_size=10)
    )
    # Flipping the same multiset twice restores the value only when each
    # position appears an even number of times overall; flipping the set
    # (deduplicated) twice always restores.
    unique = list(set(positions))
    assert flip_bits(flip_bits(value, unique), unique) == value
