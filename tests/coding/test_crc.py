"""Unit and property tests for repro.coding.crc."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.bitvec import flip_bits
from repro.coding.crc import (
    CHECK_VALUES,
    CRC,
    CRC8,
    CRC16_CCITT,
    CRC31_SUDOKU,
    CRC32,
    CRC31_DETECTION,
    DetectionModel,
    crc31,
    reflect,
    reflect_bytewise,
)

CHECK_INPUT = b"123456789"


class TestCatalogueCheckValues:
    def test_crc32(self):
        assert CRC32.compute(CHECK_INPUT) == CHECK_VALUES["CRC-32"]

    def test_crc16_ccitt(self):
        assert CRC16_CCITT.compute(CHECK_INPUT) == CHECK_VALUES["CRC-16/CCITT-FALSE"]

    def test_crc8(self):
        assert CRC8.compute(CHECK_INPUT) == CHECK_VALUES["CRC-8"]

    def test_crc31_philips(self):
        assert CRC31_SUDOKU.compute(CHECK_INPUT) == CHECK_VALUES["CRC-31/PHILIPS"]


class TestEngineBasics:
    def test_rejects_narrow_width(self):
        with pytest.raises(ValueError):
            CRC(4, 0x3)

    def test_rejects_oversized_poly(self):
        with pytest.raises(ValueError):
            CRC(8, 0x1FF)

    def test_reflect(self):
        assert reflect(0b0001, 4) == 0b1000
        assert reflect(0xA5, 8) == 0xA5  # palindromic byte

    def test_reflect_bytewise_matches_bit_loop(self):
        # The refout fast path must be a drop-in for the O(width) bit
        # loop it replaced -- including non-byte widths like CRC-31.
        rng = random.Random(11)
        for width in (8, 16, 24, 31, 32, 64):
            for _ in range(50):
                value = rng.getrandbits(width)
                assert reflect_bytewise(value, width) == reflect(value, width)

    def test_reflect_bytewise_involution(self):
        rng = random.Random(12)
        for width in (8, 31, 32):
            for _ in range(20):
                value = rng.getrandbits(width)
                assert reflect_bytewise(
                    reflect_bytewise(value, width), width
                ) == value

    def test_reflected_crcs_pin_check_values(self):
        # CRC-32 (refout=True) exercises the byte-wise reflection path
        # end to end against the published check value.
        assert CRC32.compute(CHECK_INPUT) == 0xCBF43926
        assert CRC31_SUDOKU.compute(CHECK_INPUT) == CHECK_VALUES["CRC-31/PHILIPS"]

    def test_compute_int_requires_byte_multiple(self):
        with pytest.raises(ValueError):
            CRC31_SUDOKU.compute_int(0, 9)

    def test_compute_int_rejects_oversized_value(self):
        with pytest.raises(ValueError):
            CRC31_SUDOKU.compute_int(1 << 16, 16)

    def test_compute_int_matches_bytes(self):
        value = int.from_bytes(CHECK_INPUT, "little")
        assert CRC31_SUDOKU.compute_int(value, 72) == CRC31_SUDOKU.compute(CHECK_INPUT)

    def test_bit_serial_matches_table_driven(self):
        rng = random.Random(3)
        engine = CRC(16, 0x1021, init=0xFFFF)
        for _ in range(20):
            value = rng.getrandbits(64)
            assert engine.compute_bits(value, 64) == engine.compute_int(value, 64)

    def test_crc31_helper(self):
        value = random.Random(4).getrandbits(512)
        assert crc31(value) == CRC31_SUDOKU.compute_int(value, 512)

    def test_matches(self):
        value = random.Random(5).getrandbits(512)
        stored = crc31(value)
        assert CRC31_SUDOKU.matches(value, 512, stored)
        assert not CRC31_SUDOKU.matches(value ^ 1, 512, stored)


def _table_compute_int(engine, value, nbits):
    """The original compute_int: the byte-table path over LE bytes."""
    if nbits % 8:
        raise ValueError("compute_int requires a whole number of bytes")
    if value < 0 or value >> nbits:
        raise ValueError(f"value does not fit in {nbits} bits")
    return engine.compute(value.to_bytes(nbits // 8, "little"))


def _basis_vector_rows(engine, nbits):
    """The affine rows derived from one byte-table CRC per basis vector."""
    nbytes = nbits // 8
    constant = engine.compute(bytes(nbytes))
    masks = [0] * engine.width
    for index in range(nbits):
        column = engine.compute((1 << index).to_bytes(nbytes, "little"))
        for crc_bit in range(engine.width):
            if (column ^ constant) >> crc_bit & 1:
                masks[crc_bit] |= 1 << index
    return constant, masks


#: Catalogue engines plus non-catalogue mixes of the Rocksoft knobs
#: (refin without refout and the reverse, non-trivial init/xorout).
_AFFINE_ENGINES = [
    CRC8,
    CRC16_CCITT,
    CRC31_SUDOKU,
    CRC32,
    CRC(16, 0x8005, init=0x1234, refin=True, refout=False, xorout=0xA5A5),
    CRC(24, 0x864CFB, init=0xB704CE, refin=False, refout=True, xorout=0x1),
]


class TestAffineComputeInt:
    """compute_int's affine rows against the byte-table and bit-serial paths."""

    @pytest.mark.parametrize("engine", _AFFINE_ENGINES, ids=lambda e: e.name)
    @pytest.mark.parametrize("nbits", [8, 64, 512, 520])
    def test_matches_table_and_bit_serial(self, engine, nbits):
        rng = random.Random(nbits * 131 + engine.width)
        values = [0, (1 << nbits) - 1]
        values += [1 << position for position in rng.sample(range(nbits), 6)]
        values += [rng.getrandbits(nbits) for _ in range(12)]
        # Sparse words: the few-faults regime of the line codec.
        values += [
            sum(1 << p for p in rng.sample(range(nbits), min(w, nbits)))
            for w in (2, 3, 5, 8)
        ]
        for value in values:
            expected = _table_compute_int(engine, value, nbits)
            assert engine.compute_int(value, nbits) == expected
            assert engine.compute_bits(value, nbits) == expected

    def test_rows_built_once_per_length(self):
        engine = CRC(31, CRC31_SUDOKU.poly, init=0x7FFFFFFF, xorout=0x7FFFFFFF)
        assert engine._affine == {}
        engine.compute_int(5, 512)
        rows = engine._affine[512]
        engine.compute_int(7, 512)
        assert engine._affine[512] is rows
        engine.compute_int(7, 64)
        assert sorted(engine._affine) == [64, 512]
        constant, masks = rows
        assert constant == CRC31_SUDOKU.compute(bytes(64))
        assert len(masks) == engine.width

    @pytest.mark.parametrize("engine", _AFFINE_ENGINES, ids=lambda e: e.name)
    @pytest.mark.parametrize("nbits", [0, 8, 24, 64, 136, 512, 520])
    def test_rows_equal_basis_vector_derivation(self, engine, nbits):
        fresh = CRC(
            engine.width, engine.poly, init=engine.init, refin=engine.refin,
            refout=engine.refout, xorout=engine.xorout,
        )
        assert fresh._affine_rows(nbits) == _basis_vector_rows(fresh, nbits)

    def test_zero_length_message(self):
        for engine in _AFFINE_ENGINES:
            assert engine.compute_int(0, 0) == engine.compute(b"")

    @pytest.mark.parametrize("engine", _AFFINE_ENGINES, ids=lambda e: e.name)
    def test_same_value_errors_as_table_path(self, engine):
        fresh = CRC(
            engine.width, engine.poly, init=engine.init, refin=engine.refin,
            refout=engine.refout, xorout=engine.xorout,
        )
        # Checked before and after the rows for that length exist.
        for candidate in (fresh, engine):
            for value, nbits in ((-1, 64), (1 << 64, 64), (1 << 512, 512),
                                 (0, 9), (1, 513), (-1, 7)):
                with pytest.raises(ValueError) as raised:
                    candidate.compute_int(value, nbits)
                with pytest.raises(ValueError) as oracle:
                    _table_compute_int(candidate, value, nbits)
                assert str(raised.value) == str(oracle.value)
            candidate.compute_int(0, 64)


class TestErrorDetection:
    """CRC-31 must detect every small error pattern on a 64-byte line."""

    @pytest.mark.parametrize("weight", [1, 2, 3, 4, 5, 6, 7])
    def test_detects_small_patterns(self, weight):
        rng = random.Random(weight)
        data = rng.getrandbits(512)
        reference = crc31(data)
        for _ in range(60):
            positions = rng.sample(range(512), weight)
            corrupted = flip_bits(data, positions)
            assert crc31(corrupted) != reference, (
                f"undetected {weight}-bit error at {positions}"
            )

    def test_heavy_random_patterns_mostly_detected(self):
        rng = random.Random(99)
        data = rng.getrandbits(512)
        reference = crc31(data)
        misses = sum(
            1
            for _ in range(2000)
            if crc31(flip_bits(data, rng.sample(range(512), 16))) == reference
        )
        # Misdetection probability is 2^-31; zero misses expected here.
        assert misses == 0


class TestDetectionModel:
    def test_paper_parameters(self):
        assert CRC31_DETECTION.width == 31
        assert CRC31_DETECTION.guaranteed_detect == 7
        assert CRC31_DETECTION.misdetect_probability == pytest.approx(2.0 ** -31)

    def test_custom_model(self):
        model = DetectionModel(width=16, guaranteed_detect=3,
                               misdetect_probability=2.0 ** -16)
        assert model.width == 16


@settings(max_examples=50)
@given(st.binary(min_size=0, max_size=64))
def test_property_crc_is_deterministic(data):
    assert CRC31_SUDOKU.compute(data) == CRC31_SUDOKU.compute(data)


@settings(max_examples=50)
@given(st.binary(min_size=1, max_size=64), st.data())
def test_property_single_bit_always_detected(data, draw):
    bit = draw.draw(st.integers(min_value=0, max_value=8 * len(data) - 1))
    value = int.from_bytes(data, "little")
    corrupted = value ^ (1 << bit)
    width = 8 * len(data)
    assert (
        CRC31_SUDOKU.compute_int(corrupted, width)
        != CRC31_SUDOKU.compute_int(value, width)
    )
