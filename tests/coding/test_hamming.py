"""Unit and property tests for repro.coding.hamming."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.hamming import (
    HammingSEC,
    HammingSECDED,
    check_bits_needed,
)


class TestCheckBits:
    def test_known_values(self):
        # Classic Hamming parameters: (k, r).
        assert check_bits_needed(4) == 3
        assert check_bits_needed(11) == 4
        assert check_bits_needed(26) == 5
        assert check_bits_needed(57) == 6
        assert check_bits_needed(120) == 7

    def test_paper_layout_needs_ten_bits(self):
        # 512 data + 31 CRC bits -> 10 check bits (paper section II-D).
        assert check_bits_needed(543) == 10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            check_bits_needed(0)


class TestHammingSECSmall:
    """Exhaustive checks on a small code (k = 11, n = 15)."""

    def setup_method(self):
        self.code = HammingSEC(11)

    def test_dimensions(self):
        assert (self.code.k, self.code.r, self.code.n) == (11, 4, 15)

    def test_roundtrip_all_values(self):
        for data in range(1 << 11):
            codeword = self.code.encode(data)
            assert self.code.syndrome(codeword) == 0
            assert self.code.extract_data(codeword) == data

    def test_corrects_every_single_bit_error(self):
        data = 0b10110011010
        codeword = self.code.encode(data)
        for position in range(self.code.n):
            result = self.code.correct(codeword ^ (1 << position))
            assert result.valid
            assert result.flipped_position == position
            assert result.corrected_word == codeword
            assert result.data == data

    def test_error_position_names_the_flipped_bit(self):
        codeword = self.code.encode(0b10110011010)
        for position in range(self.code.n):
            syndrome = self.code.syndrome(codeword ^ (1 << position))
            assert self.code.error_position(syndrome) == position
        assert self.code.error_position(0) is None
        # The paper code's 10 check bits reach past its 553-bit codeword.
        paper = HammingSEC(543)
        assert paper.error_position(paper.n) == paper.n - 1
        assert paper.error_position(paper.n + 1) is None

    def test_double_error_miscorrects_or_flags(self):
        # With two errors a plain SEC code either miscorrects (flips an
        # innocent third bit) or reports an out-of-range syndrome; it
        # never returns the original codeword.
        data = 0b01010101010
        codeword = self.code.encode(data)
        rng = random.Random(7)
        for _ in range(100):
            p1, p2 = rng.sample(range(self.code.n), 2)
            corrupted = codeword ^ (1 << p1) ^ (1 << p2)
            result = self.code.correct(corrupted)
            assert result.corrected_word != codeword

    def test_oversized_data_rejected(self):
        with pytest.raises(ValueError):
            self.code.encode(1 << 11)

    def test_oversized_codeword_rejected(self):
        with pytest.raises(ValueError):
            self.code.syndrome(1 << 15)


class TestHammingSECPaperSize:
    """Sampled checks on the 543-bit payload code the engines use."""

    def setup_method(self):
        self.code = HammingSEC(543)

    def test_dimensions(self):
        assert (self.code.k, self.code.r, self.code.n) == (543, 10, 553)

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(25):
            data = rng.getrandbits(543)
            codeword = self.code.encode(data)
            assert self.code.syndrome(codeword) == 0
            assert self.code.extract_data(codeword) == data

    def test_single_bit_correction_sampled(self):
        rng = random.Random(12)
        data = rng.getrandbits(543)
        codeword = self.code.encode(data)
        for position in rng.sample(range(553), 60):
            result = self.code.correct(codeword ^ (1 << position))
            assert result.valid
            assert result.corrected_word == codeword
            assert result.data == data


def _oracle_data_shifts(k):
    """Codeword bit of each data bit, derived without the code under test:
    data fills the non-power-of-two 1-based positions in order."""
    shifts, position = [], 0
    while len(shifts) < k:
        position += 1
        if position & (position - 1):
            shifts.append(position - 1)
    return shifts


def _oracle_scatter(shifts, data):
    """The original per-bit scatter loop."""
    codeword = 0
    for data_index, shift in enumerate(shifts):
        if (data >> data_index) & 1:
            codeword |= 1 << shift
    return codeword


def _oracle_gather(shifts, codeword):
    """The original per-bit gather loop."""
    data = 0
    for data_index, shift in enumerate(shifts):
        if (codeword >> shift) & 1:
            data |= 1 << data_index
    return data


def _oracle_syndrome(codeword):
    """XOR of the 1-based positions of every set codeword bit."""
    value, position = 0, 1
    while codeword:
        if codeword & 1:
            value ^= position
        codeword >>= 1
        position += 1
    return value


def _oracle_encode(shifts, data):
    """Scatter, then set check bit 2^j for every set syndrome bit j."""
    codeword = _oracle_scatter(shifts, data)
    syndrome = _oracle_syndrome(codeword)
    j = 0
    while syndrome >> j:
        if (syndrome >> j) & 1:
            codeword |= 1 << ((1 << j) - 1)
        j += 1
    return codeword


class TestRunScatterGatherDifferential:
    """The run-based scatter/gather against the per-bit oracle, k = 1..600."""

    def test_every_width_matches_oracle(self):
        rng = random.Random(2024)
        for k in range(1, 601):
            code = HammingSEC(k)
            shifts = _oracle_data_shifts(k)
            assert code._data_cw_shift == shifts
            # At most one run per gap between check positions.
            assert len(code._runs) <= code.r - 1
            values = [0, (1 << k) - 1] + [rng.getrandbits(k) for _ in range(3)]
            for data in values:
                codeword = code.encode(data)
                assert codeword == _oracle_encode(shifts, data)
                assert code._scatter(data) == _oracle_scatter(shifts, data)
                assert code.extract_data(codeword) == data
                assert code.syndrome(codeword) == 0
                for nflips in (1, 2, 3):
                    positions = rng.sample(range(code.n), min(nflips, code.n))
                    word = codeword
                    for position in positions:
                        word ^= 1 << position
                    assert code.extract_data(word) == _oracle_gather(shifts, word)
                    syndrome = _oracle_syndrome(word)
                    assert code.syndrome(word) == syndrome
                    result = code.correct(word)
                    if syndrome == 0:
                        expected = (word, None, True)
                    elif syndrome > code.n:
                        expected = (word, None, False)
                    else:
                        expected = (word ^ (1 << (syndrome - 1)), syndrome - 1, True)
                    assert (
                        result.corrected_word, result.flipped_position, result.valid
                    ) == expected
                    assert result.data == _oracle_gather(shifts, result.corrected_word)

    def test_paper_layout_has_nine_runs(self):
        assert len(HammingSEC(543)._runs) == 9

    @pytest.mark.parametrize("k", [1, 11, 543])
    def test_range_errors_unchanged(self, k):
        code = HammingSEC(k)
        for bad in (-1, 1 << k):
            with pytest.raises(ValueError):
                code.encode(bad)
        for bad in (-1, 1 << code.n):
            with pytest.raises(ValueError):
                code.extract_data(bad)
            with pytest.raises(ValueError):
                code.syndrome(bad)
            with pytest.raises(ValueError):
                code.correct(bad)


class TestHammingSECDED:
    def setup_method(self):
        self.code = HammingSECDED(64)

    def test_dimensions(self):
        inner = HammingSEC(64)
        assert self.code.n == inner.n + 1
        assert self.code.r == inner.r + 1

    def test_clean_roundtrip(self):
        rng = random.Random(13)
        for _ in range(30):
            data = rng.getrandbits(64)
            codeword = self.code.encode(data)
            result = self.code.correct(codeword)
            assert not result.double_error_detected
            assert result.flipped_position is None
            assert result.data == data

    def test_single_error_corrected(self):
        rng = random.Random(14)
        data = rng.getrandbits(64)
        codeword = self.code.encode(data)
        for position in rng.sample(range(self.code.n), 30):
            result = self.code.correct(codeword ^ (1 << position))
            assert not result.double_error_detected
            assert result.data == data

    def test_double_error_detected_never_miscorrected(self):
        rng = random.Random(15)
        data = rng.getrandbits(64)
        codeword = self.code.encode(data)
        for _ in range(200):
            p1, p2 = rng.sample(range(self.code.n), 2)
            result = self.code.correct(codeword ^ (1 << p1) ^ (1 << p2))
            assert result.double_error_detected
            assert result.flipped_position is None


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=(1 << 57) - 1))
def test_property_encode_decode_roundtrip(data):
    code = HammingSEC(57)
    assert code.decode(code.encode(data)) == data


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=(1 << 57) - 1), st.data())
def test_property_single_error_always_corrected(data, draw):
    code = HammingSEC(57)
    codeword = code.encode(data)
    position = draw.draw(st.integers(min_value=0, max_value=code.n - 1))
    result = code.correct(codeword ^ (1 << position))
    assert result.valid and result.data == data
