"""Unit and property tests for the SuDoku line format (layout + codec)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.bitvec import random_error_vector
from repro.core.layout import LineLayout
from repro.core import linecodec
from repro.core.linecodec import DecodeStatus, LineCodec, LineDecode


class TestLayout:
    def test_paper_dimensions(self):
        layout = LineLayout()
        assert layout.data_bits == 512
        assert layout.crc_bits == 31
        assert layout.payload_bits == 543
        assert layout.ecc_bits == 10          # section II-D: "10 bits per line"
        assert layout.stored_bits == 553
        assert layout.overhead_bits == 41     # CRC + ECC metadata per line

    def test_payload_composition_roundtrip(self):
        layout = LineLayout()
        data, crc = 0xABC, 0x1234
        payload = layout.compose_payload(data, crc)
        assert layout.split_payload(payload) == (data, crc)

    def test_composition_bounds(self):
        layout = LineLayout()
        with pytest.raises(ValueError):
            layout.compose_payload(1 << 512, 0)
        with pytest.raises(ValueError):
            layout.compose_payload(0, 1 << 31)

    def test_crc_width_must_match_engine(self):
        with pytest.raises(ValueError):
            LineLayout(crc_bits=16)


class TestCodecCleanPath:
    def setup_method(self):
        self.codec = LineCodec()
        self.rng = random.Random(31)

    def test_encode_verify_roundtrip(self):
        for _ in range(20):
            data = self.rng.getrandbits(512)
            word = self.codec.encode(data)
            assert self.codec.verify(word)
            decode = self.codec.decode(word)
            assert decode.status is DecodeStatus.CLEAN
            assert decode.data == data
            assert decode.word == word
            assert decode.ok

    def test_extract_data(self):
        data = self.rng.getrandbits(512)
        assert self.codec.extract_data(self.codec.encode(data)) == data

    def test_stored_bits(self):
        assert self.codec.stored_bits == 553


class TestCodecSingleBit:
    """ECC-1 must repair one fault anywhere: data, CRC, or ECC bits."""

    def setup_method(self):
        self.codec = LineCodec()
        self.rng = random.Random(32)
        self.data = self.rng.getrandbits(512)
        self.word = self.codec.encode(self.data)

    def test_every_sampled_position_repairable(self):
        for position in self.rng.sample(range(553), 80):
            decode = self.codec.decode(self.word ^ (1 << position))
            assert decode.status is DecodeStatus.CORRECTED
            assert decode.word == self.word
            assert decode.data == self.data
            assert decode.flipped_position == position

    def test_verify_rejects_single_fault(self):
        for position in self.rng.sample(range(553), 20):
            assert not self.codec.verify(self.word ^ (1 << position))


class TestCodecMultiBit:
    def setup_method(self):
        self.codec = LineCodec()
        self.rng = random.Random(33)
        self.data = self.rng.getrandbits(512)
        self.word = self.codec.encode(self.data)

    @pytest.mark.parametrize("weight", [2, 3, 4, 6])
    def test_multi_bit_faults_are_uncorrectable_not_miscorrected(self, weight):
        for _ in range(30):
            vector = random_error_vector(553, weight, self.rng)
            decode = self.codec.decode(self.word ^ vector)
            assert decode.status is DecodeStatus.UNCORRECTABLE
            assert decode.data is None
            assert not decode.ok

    def test_try_flip_and_repair_two_faults(self):
        # Flipping one true fault position makes the line ECC-1-repairable
        # (the SDR inner step, Fig. 3).
        vector = random_error_vector(553, 2, self.rng)
        corrupted = self.word ^ vector
        positions = [p for p in range(553) if (vector >> p) & 1]
        repaired = self.codec.try_flip_and_repair(corrupted, positions[0])
        assert repaired == self.word

    def test_try_flip_wrong_position_fails(self):
        vector = random_error_vector(553, 2, self.rng)
        corrupted = self.word ^ vector
        wrong = next(p for p in range(553) if not (vector >> p) & 1)
        assert self.codec.try_flip_and_repair(corrupted, wrong) is None

    def test_try_flip_bounds(self):
        with pytest.raises(ValueError):
            self.codec.try_flip_and_repair(self.word, 553)


class _OracleCodec:
    """The line decode as first written, from per-bit reference parts.

    Per-bit payload gather, per-bit syndrome (XOR of the 1-based
    positions of set bits), the byte-table CRC over little-endian bytes,
    and a repair that recomputes the syndrome and payload of the
    corrected word -- everything the word-speed codec replaced.
    """

    def __init__(self, layout):
        self.layout = layout
        self.n = layout.stored_bits
        self.shifts = [p - 1 for p in range(1, self.n + 1) if p & (p - 1)]

    def gather(self, word):
        payload = 0
        for index, shift in enumerate(self.shifts):
            if (word >> shift) & 1:
                payload |= 1 << index
        return payload

    def syndrome(self, word):
        value = 0
        for position in range(1, self.n + 1):
            if (word >> (position - 1)) & 1:
                value ^= position
        return value

    def split_and_check(self, word):
        payload = self.gather(word)
        data = payload & ((1 << self.layout.data_bits) - 1)
        stored = payload >> self.layout.data_bits
        computed = self.layout.crc.compute(
            data.to_bytes(self.layout.data_bits // 8, "little")
        )
        return data, computed == stored

    def decode(self, word):
        data, crc_ok = self.split_and_check(word)
        syndrome = self.syndrome(word)
        if crc_ok and syndrome == 0:
            return LineDecode(DecodeStatus.CLEAN, word, data)
        if 0 < syndrome <= self.n:
            corrected = word ^ (1 << (syndrome - 1))
            fixed_data, fixed_ok = self.split_and_check(corrected)
            if fixed_ok:
                return LineDecode(
                    DecodeStatus.CORRECTED, corrected, fixed_data, syndrome - 1
                )
        return LineDecode(DecodeStatus.UNCORRECTABLE, word, None)

    def try_flip_and_repair(self, word, position):
        result = self.decode(word ^ (1 << position))
        if result.status is DecodeStatus.UNCORRECTABLE:
            return None
        return result.word


class TestLineDecode:
    """The decode record's fields, default, ``ok``, equality and repr."""

    def test_fields_and_default(self):
        assert LineDecode._fields == ("status", "word", "data", "flipped_position")
        decode = LineDecode(DecodeStatus.CLEAN, 5, 7)
        assert decode.flipped_position is None
        assert (decode.status, decode.word, decode.data) == (
            DecodeStatus.CLEAN, 5, 7,
        )
        with pytest.raises(AttributeError):
            decode.word = 6

    def test_ok(self):
        assert LineDecode(DecodeStatus.CLEAN, 1, 1).ok
        assert LineDecode(DecodeStatus.CORRECTED, 1, 1, 3).ok
        assert not LineDecode(DecodeStatus.UNCORRECTABLE, 1, None).ok

    def test_equality(self):
        decode = LineDecode(DecodeStatus.CORRECTED, 9, 4, 2)
        assert decode == LineDecode(DecodeStatus.CORRECTED, 9, 4, 2)
        assert decode != LineDecode(DecodeStatus.CORRECTED, 9, 4, 3)
        assert decode != LineDecode(DecodeStatus.CLEAN, 9, 4, 2)

    def test_repr(self):
        assert repr(LineDecode(DecodeStatus.CORRECTED, 9, None, 2)) == (
            "LineDecode(status=<DecodeStatus.CORRECTED: 'corrected'>, "
            "word=9, data=None, flipped_position=2)"
        )


class TestDecodeDifferential:
    """decode / try_flip_and_repair against the oracle on 0-8 fault words."""

    def setup_method(self):
        self.codec = LineCodec()
        self.oracle = _OracleCodec(self.codec.layout)
        self.n = self.codec.stored_bits

    def _path(self, word):
        syndrome = self.oracle.syndrome(word)
        _, crc_ok = self.oracle.split_and_check(word)
        if syndrome == 0:
            return "clean" if crc_ok else "syndrome0_crc_bad"
        if syndrome > self.n:
            return "syndrome_beyond_n"
        decode = self.oracle.decode(word)
        if decode.status is DecodeStatus.CORRECTED:
            return "corrected"
        return "crc_rejected_miscorrection"

    def test_fault_words_match_oracle(self):
        rng = random.Random(1401)
        paths = {}
        for _ in range(90):
            data = rng.getrandbits(512)
            word = self.codec.encode(data)
            assert word == self.codec._ecc.encode(
                data | (self.codec.layout.crc.compute(
                    data.to_bytes(64, "little")) << 512)
            )
            for nfaults in range(9):
                vector = random_error_vector(self.n, nfaults, rng)
                faulty = word ^ vector
                path = self._path(faulty)
                paths[path] = paths.get(path, 0) + 1
                assert self.codec.decode(faulty) == self.oracle.decode(faulty)
                if nfaults:
                    fault = rng.choice(
                        [p for p in range(self.n) if (vector >> p) & 1]
                    )
                    innocent = rng.choice(
                        [p for p in range(self.n) if not (vector >> p) & 1]
                    )
                    for position in (fault, innocent):
                        assert self.codec.try_flip_and_repair(
                            faulty, position
                        ) == self.oracle.try_flip_and_repair(faulty, position)
        for path in ("clean", "corrected", "syndrome_beyond_n",
                     "crc_rejected_miscorrection"):
            assert paths.get(path, 0) > 0, (path, paths)

    def test_valid_codeword_with_inconsistent_crc(self):
        # Flip a payload data bit and re-encode the Hamming layer only:
        # syndrome 0 with a bad CRC, the one path random faults rarely
        # reach.
        rng = random.Random(1402)
        ecc = self.codec._ecc
        for _ in range(10):
            data = rng.getrandbits(512)
            payload = ecc.extract_data(self.codec.encode(data))
            word = ecc.encode(payload ^ (1 << rng.randrange(512)))
            assert self._path(word) == "syndrome0_crc_bad"
            decode = self.codec.decode(word)
            assert decode == self.oracle.decode(word)
            assert decode.status is DecodeStatus.UNCORRECTABLE

    def test_range_errors_unchanged(self):
        for bad in (-1, 1 << self.n):
            with pytest.raises(ValueError):
                self.codec.decode(bad)
            with pytest.raises(ValueError):
                self.codec.verify(bad)
        for bad in (-1, 1 << 512):
            with pytest.raises(ValueError):
                self.codec.encode(bad)
        for position in (-1, self.n):
            with pytest.raises(ValueError):
                self.codec.try_flip_and_repair(self.codec.encode(0), position)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 512) - 1))
def test_property_roundtrip(data):
    codec = LineCodec()
    decode = codec.decode(codec.encode(data))
    assert decode.status is DecodeStatus.CLEAN and decode.data == data


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=(1 << 512) - 1),
    st.integers(min_value=0, max_value=552),
)
def test_property_single_fault_repaired(data, position):
    codec = LineCodec()
    word = codec.encode(data)
    decode = codec.decode(word ^ (1 << position))
    assert decode.status is DecodeStatus.CORRECTED and decode.data == data


class TestEncodeMany:
    """``encode_many`` equals a scalar ``encode`` per word, in order."""

    @pytest.mark.parametrize("layout", [LineLayout(), LineLayout(data_bits=128)])
    def test_structured_words(self, layout):
        codec = LineCodec(layout)
        k = layout.data_bits
        words = [0, (1 << k) - 1] + [1 << bit for bit in range(k)]
        assert codec.encode_many(words) == [codec.encode(word) for word in words]
        assert linecodec._LINE_TABLES.get(layout) is not None

    def test_empty_batch(self):
        assert LineCodec().encode_many([]) == []

    def test_out_of_range_data_raises(self):
        codec = LineCodec()
        for bad in (-1, 1 << 512):
            with pytest.raises(ValueError):
                codec.encode_many([0, bad])

    def test_subclass_takes_the_scalar_path(self):
        class CountingCodec(LineCodec):
            calls = 0

            def encode(self, data):
                CountingCodec.calls += 1
                return super().encode(data)

        codec = CountingCodec()
        rng = random.Random(4)
        words = [rng.getrandbits(512) for _ in range(5)]
        assert codec.encode_many(words) == [
            LineCodec.encode(codec, word) for word in words
        ]
        assert CountingCodec.calls == len(words)

    def test_non_byte_aligned_layout_takes_the_scalar_path(self):
        layout = _BitLayout(data_bits=60)
        codec = LineCodec(layout)
        rng = random.Random(6)
        words = [0, (1 << 60) - 1, 1 << 59] + [rng.getrandbits(60) for _ in range(8)]
        assert codec.encode_many(words) == [codec.encode(word) for word in words]
        assert layout not in linecodec._LINE_TABLES


class _BitLayout(LineLayout):
    """A layout over any data width: bit-serial CRC, no byte alignment."""

    def __post_init__(self) -> None:
        pass

    def compute_crc(self, data: int) -> int:
        return self.crc.compute_bits(data, self.data_bits)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 512) - 1), max_size=40))
def test_property_encode_many_matches_encode(words):
    codec = LineCodec()
    assert codec.encode_many(words) == [codec.encode(word) for word in words]


@pytest.mark.parametrize("layout", [LineLayout(), LineLayout(data_bits=256)])
class TestDecodeMatchesDefinition:
    """The table decode equals the CRC+Hamming definition, called directly.

    ``decode`` classifies by the check-vector columns, and so does the
    numpy backend, so this is what anchors both to the codes.
    """

    def _assert_matches(self, codec, words):
        for word in words:
            expected = codec.decode_by_definition(word)
            assert codec.decode(word) == expected
            assert codec.verify(word) is (expected.status is DecodeStatus.CLEAN)

    def test_tables_are_in_use(self, layout):
        codec = LineCodec(layout)
        assert codec._tables is not None
        assert codec._tables is linecodec.line_tables(LineCodec(layout))

    def test_every_single_flip(self, layout):
        codec = LineCodec(layout)
        base = codec.encode(random.Random(11).getrandbits(layout.data_bits))
        words = [base] + [base ^ (1 << p) for p in range(codec.stored_bits)]
        self._assert_matches(codec, words)
        assert all(
            codec.decode(word).status is DecodeStatus.CORRECTED
            for word in words[1:]
        )

    def test_double_flips_within_and_across_regions(self, layout):
        codec = LineCodec(layout)
        ecc = layout.ecc
        regions = {
            "check": [(1 << j) - 1 for j in range(ecc.r)],
            "data": [ecc._data_cw_shift[i] for i in range(0, layout.data_bits, 37)],
            "crc": [
                ecc._data_cw_shift[i]
                for i in range(layout.data_bits, layout.payload_bits, 5)
            ],
        }
        base = codec.encode(random.Random(12).getrandbits(layout.data_bits))
        words = [
            base ^ (1 << p) ^ (1 << q)
            for first in regions.values()
            for second in regions.values()
            for p in first
            for q in second
            if p != q
        ]
        self._assert_matches(codec, words)

    def test_random_words_with_two_to_five_flips(self, layout):
        codec = LineCodec(layout)
        rng = random.Random(13)
        words = []
        for _ in range(150):
            word = codec.encode(rng.getrandbits(layout.data_bits))
            for flips in range(2, 6):
                words.append(
                    word ^ random_error_vector(codec.stored_bits, flips, rng)
                )
        self._assert_matches(codec, words)

    def test_syndromes_beyond_n(self, layout):
        codec = LineCodec(layout)
        n = codec.stored_bits
        base = codec.encode(random.Random(14).getrandbits(layout.data_bits))
        pairs = [
            (p, q) for p in range(0, n, 7) for q in range(p + 1, n, 11)
            if (p + 1) ^ (q + 1) > n
        ]
        assert pairs
        words = [base ^ (1 << p) ^ (1 << q) for p, q in pairs]
        assert all(layout.ecc.syndrome(word) > n for word in words)
        self._assert_matches(codec, words)

    def test_valid_hamming_codeword_with_a_bad_crc(self, layout):
        codec = LineCodec(layout)
        ecc = layout.ecc
        rng = random.Random(15)
        payload = ecc.extract_data(codec.encode(rng.getrandbits(layout.data_bits)))
        word = ecc.encode(payload ^ (1 << rng.randrange(layout.data_bits)))
        assert ecc.syndrome(word) == 0
        self._assert_matches(codec, [word])
        assert codec.decode(word).status is DecodeStatus.UNCORRECTABLE

    def test_out_of_range_words_raise(self, layout):
        codec = LineCodec(layout)
        for bad in (-1, 1 << codec.stored_bits, (1 << (codec.stored_bits + 3)) - 1):
            for method in (codec.decode, codec.decode_by_definition, codec.verify):
                with pytest.raises(ValueError, match="does not fit"):
                    method(bad)
