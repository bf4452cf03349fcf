"""The numpy backend's one-gather line check equals the line decode.

``NumpyBackend.batch_decode`` classifies each word from its affine check
vector (syndrome and CRC residue in one uint64, see
:mod:`repro.kernels.numpy_backend`).  Every decode it returns must equal
the CRC+Hamming definition (``LineCodec.decode_by_definition``) and the
scalar ``LineCodec.decode`` element-wise -- status, repaired word,
payload and flipped position -- for any batch size, any fault pattern
and any eligible layout; an ineligible codec must take the scalar path.
The scalar decode classifies by the same check-vector columns, so the
definition is what anchors the two.
"""

import random

import pytest

from repro.coding.bitvec import random_bits
from repro.core.layout import LineLayout
from repro.core.linecodec import DecodeStatus, LineCodec
from repro.kernels import get_backend
from repro.kernels.numpy_backend import _tables_for

NUMPY = get_backend("numpy")


def _random_words(codec, count, rng, max_flips=5):
    """Codewords of random data with 0..max_flips random bit flips."""
    words = []
    for _ in range(count):
        word = codec.encode(random_bits(codec.layout.data_bits, rng))
        for _ in range(rng.randrange(max_flips + 1)):
            word ^= 1 << rng.randrange(codec.stored_bits)
        words.append(word)
    return words


def _assert_matches_scalar(codec, words):
    decoded = NUMPY.batch_decode(codec, words)
    assert decoded == [codec.decode_by_definition(word) for word in words]
    assert decoded == [codec.decode(word) for word in words]
    return decoded


@pytest.mark.parametrize("size", [1, 2, 3, 4000])
def test_batches_match_scalar_decode(size):
    codec = LineCodec()
    words = _random_words(codec, size, random.Random(size))
    decoded = _assert_matches_scalar(codec, words)
    if size == 4000:
        statuses = {decode.status for decode in decoded}
        assert statuses == set(DecodeStatus)


@pytest.mark.parametrize("layout", [LineLayout(), LineLayout(data_bits=256)])
def test_single_flips_in_every_region(layout):
    """One flip in the data, CRC and check-bit regions is CORRECTED."""
    codec = LineCodec(layout)
    ecc = layout.ecc
    base = codec.encode(random_bits(layout.data_bits, random.Random(3)))
    check_bits = [(1 << j) - 1 for j in range(ecc.r)]
    data_bits = [ecc._data_cw_shift[j] for j in (0, layout.data_bits - 1)]
    crc_bits = [
        ecc._data_cw_shift[j]
        for j in (layout.data_bits, layout.payload_bits - 1)
    ]
    positions = check_bits + data_bits + crc_bits
    words = [base ^ (1 << position) for position in positions]
    decoded = _assert_matches_scalar(codec, words)
    for position, decode in zip(positions, decoded):
        assert decode.status is DecodeStatus.CORRECTED
        assert decode.flipped_position == position
        assert decode.word == base


def test_every_single_flip_of_the_zero_codeword():
    """The codeword of all-zero data, each of its single flips, and the
    all-zero stored word (not a codeword: its CRC field is wrong)."""
    codec = LineCodec()
    zero = codec.encode(0)
    flips = [zero ^ (1 << p) for p in range(codec.stored_bits)]
    decoded = _assert_matches_scalar(codec, [zero] + flips + [0])
    assert decoded[0].status is DecodeStatus.CLEAN
    assert all(d.status is DecodeStatus.CORRECTED for d in decoded[1:-1])


def test_non_default_layout_random_faults():
    codec = LineCodec(LineLayout(data_bits=128))
    _assert_matches_scalar(codec, _random_words(codec, 3000, random.Random(8)))


class _CountingCodec(LineCodec):
    """A LineCodec subclass: ineligible, since it may override decode."""

    def __init__(self):
        super().__init__()
        self.decodes = 0

    def decode(self, word):
        self.decodes += 1
        return super().decode(word)


def test_ineligible_codec_falls_back_to_scalar_decode():
    codec = _CountingCodec()
    assert _tables_for(codec) is None
    words = _random_words(codec, 7, random.Random(9))
    expected = [LineCodec.decode(codec, word) for word in words]
    assert NUMPY.batch_decode(codec, words) == expected
    assert NUMPY.batch_decode_clean(codec, words[:3]) == expected[:3]
    assert codec.decodes == 10
