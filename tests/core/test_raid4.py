"""Unit tests for RAID-Group scanning and RAID-4 reconstruction."""

import copy
import random

import pytest

from repro.coding.bitvec import random_error_vector
from repro.core.linecodec import LineCodec
from repro.core.outcomes import Outcome
from repro.core.plt_ import ParityLineTable
from repro.core.raid4 import reconstruct_line, scan_group
from repro.core.sdr import resurrect
from repro.sttram.array import STTRAMArray
from repro.sttram.faults import FaultKind, PermanentFaultMap


@pytest.fixture
def group():
    """An 8-line group with random content and a consistent parity."""
    rng = random.Random(41)
    codec = LineCodec()
    array = STTRAMArray(8, codec.stored_bits)
    plt = ParityLineTable(1, codec.stored_bits)
    words = []
    for frame in range(8):
        word = codec.encode(rng.getrandbits(512))
        array.write(frame, word)
        words.append(word)
    plt.rebuild(0, words)
    return rng, codec, array, plt


class TestScanGroup:
    def test_clean_group(self, group):
        rng, codec, array, plt = group
        scan = scan_group(array, codec, 0, range(8))
        assert scan.uncorrectable == []
        assert scan.line_outcomes == {}
        assert plt.mismatch(0, [scan.words[f] for f in scan.frames]) == 0

    def test_single_bit_faults_fixed_in_place(self, group):
        rng, codec, array, plt = group
        array.inject(2, 1 << 17)
        array.inject(5, 1 << 400)
        scan = scan_group(array, codec, 0, range(8))
        assert scan.uncorrectable == []
        assert scan.line_outcomes == {
            2: Outcome.CORRECTED_ECC1,
            5: Outcome.CORRECTED_ECC1,
        }
        assert array.is_clean(2) and array.is_clean(5)

    def test_multibit_fault_classified_uncorrectable(self, group):
        rng, codec, array, plt = group
        array.inject(3, random_error_vector(553, 4, rng))
        scan = scan_group(array, codec, 0, range(8))
        assert scan.uncorrectable == [3]
        # The faulty line's *raw* word participates in the scan words.
        assert scan.words[3] == array.read(3)


class TestReconstructLine:
    def test_rebuilds_single_faulty_line(self, group):
        rng, codec, array, plt = group
        golden = array.golden(3)
        array.inject(3, random_error_vector(553, 6, rng))
        scan = scan_group(array, codec, 0, range(8))
        rebuilt = reconstruct_line(array, codec, plt, scan, 3)
        assert rebuilt == golden
        assert array.is_clean(3)
        assert scan.uncorrectable == []
        assert scan.line_outcomes[3] is Outcome.CORRECTED_RAID4

    def test_rebuild_with_other_single_bit_faults(self, group):
        rng, codec, array, plt = group
        array.inject(0, 1 << 5)           # single-bit, fixed by the scan
        array.inject(6, random_error_vector(553, 3, rng))
        scan = scan_group(array, codec, 0, range(8))
        assert reconstruct_line(array, codec, plt, scan, 6) == array.golden(6)

    def test_rebuild_fails_when_second_line_corrupt(self, group):
        rng, codec, array, plt = group
        array.inject(1, random_error_vector(553, 2, rng))
        array.inject(4, random_error_vector(553, 2, rng))
        scan = scan_group(array, codec, 0, range(8))
        # Rebuilding 1 XORs in 4's corruption: CRC rejects the candidate.
        assert reconstruct_line(array, codec, plt, scan, 1) is None
        assert not array.is_clean(1)

    def test_rejects_non_member(self, group):
        rng, codec, array, plt = group
        scan = scan_group(array, codec, 0, range(4))
        with pytest.raises(ValueError):
            reconstruct_line(array, codec, plt, scan, 7)


STUCK_CONFLICT = 3  # stuck against its golden bit: permanently dirty
STUCK_MATCH = 4  # stuck at the bit it already holds: clean


def _stuck_at(codec, word, polarity):
    """A bit position of ``word`` holding ``polarity``."""
    return next(
        bit for bit in range(codec.stored_bits) if (word >> bit) & 1 == polarity
    )


@pytest.fixture
def twins():
    """Two copies of a 16-line group: fill, written and stuck members.

    The parity is the XOR of the golden words.  Returns the rng, the
    codec, a (trusted, dense) pair of arrays and the parity table.
    """
    rng = random.Random(23)
    codec = LineCodec()
    array = STTRAMArray(16, codec.stored_bits)
    array.fill_word(codec.encode(0))
    for frame in (0, 2, 3, 4, 6, 7, 9, 11, 13):
        array.write(frame, codec.encode(rng.getrandbits(512)))
    fault_map = PermanentFaultMap(codec.stored_bits)
    for frame, polarity in ((STUCK_CONFLICT, 0), (STUCK_MATCH, 1)):
        bit = _stuck_at(codec, array.golden(frame), polarity)
        fault_map.add(frame, bit, FaultKind.STUCK_AT_ONE)
    array.attach_permanent_faults(fault_map)
    assert array.is_dirty(STUCK_CONFLICT) and not array.is_dirty(STUCK_MATCH)
    plt = ParityLineTable(1, codec.stored_bits)
    plt.rebuild(0, [array.golden(frame) for frame in range(16)])
    return rng, codec, (array, copy.deepcopy(array)), plt


def _state(array):
    return list(array), array.dirty_frames()


def _scan_twins(codec, arrays):
    trusted_array, dense_array = arrays
    trusted = scan_group(trusted_array, codec, 0, range(16), trusted_clean=True)
    dense = scan_group(dense_array, codec, 0, range(16))
    return trusted, dense


def _assert_twins(trusted, dense, arrays):
    assert trusted.frames == dense.frames
    assert trusted.xor_of_words() == dense.xor_of_words()
    assert trusted.uncorrectable == dense.uncorrectable
    assert trusted.line_outcomes == dense.line_outcomes
    assert _state(arrays[0]) == _state(arrays[1])


class TestTrustedScanEqualsDense:
    """A trusted scan tracks only dirty members, with dense results."""

    def test_scan_and_raid4(self, twins):
        rng, codec, arrays, plt = twins
        vector = random_error_vector(553, 5, rng)
        for array in arrays:
            array.inject(0, 1 << 17)  # single-bit: ECC-1
            array.inject(7, vector)  # multi-bit: RAID-4
        trusted, dense = _scan_twins(codec, arrays)
        assert list(trusted.words) == [0, STUCK_CONFLICT, 7]
        assert dense.clean_xor == 0 and list(dense.words) == dense.frames
        assert trusted.uncorrectable == [7]
        _assert_twins(trusted, dense, arrays)

        rebuilt = [
            reconstruct_line(array, codec, plt, scan, 7)
            for array, scan in zip(arrays, (trusted, dense))
        ]
        assert rebuilt[0] == rebuilt[1] == arrays[0].golden(7)
        _assert_twins(trusted, dense, arrays)

    def test_untracked_clean_target_is_tracked_first(self, twins):
        rng, codec, arrays, plt = twins
        trusted, dense = _scan_twins(codec, arrays)
        assert STUCK_MATCH not in trusted.words
        rebuilt = [
            reconstruct_line(array, codec, plt, scan, STUCK_MATCH)
            for array, scan in zip(arrays, (trusted, dense))
        ]
        assert rebuilt[0] == rebuilt[1] == arrays[0].golden(STUCK_MATCH)
        assert trusted.words[STUCK_MATCH] == dense.words[STUCK_MATCH]
        _assert_twins(trusted, dense, arrays)

    def test_sdr(self, twins):
        rng, codec, arrays, plt = twins
        for array in arrays:
            array.inject(5, (1 << 10) | (1 << 20))
            array.inject(9, (1 << 30) | (1 << 40))
            array.inject(14, 1 << 99)
        trusted, dense = _scan_twins(codec, arrays)
        assert trusted.uncorrectable == [5, 9]
        reports = [
            resurrect(array, codec, plt, scan, max_mismatches=6)
            for array, scan in zip(arrays, (trusted, dense))
        ]
        assert reports[0] == reports[1]
        assert reports[0].trials > 0
        _assert_twins(trusted, dense, arrays)
        assert arrays[0].is_clean(5) or arrays[0].is_clean(9)
