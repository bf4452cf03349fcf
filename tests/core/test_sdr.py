"""Unit tests for Sequential Data Resurrection (section IV)."""

import random

import pytest

from repro.coding.bitvec import random_error_vector
from repro.core.ecc2 import ECC2LineCodec
from repro.core.linecodec import LineCodec, line_tables
from repro.core.plt_ import ParityLineTable
from repro.core.raid4 import reconstruct_line, scan_group
from repro.core.sdr import flip_search, resurrect
from repro.sttram.array import STTRAMArray

GROUP = 16
WIDTH = 553


@pytest.fixture
def group():
    rng = random.Random(77)
    codec = LineCodec()
    array = STTRAMArray(GROUP, codec.stored_bits)
    plt = ParityLineTable(1, codec.stored_bits)
    words = []
    for frame in range(GROUP):
        word = codec.encode(rng.getrandbits(512))
        array.write(frame, word)
        words.append(word)
    plt.rebuild(0, words)
    return rng, codec, array, plt


def scan(codec, array):
    return scan_group(array, codec, 0, range(GROUP))


def inject_two_bit(array, rng, frame, positions=None):
    if positions is None:
        vector = random_error_vector(WIDTH, 2, rng)
    else:
        vector = 0
        for position in positions:
            vector |= 1 << position
    array.inject(frame, vector)
    return vector


class TestFig3Scenarios:
    def test_case1_no_overlap(self, group):
        """Fig. 3(a): disjoint fault pairs -> both lines recovered."""
        rng, codec, array, plt = group
        inject_two_bit(array, rng, 1, [10, 20])
        inject_two_bit(array, rng, 2, [30, 40])
        state = scan(codec, array)
        report = resurrect(array, codec, plt, state, max_mismatches=6)
        # SDR resurrects at least one line; RAID-4 finishes a survivor.
        if state.uncorrectable:
            assert len(state.uncorrectable) == 1
            assert reconstruct_line(
                array, codec, plt, state, state.uncorrectable[0]
            ) is not None
        assert array.is_clean(1) and array.is_clean(2)
        assert report.trials > 0

    def test_case2_one_overlap(self, group):
        """Fig. 3(b): one shared position -> still fully recoverable."""
        rng, codec, array, plt = group
        inject_two_bit(array, rng, 1, [10, 20])
        inject_two_bit(array, rng, 2, [10, 40])
        state = scan(codec, array)
        resurrect(array, codec, plt, state, max_mismatches=6)
        if state.uncorrectable:
            assert len(state.uncorrectable) == 1
            assert reconstruct_line(
                array, codec, plt, state, state.uncorrectable[0]
            ) is not None
        assert array.is_clean(1) and array.is_clean(2)

    def test_case3_full_overlap_unrecoverable(self, group):
        """Fig. 3(c): identical fault pairs cancel in the parity."""
        rng, codec, array, plt = group
        inject_two_bit(array, rng, 1, [10, 20])
        inject_two_bit(array, rng, 2, [10, 20])
        state = scan(codec, array)
        report = resurrect(array, codec, plt, state, max_mismatches=6)
        assert sorted(state.uncorrectable) == [1, 2]
        assert report.resurrected_frames == []
        assert report.mismatch_positions == 0


class TestFig4AndBeyond:
    def test_two_plus_three_fault_lines(self, group):
        """Fig. 4: SDR fixes the 2-fault line, RAID-4 the 3-fault one."""
        rng, codec, array, plt = group
        inject_two_bit(array, rng, 3, [100, 200])
        array.inject(4, (1 << 300) | (1 << 310) | (1 << 320))
        state = scan(codec, array)
        resurrect(array, codec, plt, state, max_mismatches=6)
        assert state.uncorrectable == [4]
        assert reconstruct_line(array, codec, plt, state, 4) is not None
        assert array.is_clean(3) and array.is_clean(4)

    def test_three_two_fault_lines(self, group):
        """Section IV-C: three 2-fault lines, six mismatches, all repaired."""
        rng, codec, array, plt = group
        inject_two_bit(array, rng, 1, [10, 20])
        inject_two_bit(array, rng, 5, [30, 40])
        inject_two_bit(array, rng, 9, [50, 60])
        state = scan(codec, array)
        resurrect(array, codec, plt, state, max_mismatches=6)
        if state.uncorrectable:
            assert len(state.uncorrectable) == 1
            reconstruct_line(array, codec, plt, state, state.uncorrectable[0])
        for frame in (1, 5, 9):
            assert array.is_clean(frame)

    def test_mismatch_cap_respected(self, group):
        """Four 2-fault lines (8 mismatches) exceed the cap: no SDR."""
        rng, codec, array, plt = group
        for frame, base in ((1, 10), (3, 100), (5, 200), (7, 300)):
            inject_two_bit(array, rng, frame, [base, base + 5])
        state = scan(codec, array)
        report = resurrect(array, codec, plt, state, max_mismatches=6)
        assert report.gave_up_too_many_mismatches
        assert len(state.uncorrectable) == 4

    def test_mismatch_cap_can_be_raised(self, group):
        """The same pattern peels fine with a higher cap (ablation knob)."""
        rng, codec, array, plt = group
        for frame, base in ((1, 10), (3, 100), (5, 200), (7, 300)):
            inject_two_bit(array, rng, frame, [base, base + 5])
        state = scan(codec, array)
        resurrect(array, codec, plt, state, max_mismatches=8)
        if state.uncorrectable:
            assert len(state.uncorrectable) == 1
            reconstruct_line(array, codec, plt, state, state.uncorrectable[0])
        for frame in (1, 3, 5, 7):
            assert array.is_clean(frame)

    def test_mismatch_shrinks_after_each_fix(self, group):
        """Resurrections re-derive the mismatch (loop recomputation)."""
        rng, codec, array, plt = group
        inject_two_bit(array, rng, 2, [10, 20])
        inject_two_bit(array, rng, 6, [30, 40])
        state = scan(codec, array)
        report = resurrect(array, codec, plt, state, max_mismatches=6)
        assert report.mismatch_positions <= 4
        # The per-round history never grows for honest repairs.
        assert report.mismatch_history == sorted(
            report.mismatch_history, reverse=True
        )


class TestSDRReportWidths:
    def test_initial_width_recorded_not_final(self, group):
        """Regression: mismatch_positions was overwritten every round,
        recording the final (smallest) width instead of the initial one."""
        rng, codec, array, plt = group
        inject_two_bit(array, rng, 2, [10, 20])
        inject_two_bit(array, rng, 6, [30, 40])
        state = scan(codec, array)
        report = resurrect(array, codec, plt, state, max_mismatches=6)
        # Two disjoint 2-fault lines: the first round sees all 4 positions.
        assert report.mismatch_positions == 4
        assert report.mismatch_history[0] == 4
        # Later rounds saw fewer positions; the buggy code reported those.
        if len(report.mismatch_history) > 1:
            assert report.mismatch_history[-1] < 4

    def test_peak_width_tracks_maximum(self, group):
        rng, codec, array, plt = group
        inject_two_bit(array, rng, 2, [10, 20])
        inject_two_bit(array, rng, 6, [30, 40])
        state = scan(codec, array)
        report = resurrect(array, codec, plt, state, max_mismatches=6)
        assert report.peak_mismatch_positions == max(report.mismatch_history)
        assert report.peak_mismatch_positions >= report.mismatch_positions

    def test_give_up_records_oversized_initial_width(self, group):
        """Latency sizing needs the width SDR actually faced at entry."""
        rng, codec, array, plt = group
        for frame, base in ((1, 10), (3, 100), (5, 200), (7, 300)):
            inject_two_bit(array, rng, frame, [base, base + 5])
        state = scan(codec, array)
        report = resurrect(array, codec, plt, state, max_mismatches=6)
        assert report.gave_up_too_many_mismatches
        assert report.mismatch_positions == 8
        assert report.mismatch_history == [8]

    def test_zero_mismatch_history(self, group):
        rng, codec, array, plt = group
        inject_two_bit(array, rng, 1, [10, 20])
        inject_two_bit(array, rng, 2, [10, 20])
        state = scan(codec, array)
        report = resurrect(array, codec, plt, state, max_mismatches=6)
        assert report.mismatch_positions == 0
        assert report.peak_mismatch_positions == 0
        assert report.mismatch_history == [0]


class TestRandomisedSDR:
    def test_random_dual_two_fault_recovery_rate(self, group):
        """Random 2+2 patterns recover except for full overlaps (~100%)."""
        rng, codec, array, plt = group
        recovered = 0
        trials = 40
        for _ in range(trials):
            inject_two_bit(array, rng, 1)
            inject_two_bit(array, rng, 2)
            state = scan(codec, array)
            resurrect(array, codec, plt, state, max_mismatches=6)
            if len(state.uncorrectable) == 1:
                reconstruct_line(array, codec, plt, state, state.uncorrectable[0])
            if array.is_clean(1) and array.is_clean(2):
                recovered += 1
            # Heal for the next trial.
            for frame in array.faulty_lines():
                array.restore(frame, array.golden(frame))
        assert recovered == trials  # full overlap probability ~ 6.5e-6


def _trial_loop(codec, word, positions):
    """The per-position search: try_flip_and_repair until one repairs."""
    for trial, position in enumerate(positions, 1):
        repaired = codec.try_flip_and_repair(word, position)
        if repaired is not None:
            return trial, repaired
    return len(positions), None


class TestLinearSearch:
    """The stock codec's linear search equals the per-position loop."""

    @pytest.mark.parametrize("faults", [2, 3])
    def test_random_words_and_candidate_sets(self, faults):
        codec = LineCodec()
        tables = line_tables(codec)
        n = codec.stored_bits
        rng = random.Random(100 + faults)
        outcomes = set()
        for _ in range(120):
            word = codec.encode(rng.getrandbits(512))
            vector = random_error_vector(n, faults, rng)
            fault_bits = [p for p in range(n) if (vector >> p) & 1]
            for width in range(1, 7):
                true = rng.sample(fault_bits, rng.randint(0, min(width, faults)))
                others = [p for p in range(n) if p not in fault_bits]
                positions = true + rng.sample(others, width - len(true))
                rng.shuffle(positions)
                expected = _trial_loop(codec, word ^ vector, positions)
                assert tables.search(word ^ vector, positions) == expected
                assert flip_search(codec, word ^ vector, positions) == expected
                outcomes.add((expected[1] is None, expected[1] == word))
        # Two-fault searches both fail and repair the line; a three-fault
        # line keeps two faults after any one flip, so ECC-1 never
        # repairs it.
        expected_outcomes = {(True, False)}
        if faults == 2:
            expected_outcomes.add((False, True))
        assert outcomes == expected_outcomes

    def test_out_of_range_position_raises(self):
        codec = LineCodec()
        word = codec.encode(5) ^ 0b11
        for bad in (-1, codec.stored_bits):
            with pytest.raises(ValueError):
                line_tables(codec).search(word, [bad])
            with pytest.raises(ValueError):
                _trial_loop(codec, word, [bad])


class _CountingCodec(LineCodec):
    """A LineCodec subclass: no tables, so SDR must run its decode."""

    def __init__(self):
        super().__init__()
        self.decodes = 0

    def decode(self, word):
        self.decodes += 1
        return super().decode(word)


def _scanned_group(codec, seed, fault_lines):
    rng = random.Random(seed)
    array = STTRAMArray(GROUP, codec.stored_bits)
    plt = ParityLineTable(1, codec.stored_bits)
    words = []
    for frame in range(GROUP):
        word = codec.encode(rng.getrandbits(512))
        array.write(frame, word)
        words.append(word)
    plt.rebuild(0, words)
    for frame, faults in fault_lines:
        array.inject(frame, random_error_vector(codec.stored_bits, faults, rng))
    return array, plt, scan_group(array, codec, 0, range(GROUP))


class TestSearchDispatch:
    PATTERNS = [((1, 2), (2, 2)), ((3, 2), (4, 3)), ((1, 2), (5, 2), (9, 2))]

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_stock_and_subclass_resurrect_alike(self, pattern):
        stock = LineCodec()
        counting = _CountingCodec()
        assert line_tables(counting) is None
        results = []
        for codec in (stock, counting):
            array, plt, state = _scanned_group(codec, 7, pattern)
            report = resurrect(array, codec, plt, state, max_mismatches=6)
            results.append((
                report, state.uncorrectable, dict(state.words),
                [array.read(frame) for frame in range(GROUP)],
            ))
        assert results[0] == results[1]
        assert results[0][0].trials > 0

    def test_subclass_decode_is_never_bypassed(self):
        codec = _CountingCodec()
        array, plt, state = _scanned_group(codec, 8, [(1, 2), (2, 2)])
        before = codec.decodes
        report = resurrect(array, codec, plt, state, max_mismatches=6)
        assert report.trials > 0
        assert codec.decodes - before == report.trials

    def test_ecc2_codec_takes_the_trial_loop(self, monkeypatch):
        codec = ECC2LineCodec()
        assert line_tables(codec) is None
        calls = []
        original = ECC2LineCodec.try_flip_and_repair

        def counted(self, word, position):
            calls.append(position)
            return original(self, word, position)

        monkeypatch.setattr(ECC2LineCodec, "try_flip_and_repair", counted)
        array, plt, state = _scanned_group(codec, 9, [(1, 3), (2, 3)])
        report = resurrect(array, codec, plt, state, max_mismatches=6)
        assert report.trials > 0
        assert len(calls) == report.trials
