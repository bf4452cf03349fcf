"""Behavioural tests for the SuDoku-X/Y/Z engines."""

import random

import pytest

from repro.coding.bitvec import random_error_vector
from repro.coding.parity import xor_reduce
from repro.core.config import SuDokuConfig
from repro.core.engine import SuDokuX, SuDokuY, SuDokuZ, build_engine
from repro.core.linecodec import LineCodec
from repro.core.outcomes import Outcome
from repro.cache.geometry import CacheGeometry
from repro.sttram.array import STTRAMArray

GROUP = 32
NUM_LINES = GROUP * GROUP  # SuDoku-Z needs group^2 frames
WIDTH = 553


def make_engine(level_cls, fill=True, seed=55, **kwargs):
    rng = random.Random(seed)
    codec = LineCodec()
    array = STTRAMArray(NUM_LINES, codec.stored_bits)
    engine = level_cls(array, group_size=GROUP, codec=codec, **kwargs)
    if fill:
        for frame in range(NUM_LINES):
            engine.write_data(frame, rng.getrandbits(512))
    return rng, array, engine


class TestCommonBehaviour:
    def test_format_produces_valid_codewords(self):
        _, array, engine = make_engine(SuDokuX, fill=False)
        assert engine.codec.verify(array.read(0))
        assert engine.scrub_all() == {"clean": NUM_LINES}

    def test_clean_read(self):
        rng, array, engine = make_engine(SuDokuX)
        data, outcome = engine.read_data(7)
        assert outcome is Outcome.CLEAN
        assert engine.codec.encode(data) == array.golden(7)

    def test_single_bit_fault_corrected_on_read(self):
        rng, array, engine = make_engine(SuDokuX)
        array.inject(9, 1 << 123)
        data, outcome = engine.read_data(9)
        assert outcome is Outcome.CORRECTED_ECC1
        assert array.is_clean(9)

    def test_write_path_parity_invariant(self):
        rng, array, engine = make_engine(SuDokuZ)
        for _ in range(300):
            engine.write_data(rng.randrange(NUM_LINES), rng.getrandbits(512))
        for plt, mapper in engine._tables():
            for group in range(0, mapper.num_groups, 11):
                members = mapper.members(group)
                assert plt.parity(group) == xor_reduce(
                    array.read(f) for f in members
                ), f"parity broken for group {group}"

    def test_write_to_faulty_line_keeps_parity_consistent(self):
        rng, array, engine = make_engine(SuDokuY)
        array.inject(3, random_error_vector(WIDTH, 2, rng))
        engine.write_data(3, rng.getrandbits(512))
        group = engine.mapper.group_of(3)
        members = engine.mapper.members(group)
        assert engine.plt.parity(group) == xor_reduce(array.read(f) for f in members)

    def test_from_config_small_geometry(self):
        geometry = CacheGeometry(capacity_bytes=4096 * 64, line_bytes=64, ways=4)
        config = SuDokuConfig(geometry=geometry, group_size=64)
        engine = SuDokuZ.from_config(config)
        assert engine.array.num_lines == 4096
        assert engine.group_size == 64

    def test_build_engine_factory(self):
        codec = LineCodec()
        array = STTRAMArray(NUM_LINES, codec.stored_bits)
        assert isinstance(build_engine("x", array, GROUP, codec=codec), SuDokuX)
        array = STTRAMArray(NUM_LINES, codec.stored_bits)
        assert isinstance(build_engine("Y", array, GROUP, codec=codec), SuDokuY)
        array = STTRAMArray(NUM_LINES, codec.stored_bits)
        assert isinstance(build_engine("z", array, GROUP, codec=codec), SuDokuZ)
        with pytest.raises(ValueError):
            build_engine("w", array, GROUP)

    def test_width_mismatch_rejected(self):
        array = STTRAMArray(NUM_LINES, 100)
        with pytest.raises(ValueError):
            SuDokuX(array, group_size=GROUP)

    def test_storage_overhead_paper_scale_formula(self):
        # At the paper's 512-line groups, overhead is ~43 bits/line.
        codec = LineCodec()
        array = STTRAMArray(512 * 512, codec.stored_bits)
        engine = SuDokuZ(array, group_size=512, codec=codec)
        assert engine.storage_overhead_bits_per_line == pytest.approx(43.16, abs=0.1)


class TestSuDokuX:
    def test_multibit_fault_raid4(self):
        rng, array, engine = make_engine(SuDokuX)
        array.inject(4, random_error_vector(WIDTH, 5, rng))
        data, outcome = engine.read_data(4)
        assert outcome is Outcome.CORRECTED_RAID4
        assert array.is_clean(4)
        assert engine.stats.raid4_invocations == 1

    def test_two_multibit_lines_same_group_due(self):
        rng, array, engine = make_engine(SuDokuX)
        array.inject(1, random_error_vector(WIDTH, 2, rng))
        array.inject(2, random_error_vector(WIDTH, 2, rng))
        counts = engine.scrub_all()
        assert counts.get("due") == 2

    def test_multibit_lines_in_different_groups_ok(self):
        rng, array, engine = make_engine(SuDokuX)
        array.inject(1, random_error_vector(WIDTH, 3, rng))
        array.inject(GROUP + 1, random_error_vector(WIDTH, 3, rng))
        counts = engine.scrub_all()
        assert counts.get("corrected_raid4") == 2
        assert "due" not in counts

    def test_scrub_reports_each_line_once(self):
        rng, array, engine = make_engine(SuDokuX)
        array.inject(0, 1 << 9)
        array.inject(1, random_error_vector(WIDTH, 4, rng))
        counts = engine.scrub_all()
        assert sum(counts.values()) == NUM_LINES


class TestSuDokuY:
    def test_dual_two_fault_sdr(self):
        rng, array, engine = make_engine(SuDokuY)
        array.inject(1, random_error_vector(WIDTH, 2, rng))
        array.inject(2, random_error_vector(WIDTH, 2, rng))
        counts = engine.scrub_all()
        assert "due" not in counts
        assert counts.get("corrected_sdr", 0) >= 1
        assert array.is_clean(1) and array.is_clean(2)

    def test_dual_heavy_fault_due(self):
        rng, array, engine = make_engine(SuDokuY)
        array.inject(1, random_error_vector(WIDTH, 3, rng))
        array.inject(2, random_error_vector(WIDTH, 3, rng))
        counts = engine.scrub_all()
        assert counts.get("due") == 2

    def test_full_overlap_due(self):
        rng, array, engine = make_engine(SuDokuY)
        vector = random_error_vector(WIDTH, 2, rng)
        array.inject(1, vector)
        array.inject(2, vector)
        counts = engine.scrub_all()
        assert counts.get("due") == 2

    def test_sdr_trials_accounted(self):
        rng, array, engine = make_engine(SuDokuY)
        array.inject(1, random_error_vector(WIDTH, 2, rng))
        array.inject(2, random_error_vector(WIDTH, 2, rng))
        engine.scrub_all()
        assert engine.stats.sdr_invocations == 1
        assert engine.stats.sdr_trials >= 1


class TestSuDokuZ:
    def test_dual_heavy_fixed_via_hash2(self):
        rng, array, engine = make_engine(SuDokuZ)
        array.inject(1, random_error_vector(WIDTH, 3, rng))
        array.inject(2, random_error_vector(WIDTH, 3, rng))
        counts = engine.scrub_all()
        assert "due" not in counts
        assert counts.get("corrected_hash2") == 2
        assert array.is_clean(1) and array.is_clean(2)
        assert engine.stats.hash2_invocations == 1

    def test_peeling_through_blocked_hash2_group(self):
        rng, array, engine = make_engine(SuDokuZ)
        # Two heavy lines in one Hash-1 group...
        array.inject(1, random_error_vector(WIDTH, 3, rng))
        array.inject(2, random_error_vector(WIDTH, 3, rng))
        # ...and 2-fault partners congesting line 1's Hash-2 group.
        partners = engine.mapper2.members(engine.mapper2.group_of(1))
        array.inject(partners[3], random_error_vector(WIDTH, 2, rng))
        array.inject(partners[4], random_error_vector(WIDTH, 2, rng))
        counts = engine.scrub_all()
        assert "due" not in counts
        assert not array.faulty_lines()

    def test_doubly_blocked_core_is_due(self):
        rng, array, engine = make_engine(SuDokuZ)
        # Four heavy lines forming a closed blocking square: frames (a, b)
        # share a Hash-1 group; their Hash-2 partners (c, d) are heavy
        # too, and c, d share a Hash-1 group as well.
        a, b = 1, 2
        c = engine.mapper2.members(engine.mapper2.group_of(a))[5]
        d = engine.mapper2.members(engine.mapper2.group_of(b))[5]
        assert engine.mapper.group_of(c) == engine.mapper.group_of(d)
        for frame in (a, b, c, d):
            array.inject(frame, random_error_vector(WIDTH, 3, rng))
        counts = engine.scrub_all()
        assert counts.get("due") == 4

    def test_seven_bit_fault_single_line_recovered(self):
        # ECC-6 would fail a 7-bit fault; SuDoku-Z recovers it via RAID-4.
        rng, array, engine = make_engine(SuDokuZ)
        array.inject(11, random_error_vector(WIDTH, 7, rng))
        data, outcome = engine.read_data(11)
        assert outcome is Outcome.CORRECTED_RAID4
        assert array.is_clean(11)


class TestAudit:
    def test_audit_flags_wrong_restores(self):
        # Force an SDC by corrupting golden-tracking: restore a wrong
        # value through a custom scheme and let the audit catch it.
        rng, array, engine = make_engine(SuDokuX)
        frame = 13
        wrong_word = engine.codec.encode(0x1234)
        array.inject(frame, array.read(frame) ^ wrong_word)  # stored = valid wrong codeword
        counts = engine.scrub_all()
        assert counts.get("sdc") == 1

    def test_audit_disabled_reports_belief(self):
        rng, array, engine = make_engine(SuDokuX, audit=False)
        frame = 13
        wrong_word = engine.codec.encode(0x1234)
        array.inject(frame, array.read(frame) ^ wrong_word)
        counts = engine.scrub_all()
        assert "sdc" not in counts
