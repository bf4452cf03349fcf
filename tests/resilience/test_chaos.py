"""Tests for metadata chaos injection and engine-side graceful degradation."""

import random

import pytest

from repro.core.engine import build_engine
from repro.core.linecodec import LineCodec
from repro.core.outcomes import Outcome
from repro.resilience import ChaosInjector, ChaosPolicy
from repro.sttram.array import STTRAMArray

GROUP_SIZE = 16


def make_engine(level="X", group_size=GROUP_SIZE, seed=7):
    codec = LineCodec()
    array = STTRAMArray(group_size * group_size, codec.stored_bits)
    engine = build_engine(level, array, group_size=group_size, codec=codec)
    rng = random.Random(seed)
    for frame in range(array.num_lines):
        engine.write_data(frame, rng.getrandbits(engine.data_bits))
    return engine


class TestChaosPolicy:
    def test_rejects_non_probability(self):
        with pytest.raises(ValueError):
            ChaosPolicy(plt_flip_rate=1.5)
        with pytest.raises(ValueError):
            ChaosPolicy(map_swap_rate=-0.1)

    def test_enabled(self):
        assert not ChaosPolicy().enabled
        assert ChaosPolicy(visit_drop_rate=0.1).enabled

    def test_as_dict_round_trips(self):
        policy = ChaosPolicy(plt_flip_rate=0.25)
        assert ChaosPolicy(**policy.as_dict()) == policy


class TestChaosInjector:
    def test_zero_policy_consumes_no_randomness(self):
        engine = make_engine()
        rng = random.Random(3)
        injector = ChaosInjector(ChaosPolicy(), rng=rng)
        before = rng.getstate()
        assert injector.corrupt_metadata(engine) == {}
        visits, applied = injector.perturb_visits([1, 2, 3])
        assert visits == [1, 2, 3] and applied == {}
        assert rng.getstate() == before

    def test_flip_rate_one_corrupts_every_group(self):
        engine = make_engine()
        injector = ChaosInjector(ChaosPolicy(plt_flip_rate=1.0), seed=3)
        applied = injector.corrupt_metadata(engine)
        assert applied["plt_flips"] == engine.plt.num_groups
        assert all(
            not engine.plt.verify(g) for g in range(engine.plt.num_groups)
        )

    def test_swap_fails_location_keyed_crc(self):
        engine = make_engine()
        injector = ChaosInjector(ChaosPolicy(map_swap_rate=1.0), seed=3)
        applied = injector.corrupt_metadata(engine)
        assert applied["map_swaps"] > 0
        plt, _mapper = engine._tables()[0]
        # The entry CRC covers the group index, so a swapped entry fails
        # verification at its new slot even though it is internally
        # consistent.
        assert any(not plt.verify(g) for g in range(plt.num_groups))

    def test_visit_drop_and_duplicate(self):
        injector = ChaosInjector(ChaosPolicy(visit_drop_rate=1.0), seed=0)
        visits, applied = injector.perturb_visits([4, 5])
        assert visits == [] and applied["visits_dropped"] == 2
        injector = ChaosInjector(ChaosPolicy(visit_duplicate_rate=1.0), seed=0)
        visits, applied = injector.perturb_visits([4, 5])
        assert visits == [4, 4, 5, 5] and applied["visits_duplicated"] == 2


class TestEngineDegradation:
    """Corrupted metadata degrades to detected outcomes, never SDC."""

    def test_corrupt_parity_yields_metadata_due_on_x(self):
        engine = make_engine("X")
        frame = 5
        group = engine.mapper.group_of(frame)
        engine.array.inject(frame, 0b11)  # beyond ECC-1
        engine.plt.corrupt(group, 1 << 9)
        counts = engine.scrub_frames([frame])
        assert counts.get("metadata_due", 0) == 1
        assert counts.get("sdc", 0) == 0
        assert engine.stats.metadata_faults_detected >= 1
        assert engine.stats.metadata_quarantines >= 1
        assert engine.plt.is_quarantined(group)

    def test_swapped_entry_never_reconstructs_silently(self):
        engine = make_engine("X")
        frame = 2
        group = engine.mapper.group_of(frame)
        other = (group + 1) % engine.plt.num_groups
        engine.plt.swap(group, other)
        engine.array.inject(frame, 0b11)
        counts = engine.scrub_frames([frame])
        # Every code in the stack is linear, so the wrong group's parity
        # would reconstruct a valid-but-wrong codeword: only the
        # location-keyed entry CRC stands between this and an SDC.
        assert counts.get("sdc", 0) == 0
        assert counts.get("metadata_due", 0) == 1
        assert engine.stats.metadata_faults_detected >= 1

    def test_stale_entry_detected_by_recompute_on_clean_scan(self):
        engine = make_engine("X")
        frame = 2
        group = engine.mapper.group_of(frame)
        # A stale-but-consistent entry (parity never updated for a
        # write) passes the CRC; the clean-scan recompute catches it.
        engine.plt.rebuild(group, [0] * engine.group_size)
        counts = engine.scrub_frames([frame])
        assert counts.get("sdc", 0) == 0
        report = engine.audit_metadata(repair=True)
        assert report["recompute_faults"] >= 1
        assert report["rebuilt"] >= 1

    def test_audit_rebuilds_crc_fault(self):
        engine = make_engine("X")
        group = 3
        engine.plt.corrupt(group, 1)
        report = engine.audit_metadata(repair=True)
        assert report["crc_faults"] >= 1
        assert report["rebuilt"] >= 1
        assert engine.plt.verify(group)
        assert not engine.plt.is_quarantined(group)
        members = [
            engine.array.read(f) for f in engine.mapper.members(group)
        ]
        assert engine.plt.mismatch(group, members) == 0

    def test_audit_detects_swap(self):
        engine = make_engine("X")
        engine.plt.swap(0, 1)
        report = engine.audit_metadata(repair=True)
        assert report["crc_faults"] >= 2
        assert report["rebuilt"] >= 2
        assert engine.plt.verify(0) and engine.plt.verify(1)

    def test_audit_counts_each_quarantine_once(self):
        engine = make_engine("Z")
        engine.plt.corrupt(3, 1)
        report = engine.audit_metadata(repair=False)
        assert report["quarantined"] == 1
        assert engine.plt.is_quarantined(3)
        assert engine.stats.metadata_quarantines == 1
        # Already quarantined: a second audit reports it, counts nothing.
        assert engine.audit_metadata(repair=False)["quarantined"] == 1
        assert engine.stats.metadata_quarantines == 1

    def test_z_falls_back_to_hash2_after_metadata_fault(self):
        engine = make_engine("Z")
        frame = 9
        group = engine.mapper.group_of(frame)
        engine.array.inject(frame, 0b11)
        engine.plt.corrupt(group, 1 << 4)
        counts = engine.scrub_frames([frame])
        # Hash-1's PLT is untrustworthy, but Hash-2's side group is
        # intact: the line must be repaired through it, not lost.
        assert counts.get("sdc", 0) == 0
        assert counts.get("metadata_due", 0) == 0
        assert engine.array.is_clean(frame)
        assert engine.stats.metadata_faults_detected >= 1

    def test_z_reports_metadata_due_when_both_hashes_poisoned(self):
        engine = make_engine("Z")
        frame = 9
        engine.array.inject(frame, 0b11)
        for plt, mapper in engine._tables():
            plt.corrupt(mapper.group_of(frame), 1 << 4)
        counts = engine.scrub_frames([frame])
        assert counts.get("sdc", 0) == 0
        assert counts.get("metadata_due", 0) == 1

    def test_write_data_rebuilds_quarantined_group(self):
        engine = make_engine("X")
        frame = 4
        group = engine.mapper.group_of(frame)
        engine.plt.corrupt(group, 1 << 2)
        engine.write_data(frame, 12345)
        # The write must not fold its delta into the corrupt entry and
        # launder it behind a fresh CRC: the entry is rebuilt instead.
        members = [
            engine.array.read(f) for f in engine.mapper.members(group)
        ]
        assert engine.plt.verify(group)
        assert engine.plt.mismatch(group, members) == 0

    def test_metadata_due_is_failure_not_sdc(self):
        assert Outcome.METADATA_DUE.is_failure
        assert Outcome.METADATA_DUE.is_due
        assert Outcome.METADATA_DUE is not Outcome.SDC
