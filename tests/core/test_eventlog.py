"""Tests for the correction-event log."""

import random
import time

import pytest

from repro.coding.bitvec import random_error_vector
from repro.core.engine import SuDokuZ
from repro.core.eventlog import EventLog
from repro.core.linecodec import LineCodec
from repro.core.outcomes import Outcome
from repro.sttram.array import STTRAMArray


class TestEventLog:
    def test_record_and_totals(self):
        log = EventLog()
        log.begin_interval(3)
        event = log.record(7, Outcome.CORRECTED_ECC1, fault_bits=1, group=0,
                           latency_s=1e-8)
        assert event.sequence == 0
        assert event.interval == 3
        assert len(log) == 1
        assert log.totals["corrected_ecc1"] == 1

    def test_capacity_bound(self):
        log = EventLog(capacity=3)
        for index in range(5):
            log.record(index, Outcome.CLEAN)
        assert len(log) == 3
        assert log.dropped == 2
        assert log.totals["clean"] == 5  # totals keep counting
        assert [event.frame for event in log] == [2, 3, 4]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_eviction_stays_fast_at_scale(self):
        """Recording far past capacity must not degrade.

        The log used to evict with ``list.pop(0)``, making a full log
        O(n) per record -- 120k records into a 4k-capacity log took
        seconds.  With the deque backing it is O(1); the whole run
        should finish in well under a second even on slow CI.
        """
        log = EventLog(capacity=4_096)
        records = 120_000
        started = time.perf_counter()
        for index in range(records):
            log.record(index % 512, Outcome.CLEAN)
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0
        assert len(log) == 4_096
        assert log.dropped == records - 4_096
        assert log.totals["clean"] == records  # totals keep counting
        # The ring holds exactly the newest events, oldest first.
        newest = list(log)
        assert newest[0].sequence == records - 4_096
        assert newest[-1].sequence == records - 1

    def test_queries(self):
        log = EventLog()
        log.record(1, Outcome.CORRECTED_RAID4, group=4, latency_s=4e-6)
        log.record(1, Outcome.CLEAN, group=4, latency_s=1e-9)
        log.record(2, Outcome.CORRECTED_SDR, group=5, latency_s=5e-6)
        assert len(log.events_for_frame(1)) == 2
        hottest = log.hottest_groups()
        assert hottest[0][0] in (4, 5)  # clean events excluded from heat
        latency = log.latency_by_outcome()
        assert latency["corrected_raid4"] == pytest.approx(4e-6)

    def test_metrics_feed(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        log = EventLog(capacity=2, metrics=registry)
        log.record(1, Outcome.CORRECTED_RAID4, group=3, latency_s=4e-6)
        log.record(2, Outcome.CLEAN, latency_s=1e-9)
        log.record(3, Outcome.CLEAN, latency_s=1e-9)  # evicts event 1
        events = registry.get("eventlog_events_total")
        assert events.labels(outcome="corrected_raid4").value == 1
        assert events.labels(outcome="clean").value == 2
        ((_, dropped),) = registry.get("eventlog_dropped_total").samples()
        assert dropped.value == 1
        latency = registry.get("eventlog_latency_seconds")
        assert latency.labels(outcome="corrected_raid4").count == 1

    def test_hottest_groups_returns_typed_pairs(self):
        log = EventLog()
        log.record(1, Outcome.CORRECTED_RAID4, group=7)
        log.record(2, Outcome.CORRECTED_RAID4, group=7)
        log.record(3, Outcome.CORRECTED_ECC1, group=2)
        log.record(4, Outcome.CLEAN, group=7)  # clean excluded from heat
        assert log.hottest_groups(top=2) == [(7, 2), (2, 1)]

    def test_json_roundtrip(self):
        log = EventLog()
        log.begin_interval(1)
        log.record(3, Outcome.DUE, fault_bits=4, group=2, latency_s=2e-6)
        log.record(9, Outcome.CLEAN)
        rebuilt = EventLog.from_json_lines(log.to_json_lines())
        assert len(rebuilt) == 2
        first = next(iter(rebuilt))
        assert first.frame == 3
        assert first.outcome == "due"
        assert first.fault_bits == 4


class TestEngineIntegration:
    def test_engine_records_events(self):
        rng = random.Random(91)
        codec = LineCodec()
        array = STTRAMArray(256, codec.stored_bits)
        engine = SuDokuZ(array, group_size=16, codec=codec)
        engine.event_log = EventLog()
        for frame in range(256):
            engine.write_data(frame, rng.getrandbits(512))

        engine.event_log.begin_interval(0)
        array.inject(3, 1 << 40)                                   # ECC-1
        array.inject(20, random_error_vector(codec.stored_bits, 4, rng))  # RAID-4
        counts = engine.scrub_frames([3, 20])
        assert counts.get("corrected_ecc1") == 1
        events = list(engine.event_log)
        assert {event.outcome for event in events} == {
            "corrected_ecc1", "corrected_raid4",
        }
        by_frame = {event.frame: event for event in events}
        assert by_frame[3].fault_bits == 1
        assert by_frame[20].fault_bits == 4
        assert by_frame[20].latency_s > by_frame[3].latency_s

    def test_no_log_attached_costs_nothing(self):
        codec = LineCodec()
        array = STTRAMArray(64, codec.stored_bits)
        engine = SuDokuZ(array, group_size=8, codec=codec)
        assert engine.event_log is None
        assert engine.scrub_all() == {"clean": 64}
