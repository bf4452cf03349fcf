"""Demand-access paths: reads and writes hitting live fault states.

Scrub campaigns exercise the batch path; these tests pin down the
on-demand behaviours -- a read landing on a line whose *group* is in a
degraded state, reads racing each other through pending outcomes, and
the engine's bookkeeping across mixed read/write/fault interleavings.
"""

import random

from repro.coding.bitvec import random_error_vector
from repro.core.ecc2 import ECC2LineCodec
from repro.core.engine import SuDokuY, SuDokuZ
from repro.core.linecodec import LineCodec
from repro.core.outcomes import Outcome
from repro.sttram.array import STTRAMArray

GROUP = 16
NUM_LINES = 256
CODEC = LineCodec()


def fresh(engine_cls, codec=CODEC, num_lines=NUM_LINES, seed=71):
    array = STTRAMArray(num_lines, codec.stored_bits)
    engine = engine_cls(array, group_size=GROUP, codec=codec)
    rng = random.Random(seed)
    payloads = {}
    for frame in range(num_lines):
        payloads[frame] = rng.getrandbits(512)
        engine.write_data(frame, payloads[frame])
    return array, engine, payloads, rng


class TestDemandReads:
    def test_read_of_clean_line_in_degraded_group(self):
        # A clean line must read CLEAN even while its group holds
        # uncorrectable neighbours.
        array, engine, payloads, rng = fresh(SuDokuY)
        width = CODEC.stored_bits
        array.inject(1, random_error_vector(width, 3, rng))
        array.inject(2, random_error_vector(width, 3, rng))
        data, outcome = engine.read_data(5)   # same group, untouched line
        assert outcome is Outcome.CLEAN
        assert data == payloads[5]

    def test_read_repairs_whole_group_collaterally(self):
        array, engine, payloads, rng = fresh(SuDokuY)
        width = CODEC.stored_bits
        array.inject(3, random_error_vector(width, 2, rng))
        array.inject(4, random_error_vector(width, 2, rng))
        # One demand read triggers the group repair; both lines heal.
        data, outcome = engine.read_data(3)
        assert data == payloads[3]
        assert outcome.is_corrected
        assert array.is_clean(3) and array.is_clean(4)

    def test_read_of_due_line_reports_due_and_preserves_detection(self):
        array, engine, payloads, rng = fresh(SuDokuY)
        width = CODEC.stored_bits
        vector = random_error_vector(width, 2, rng)
        array.inject(6, vector)
        array.inject(7, vector)   # full overlap: Y cannot repair
        data, outcome = engine.read_data(6)
        assert outcome is Outcome.DUE
        # The line is still flagged faulty, never silently served.
        assert not array.is_clean(6)

    def test_repeated_reads_after_repair_are_clean(self):
        array, engine, payloads, rng = fresh(SuDokuZ)
        width = CODEC.stored_bits
        array.inject(9, random_error_vector(width, 4, rng))
        first = engine.read_data(9)
        second = engine.read_data(9)
        assert first[1] is Outcome.CORRECTED_RAID4
        assert second[1] is Outcome.CLEAN
        assert first[0] == second[0] == payloads[9]

    def test_interleaved_reads_writes_faults(self):
        array, engine, payloads, rng = fresh(SuDokuZ, seed=72)
        width = CODEC.stored_bits
        for step in range(300):
            action = rng.random()
            frame = rng.randrange(NUM_LINES)
            if action < 0.4:
                payloads[frame] = rng.getrandbits(512)
                engine.write_data(frame, payloads[frame])
            elif action < 0.8:
                data, outcome = engine.read_data(frame)
                if not outcome.is_failure:
                    assert data == payloads[frame], f"step {step}"
            else:
                array.inject(
                    frame, random_error_vector(width, rng.randint(1, 2), rng)
                )
        # Converge: a final scrub leaves no corruption behind.
        counts = engine.scrub_all()
        assert counts.get("sdc", 0) == 0


class TestECC2DemandPaths:
    CODEC2 = ECC2LineCodec()

    def test_demand_read_two_fault_local_fix(self):
        array, engine, payloads, rng = fresh(SuDokuZ, codec=self.CODEC2, seed=73)
        array.inject(4, random_error_vector(self.CODEC2.stored_bits, 2, rng))
        data, outcome = engine.read_data(4)
        assert outcome is Outcome.CORRECTED_ECC1
        assert data == payloads[4]

    def test_demand_read_three_fault_needs_group(self):
        array, engine, payloads, rng = fresh(SuDokuZ, codec=self.CODEC2, seed=74)
        array.inject(8, random_error_vector(self.CODEC2.stored_bits, 3, rng))
        data, outcome = engine.read_data(8)
        assert outcome is Outcome.CORRECTED_RAID4
        assert data == payloads[8]
