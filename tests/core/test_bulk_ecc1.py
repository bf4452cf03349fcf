"""Bulk ECC-1 scrub equals line-by-line resolution, bit for bit.

On a batched backend ``SuDokuEngine.scrub_frames`` classifies its frames
once and resolves each run of single-bit lines with one
``restore_many`` call.  Every test here builds twin engines over the
same faults: one on the numpy backend (bulk runs), one on the reference
backend (every frame through ``_scrub_line``), and compares everything
a scrub leaves behind -- outcome counts, ``stats``, the exact ``repr``
of ``correction_time_s``, stored words and the dirty set, parity
tables, and the repair spans.
"""

import random

import pytest

from repro.coding.bitvec import random_bits
from repro.core.ecc2 import ECC2LineCodec
from repro.core.engine import build_engine
from repro.core.eventlog import EventLog
from repro.core.linecodec import LineCodec
from repro.core.outcomes import Outcome
from repro.obs import Telemetry
from repro.sttram.array import STTRAMArray
from repro.sttram.faults import FaultKind, PermanentFaultMap

LINES = 64
GROUP = 8


def _twins(level="Z", audit=True, fault_map=None, codec_type=LineCodec):
    """(bulk, per-line) engines over identical, formatted arrays."""
    engines = []
    for backend in ("numpy", "reference"):
        codec = codec_type()
        array = STTRAMArray(LINES, codec.stored_bits)
        engine = build_engine(
            level, array, group_size=GROUP, codec=codec, audit=audit,
            backend=backend, telemetry=Telemetry.create(),
        )
        if fault_map is not None:
            array.attach_permanent_faults(fault_map)
        engines.append(engine)
    return engines


def _runs(engine):
    """Count the frames ``engine`` resolves in bulk runs."""
    resolved = []
    original = engine._scrub_ecc1_run

    def counting(run, fixed):
        resolved.extend(run)
        return original(run, fixed)

    engine._scrub_ecc1_run = counting
    return resolved


def _fingerprint(engine, counts):
    tables = [
        [plt.parity(group) for group in range(mapper.num_groups)]
        for plt, mapper in engine._tables()
    ]
    return {
        "counts": counts,
        "stats": engine.stats.as_dict(),
        "correction_time_s": repr(engine.correction_time_s),
        "stored": list(engine.array),
        "dirty": engine.array.dirty_frames(),
        "tables": tables,
        "spans": [(span.name, span.attributes) for span in engine.tracer],
    }


def _scrub_both(engines, frames):
    """Scrub ``frames`` on both twins; assert they agree; return counts."""
    bulk, line = engines
    results = [engine.scrub_frames(list(frames)) for engine in engines]
    assert _fingerprint(bulk, results[0]) == _fingerprint(line, results[1])
    return results[0]


def _inject_both(engines, frame, vector):
    for engine in engines:
        engine.array.inject(frame, vector)


def _miscorrection(codec, rng):
    """A word one flip away from a codeword other than encode(0)."""
    delta = codec.encode(random_bits(codec.layout.data_bits, rng))
    return (delta ^ codec.encode(0)) ^ (1 << rng.randrange(codec.stored_bits))


def _stuck_conflicts(codec, frames, rng):
    """A map sticking one bit of each frame against the encoded zero line."""
    zero = codec.encode(0)
    fault_map = PermanentFaultMap(codec.stored_bits)
    for frame in frames:
        position = rng.randrange(codec.stored_bits)
        kind = (
            FaultKind.STUCK_AT_ZERO if (zero >> position) & 1
            else FaultKind.STUCK_AT_ONE
        )
        fault_map.add(frame, position, kind)
    return fault_map


def test_single_bit_lines_resolve_in_one_run():
    engines = _twins()
    resolved = _runs(engines[0])
    frames = [3, 9, 10, 40, 63]
    for frame in frames:
        _inject_both(engines, frame, 1 << (frame * 7 % 553))
    counts = _scrub_both(engines, frames)
    assert counts == {"corrected_ecc1": 5}
    assert resolved == frames


@pytest.mark.parametrize("audit", [True, False])
def test_crafted_miscorrection(audit):
    """Audited, the miscorrected line is SDC on both; unaudited, ECC-1."""
    engines = _twins(audit=audit)
    resolved = _runs(engines[0])
    codec = engines[0].codec
    vector = _miscorrection(codec, random.Random(5))
    frames = [2, 5, 11]
    for frame in frames:
        _inject_both(engines, frame, 1 << frame)
    _inject_both(engines, 7, vector)
    frames = sorted(frames + [7])
    counts = _scrub_both(engines, frames)
    if audit:
        assert counts == {"corrected_ecc1": 3, "sdc": 1}
    else:
        assert counts == {"corrected_ecc1": 4}
    assert resolved == frames


def test_stuck_conflicting_lines_audit_residual_clean():
    """A correct repair a stuck bit undoes is ECC-1, not SDC, and the
    line stays in the dirty set for later passes."""
    codec = LineCodec()
    stuck = [4, 20, 21, 50]
    engines = _twins(fault_map=_stuck_conflicts(codec, stuck, random.Random(6)))
    resolved = _runs(engines[0])
    _inject_both(engines, 30, 1 << 100)
    frames = engines[0].array.dirty_frames()
    assert frames == sorted(stuck + [30])
    assert _scrub_both(engines, frames) == {"corrected_ecc1": 5}
    # The stuck lines stay dirty, so the next pass resolves them again.
    assert engines[0].array.dirty_frames() == sorted(stuck)
    assert _scrub_both(engines, sorted(stuck)) == {"corrected_ecc1": 4}
    assert resolved == frames + sorted(stuck)


def test_event_log_takes_the_per_line_path():
    engines = _twins()
    resolved = _runs(engines[0])
    for engine in engines:
        engine.event_log = EventLog()
    for frame in (1, 2, 3):
        _inject_both(engines, frame, 1 << frame)
    _scrub_both(engines, [1, 2, 3])
    assert resolved == []
    events = [list(engine.event_log) for engine in engines]
    assert events[0] == events[1] and len(events[0]) == 3


def test_frame_resolved_by_an_earlier_group_repair_counts_once():
    """Frame 5 is stuck one bit off golden, so ECC-1 repairs it without
    changing its stored word.  Frame 1's RAID-4 repair scans the group
    first and resolves frame 5 with it; the visit to frame 5 must take
    that pending outcome, not repair and count the line again."""
    codec = LineCodec()
    engines = _twins(fault_map=_stuck_conflicts(codec, [5], random.Random(7)))
    _inject_both(engines, 1, 0b11 << 40)
    assert engines[0].mapper.group_of(1) == engines[0].mapper.group_of(5)
    counts = _scrub_both(engines, [1, 5])
    assert counts == {"corrected_raid4": 1, "corrected_ecc1": 1}
    assert engines[0].stats.raid4_invocations == 1


def test_frame_rewritten_after_the_snapshot_is_decoded_again():
    """A visit repeated after its first repair sees a new stored word: it
    must decode that word (CLEAN), not replay the classified repair.  A
    repeat inside a run flushes the run first."""
    engines = _twins()
    decoded = []
    codec = engines[0].codec
    decode = codec.decode

    def counting(word):
        decoded.append(word)
        return decode(word)

    codec.decode = counting
    _inject_both(engines, 9, 1 << 9)
    _inject_both(engines, 12, 1 << 12)
    # 30 is clean: visiting it flushes the run holding 12.
    counts = _scrub_both(engines, [9, 9, 12, 30, 9, 12, 12])
    assert counts == {"corrected_ecc1": 2, "clean": 5}
    golden = engines[0].array.golden
    assert decoded == [golden(9), golden(9), golden(12), golden(12)]


def test_multi_bit_correcting_codec_decodes_every_line():
    """An ECC-2 repair flips two bits, which no ``batch_check`` code
    describes: the numpy twin must resolve every line by its full
    decode, never by a one-bit flip, and land where the reference does."""
    engines = _twins(codec_type=ECC2LineCodec)
    resolved = _runs(engines[0])
    codec = engines[0].codec
    rng = random.Random(8)
    frames = [2, 3, 17, 40, 41, 60]
    for frame, flips in zip(frames, [1, 2, 2, 1, 3, 2]):
        positions = rng.sample(range(codec.stored_bits), flips)
        _inject_both(engines, frame, sum(1 << p for p in positions))
    counts = _scrub_both(engines, frames)
    assert counts["corrected_ecc1"] == 5 and "sdc" not in counts
    assert resolved == []
    assert engines[0].array.dirty_frames() == []


@pytest.mark.parametrize("level", ["X", "Y", "Z"])
@pytest.mark.parametrize("seed", range(4))
def test_random_fault_mixes(level, seed):
    """Mixed 1..3-bit faults, miscorrections, stuck lines, written data,
    and visit lists with clean frames and repeats."""
    rng = random.Random(seed)
    codec = LineCodec()
    stuck = rng.sample(range(LINES), 6)
    engines = _twins(level, fault_map=_stuck_conflicts(codec, stuck, rng))
    for frame in rng.sample(range(LINES), 10):
        data = random_bits(codec.layout.data_bits, rng)
        for engine in engines:
            engine.write_data(frame, data)
    for _ in range(3):
        for frame in rng.sample(range(LINES), 24):
            flips = rng.choice([1, 1, 1, 1, 2, 3])
            vector = sum(
                1 << position
                for position in rng.sample(range(codec.stored_bits), flips)
            )
            if rng.random() < 0.1:
                vector = _miscorrection(codec, rng)
            _inject_both(engines, frame, vector)
        dirty = engines[0].array.dirty_frames()
        frames = dirty + rng.sample(range(LINES), 8) + rng.sample(dirty, 4)
        frames.sort()
        _scrub_both(engines, frames)
        _scrub_both(engines, rng.sample(range(LINES), LINES))
        for engine in engines:
            for frame in engine.array.faulty_lines():
                engine.array.restore(frame, engine.array.golden(frame))
            engine.initialize_parities()
    outcomes = engines[0].stats.outcomes
    assert outcomes[Outcome.CORRECTED_ECC1.value] > 0
