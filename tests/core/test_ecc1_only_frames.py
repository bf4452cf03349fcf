"""ECC-1-only frames: a scrub that never stores them equals one that does.

On a batched backend the campaign loop stores only
the transient flips a group repair can see.  A lone flip on a clean,
unstuck line that shares no Hash-1 or Hash-2 group with a multi-bit,
dirty, stuck or burst-hit line reaches ``SuDokuEngine.scrub_frames`` as
an ECC-1-only frame instead.  Every test here runs the real interval
loop over crafted faults on twin engines: numpy with the split, against
an oracle that stores every flip (the reference backend, or the dense
walk through the ``montecarlo._DENSE`` seam).  Each compares what the loop leaves behind -- the result, the
engine's ``stats``, the exact ``repr`` of ``correction_time_s``, stored
words and the dirty set just before every heal and at the end, parity
tables and, against the reference twin, the Prometheus export -- and
asserts which frames the split stored.
"""

import numpy as np
import pytest

from repro.core.engine import build_engine
from repro.core.linecodec import LineCodec
from repro.obs import NULL_PROGRESS, Telemetry
from repro.reliability import montecarlo
from repro.resilience.chaos import ChaosPolicy
from repro.sttram.array import STTRAMArray
from repro.sttram.faults import (
    FaultKind,
    PermanentFaultMap,
    TransientFaultInjector,
)

LINES = 256
GROUP = 8
BITS = LineCodec().stored_bits
LEVELS = ("X", "Y", "Z")
#: (backend, dense walk?) of the oracle twin, which stores every flip.
ORACLES = (("reference", False), ("numpy", True))
_HEAL = montecarlo.heal

# With G=8, Hash-1 groups are runs of 8 frames and frame f's Hash-2
# group (256 lines) is (f & 7) | (f >> 6) << 3.  Frame 0 has two flips:
# frame 3 shares only its Hash-1 group, frame 16 only its Hash-2 group,
# and frames 46, 130 and 203 share a group with no other faulty frame.
# Frame 5's two flips make Hash-1 group 0 need SDR (Y) or peeling (Z).
BASE = {0: [4, 100], 3: [7], 16: [9], 46: [300], 130: [2], 203: [550]}
BASE_STORED = {"X": {0, 3}, "Y": {0, 3}, "Z": {0, 3, 16}}
PEEL = {**BASE, 5: [40, 41]}
PEEL_STORED = {level: frames | {5} for level, frames in BASE_STORED.items()}


def _flat(flips):
    return np.array(
        [frame * BITS + bit for frame, bits in flips.items() for bit in bits],
        dtype=np.int64,
    )


class _Burst:
    """A burst source that injects the same masks every interval."""

    def __init__(self, vectors):
        self.vectors = vectors

    def inject_frames(self, array):
        array.inject_many(self.vectors)
        return sorted(self.vectors)


def _engine(level, backend, fault_map):
    codec = LineCodec()
    array = STTRAMArray(LINES, codec.stored_bits)
    engine = build_engine(
        level, array, group_size=GROUP, codec=codec, backend=backend
    )
    if fault_map is not None:
        array.attach_permanent_faults(fault_map)
    montecarlo._fill_random_through_engine(engine, 11)
    engine.initialize_parities()
    return engine


def _run(engine, dense, flips, monkeypatch, bursts, chaos, intervals):
    """The interval loop over ``flips`` (and ``bursts``) every interval.

    Returns the fingerprint and the frames the array was asked to store.
    """
    monkeypatch.setattr(montecarlo, "_DENSE", dense)
    monkeypatch.setattr(
        TransientFaultInjector, "draw_flips", lambda self, lines: _flat(flips)
    )
    before_heal = []

    def snapshot_then_heal(array):
        before_heal.append((list(array), array.dirty_frames()))
        _HEAL(array)

    monkeypatch.setattr(montecarlo, "heal", snapshot_then_heal)
    telemetry = Telemetry.create()
    stored = set()
    inject_many = engine.array.inject_many

    def recording(vectors):
        stored.update(vectors)
        inject_many(vectors)

    engine.array.inject_many = recording
    result = montecarlo._run_intervals(
        engine, 1e-3, intervals, 0.02, {"kind": "montecarlo"},
        level=engine.level, seed=5, interval_start=0,
        burst=(lambda stream: _Burst(bursts)) if bursts else None,
        chaos_policy=chaos, chaos_seed=3, telemetry=telemetry,
        progress=NULL_PROGRESS, checkpointer=None, deadline=None,
    )
    del engine.array.inject_many
    fingerprint = {
        "result": result.as_dict(),
        "outcome_order": list(result.outcomes),
        "stats": engine.stats.as_dict(),
        "correction_time_s": repr(engine.correction_time_s),
        "before_heal": before_heal,
        "stored": list(engine.array),
        "dirty": engine.array.dirty_frames(),
        "tables": [
            [plt.parity(group) for group in range(mapper.num_groups)]
            for plt, mapper in engine._tables()
        ],
        "prometheus": [
            line for line in telemetry.prometheus_text().splitlines()
            if "campaign_interval_seconds" not in line  # wall clock
        ],
    }
    return fingerprint, stored


def _compare(
    level, oracle, monkeypatch, flips, *, bursts=None, chaos=None,
    fault_map=None, intervals=2,
):
    """Run the split twin and the oracle; assert they agree.

    Returns the split twin's result, the frames it stored, and the
    frames whose flip only the oracle held at some heal.
    """
    backend, dense = oracle
    split = _engine(level, "numpy", fault_map)
    assert split.resolves_single_flips
    reference = _engine(level, backend, fault_map)
    got, stored = _run(
        split, False, flips, monkeypatch, bursts, chaos, intervals
    )
    want, _ = _run(
        reference, dense, flips, monkeypatch, bursts, chaos, intervals
    )
    unvisited = _unvisited_flips(
        got.pop("before_heal"), want.pop("before_heal"), flips
    )
    if dense:
        # A dense walk meets clean lines first and times every clean
        # line's syndrome check; sparse passes count them last, in bulk.
        for key in ("outcome_order", "prometheus"):
            del got[key], want[key]
    assert got == want
    return got["result"], stored, unvisited


def _unvisited_flips(got, want, flips):
    """Frames whose word differs between the twins just before a heal.

    Only a flip the split never stored and no visit repaired may differ:
    the oracle still holds it, the split twin holds golden.
    """
    frames = set()
    for (words, dirty), (oracle_words, oracle_dirty) in zip(got, want):
        assert len(words) == len(oracle_words)
        differ = set()
        for frame, (word, oracle_word) in enumerate(zip(words, oracle_words)):
            if word != oracle_word:
                (bit,) = flips[frame]
                assert word ^ oracle_word == 1 << bit
                differ.add(frame)
        assert set(oracle_dirty) == set(dirty) | differ
        frames |= differ
    assert len(got) == len(want)
    return frames


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("level", LEVELS)
class TestSplitEqualsStoringEveryFlip:
    def test_hash1_and_hash2_mates_of_a_two_bit_line(
        self, level, oracle, monkeypatch
    ):
        result, stored, unvisited = _compare(level, oracle, monkeypatch, BASE)
        assert stored == BASE_STORED[level]
        assert not unvisited
        assert result["outcomes"]["corrected_raid4"] == 2

    def test_group_needing_sdr_or_peeling(self, level, oracle, monkeypatch):
        result, stored, unvisited = _compare(level, oracle, monkeypatch, PEEL)
        assert stored == PEEL_STORED[level]
        assert not unvisited
        assert result["interval_failures"] == (2 if level == "X" else 0)

    def test_flips_on_and_beside_a_stuck_line(self, level, oracle, monkeypatch):
        # 50's stuck bit conflicts with its content, so it stays dirty;
        # 53 shares its Hash-1 group and 58 its Hash-2 group.  100 and
        # 150 hold what their stuck bits force, so they are clean: the
        # array absorbs 100's flip, which lands on its stuck bit, and
        # 150's flip is on another bit.  Both must be stored.
        fault_map = PermanentFaultMap(BITS)
        golden = _engine(level, "numpy", None).array.golden
        for frame, agrees in ((50, False), (100, True), (150, True)):
            one = bool(golden(frame) >> 11 & 1) == agrees
            kind = FaultKind.STUCK_AT_ONE if one else FaultKind.STUCK_AT_ZERO
            fault_map.add(frame, 11, kind)
        flips = {46: [300], 50: [12], 53: [1], 58: [3], 100: [11], 150: [12]}
        _, stored, unvisited = _compare(
            level, oracle, monkeypatch, flips, fault_map=fault_map
        )
        assert stored == {50, 53, 100, 150} | ({58} if level == "Z" else set())
        assert not unvisited

    def test_flips_on_and_beside_a_burst(self, level, oracle, monkeypatch):
        # The burst hits 60; 61 shares its Hash-1 group, 12 its Hash-2
        # group.
        flips = {46: [300], 60: [1], 61: [2], 12: [0]}
        bursts = {60: 0b111 << 20}
        _, stored, unvisited = _compare(
            level, oracle, monkeypatch, flips, bursts=bursts
        )
        assert stored == {60, 61} | ({12} if level == "Z" else set())
        assert not unvisited

    def test_dropped_and_duplicated_visits(self, level, oracle, monkeypatch):
        flips = dict(PEEL)
        for frame in range(66, LINES, 9):
            flips.setdefault(frame, [frame % BITS])
        chaos = ChaosPolicy(visit_drop_rate=0.3, visit_duplicate_rate=0.3)
        result, stored, unvisited = _compare(
            level, oracle, monkeypatch, flips, chaos=chaos, intervals=4
        )
        assert result["metadata"]["visits_dropped"] > 0
        assert result["metadata"]["visits_duplicated"] > 0
        assert stored == PEEL_STORED[level]
        # Some dropped visits were of ECC-1-only frames: the oracle held
        # those flips until the heal; the split twin never stored them.
        assert unvisited and not unvisited & stored

    def test_map_swap_interval(self, level, oracle, monkeypatch):
        chaos = ChaosPolicy(map_swap_rate=0.2, plt_flip_rate=0.05)
        result, stored, unvisited = _compare(
            level, oracle, monkeypatch, PEEL, chaos=chaos, intervals=3
        )
        assert result["metadata"]["map_swaps"] > 0
        assert stored == PEEL_STORED[level]
        assert not unvisited


def test_isolated_flips_are_never_stored(monkeypatch):
    flips = {46: [300], 130: [2], 203: [550]}
    result, stored, _ = _compare("Z", ORACLES[0], monkeypatch, flips)
    assert stored == set()
    assert result["outcomes"]["corrected_ecc1"] == 2 * 3


def test_scrub_frames_refuses_them_where_nothing_classifies():
    engine = _engine("Z", "reference", None)
    assert not engine.resolves_single_flips
    with pytest.raises(ValueError, match="resolves_single_flips"):
        engine.scrub_frames([46], {46: 300})
    assert engine.scrub_frames([46], {}) == {"clean": 1}
