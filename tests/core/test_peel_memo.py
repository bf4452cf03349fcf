"""The Hash-2 peel's per-pass memo of no-op group retries, and the
O(dirty) parity re-initialisation."""

import random

import numpy as np
import pytest

import repro.core.engine as engine_module
from repro.coding.bitvec import random_error_vector
from repro.coding.parity import xor_reduce
from repro.core.engine import SuDokuZ, build_engine
from repro.core.linecodec import DecodeStatus, LineCodec
from repro.core.outcomes import Outcome
from repro.obs import Telemetry
from repro.reliability.montecarlo import run_engine_campaign
from repro.resilience.chaos import ChaosInjector, ChaosPolicy
from repro.sttram.array import STTRAMArray

GROUP = 8
WIDTH = 553

#: One seeded campaign-z-fail interval (G=16, BER 2e-3, numpy kernels):
#: the retries the peel accounts (``stats.group_scans``, equal to the
#: scan_group calls made before retries were memoised) and the scans it
#: actually runs.
Z_FAIL_ACCOUNTED_SCANS = 598
Z_FAIL_SCAN_CALLS = 62


@pytest.fixture
def scanned_groups(monkeypatch):
    """The group of every ``scan_group`` call the engine makes."""
    groups = []
    original = engine_module.scan_group

    def counting(array, codec, group, *args, **kwargs):
        groups.append(group)
        return original(array, codec, group, *args, **kwargs)

    monkeypatch.setattr(engine_module, "scan_group", counting)
    return groups


def _z_engine(seed=3, fill=True):
    rng = random.Random(seed)
    codec = LineCodec()
    array = STTRAMArray(GROUP * GROUP, codec.stored_bits)
    engine = SuDokuZ(array, group_size=GROUP, codec=codec)
    if fill:
        for frame in range(GROUP * GROUP):
            engine.write_data(frame, rng.getrandbits(512))
    return rng, array, engine


def _blocked_pair(rng, array, a=1, b=2):
    """Two 3-bit faults in one Hash-1 group: neither SDR nor RAID-4 can
    repair them there."""
    array.inject(a, random_error_vector(WIDTH, 3, rng))
    array.inject(b, random_error_vector(WIDTH, 3, rng))


def test_campaign_z_fail_interval_scans_far_fewer_groups(scanned_groups):
    codec = LineCodec()
    array = STTRAMArray(16 * 16, codec.stored_bits)
    engine = build_engine("Z", array, group_size=16, codec=codec)
    result = run_engine_campaign(
        engine, 2e-3, 1, rng=np.random.default_rng(7),
        randomize_content=False, backend="numpy",
    )
    assert result.interval_failures == 1
    assert engine.stats.group_scans == Z_FAIL_ACCOUNTED_SCANS
    assert len(scanned_groups) == Z_FAIL_SCAN_CALLS
    assert Z_FAIL_ACCOUNTED_SCANS >= 4 * Z_FAIL_SCAN_CALLS


def test_replayed_retry_accounts_like_the_simulated_one(scanned_groups):
    rng, array, engine = _z_engine()
    telemetry = Telemetry.create()
    engine.attach_telemetry(telemetry)
    _blocked_pair(rng, array)
    group = engine.mapper.group_of(1)
    engine.begin_scrub_pass()

    def retry():
        before = (dict(engine.stats.as_dict()), engine.correction_time_s)
        result = engine._retry_group(engine.mapper, engine.plt, group)
        stats = engine.stats.as_dict()
        delta = {key: stats[key] - before[0][key] for key in stats}
        return result, delta, engine.correction_time_s - before[1]

    first, second = retry(), retry()
    assert scanned_groups == [group]
    assert first == second
    assert sorted(first[0][1]) == [1, 2]
    assert first[1]["group_scans"] == 1
    assert first[1]["sdr_invocations"] == 1
    spans = [(span.name, span.attributes) for span in telemetry.tracer]
    assert [name for name, _ in spans] == ["sdr_repair", "sdr_repair"]
    assert spans[0] == spans[1]


def test_blocked_group_is_rescanned_after_repair_through_other_hash(
    scanned_groups,
):
    rng, array, engine = _z_engine()
    _blocked_pair(rng, array)
    group = engine.mapper.group_of(1)
    engine.begin_scrub_pass()
    assert sorted(engine._retry_group(engine.mapper, engine.plt, group)[1]) == [1, 2]
    engine._retry_group(engine.mapper, engine.plt, group)
    assert scanned_groups == [group]

    # Line 2's Hash-2 group holds no other fault: RAID-4 repairs it there.
    other = engine.mapper2.group_of(2)
    assert engine._retry_group(engine.mapper2, engine.plt2, other) == (
        {2: Outcome.CORRECTED_RAID4}, [],
    )
    # The blocked Hash-1 group changed, so its next retry runs afresh.
    assert engine._retry_group(engine.mapper, engine.plt, group) == (
        {1: Outcome.CORRECTED_RAID4}, [],
    )
    assert scanned_groups == [group, other, group]
    assert not array.faulty_lines()


def test_quarantined_retry_replays_without_metadata_event(scanned_groups):
    rng, array, engine = _z_engine()
    _blocked_pair(rng, array)
    group = engine.mapper.group_of(1)
    engine.plt.quarantine(group)
    engine.begin_scrub_pass()
    first = engine._retry_group(engine.mapper, engine.plt, group)
    second = engine._retry_group(engine.mapper, engine.plt, group)
    assert first == second
    assert scanned_groups == [group]
    assert engine.plt.is_quarantined(group)
    assert engine.stats.group_scans == 2
    assert engine.stats.sdr_invocations == 0
    assert engine.stats.metadata_faults_detected == 0
    assert engine.stats.metadata_quarantines == 0
    assert engine.stats.metadata_rebuilds == 0


def _healed(engine, frame=1):
    """A codeword for ``frame`` that differs from its golden word."""
    return engine.codec.encode(frame + 1)


#: Every mutator of the array, applied so that it changes what a retry
#: of Hash-1 group 0 (frames 0-7, with lines 1 and 2 blocked) reads.
ARRAY_CHANGES = {
    "inject": lambda e, g: e.array.inject(3, 1 << 7),
    "inject_many": lambda e, g: e.array.inject_many({3: 1 << 7}),
    "restore": lambda e, g: e.array.restore(1, e.array.golden(1)),
    "restore_many": lambda e, g: e.array.restore_many([1], [e.array.golden(1)]),
    "write": lambda e, g: e.array.write(1, _healed(e)),
    "write_many": lambda e, g: e.array.write_many([1], [_healed(e)]),
    "fill_word": lambda e, g: e.array.fill_word(e.codec.encode(0)),
}


def _swap_entries(engine, group):
    # Formatted content only: every parity entry is zero, so swapping
    # two entries changes the CRC validity alone.
    engine.plt.swap(group, group + 1)
    assert engine.plt.parity(group) == 0 and not engine.plt.verify(group)


#: Every mutator of a parity table's entry, applied to group 0's.
ENTRY_CHANGES = {
    # A consistent entry with a new parity.
    "parity": lambda e, g: e.plt.update(g, 0, 1 << 5),
    "store": lambda e, g: e.plt.store(g, 1 << 5),
    "quarantine": lambda e, g: e.plt.quarantine(g),
    "corrupt": lambda e, g: e.plt.corrupt(g, 1 << 5),
    "crc": _swap_entries,
}


def _assert_change_forces_a_fresh_retry(scanned_groups, change):
    """``change`` bumps its owner's epoch, so the remembered retry's
    stamp goes stale, and the group state it moved makes the retry run
    afresh."""
    rng, array, engine = _z_engine(fill=False)
    _blocked_pair(rng, array)
    group = engine.mapper.group_of(1)
    assert group == 0
    engine.begin_scrub_pass()
    engine._retry_group(engine.mapper, engine.plt, group)
    engine._retry_group(engine.mapper, engine.plt, group)
    assert scanned_groups == [group]
    epochs = (array.epoch, engine.plt.epoch)
    change(engine, group)
    assert (array.epoch, engine.plt.epoch) != epochs
    engine._retry_group(engine.mapper, engine.plt, group)
    assert scanned_groups == [group, group]


@pytest.mark.parametrize("change", sorted(ARRAY_CHANGES))
def test_array_change_forces_a_fresh_retry(scanned_groups, change):
    _assert_change_forces_a_fresh_retry(scanned_groups, ARRAY_CHANGES[change])


@pytest.mark.parametrize("change", sorted(ENTRY_CHANGES))
def test_parity_entry_change_forces_a_fresh_retry(scanned_groups, change):
    _assert_change_forces_a_fresh_retry(scanned_groups, ENTRY_CHANGES[change])


def test_moved_epoch_with_unchanged_state_replays(scanned_groups, monkeypatch):
    rng, array, engine = _z_engine()
    _blocked_pair(rng, array)
    group = engine.mapper.group_of(1)
    state_checks = []
    group_state = SuDokuZ._group_state

    def counting(self, *args):
        state_checks.append(args[-1])
        return group_state(self, *args)

    monkeypatch.setattr(SuDokuZ, "_group_state", counting)
    engine.begin_scrub_pass()

    def retry():
        before = engine.stats.as_dict()
        result = engine._retry_group(engine.mapper, engine.plt, group)
        stats = engine.stats.as_dict()
        return result, {key: stats[key] - before[key] for key in stats}

    first = retry()
    # Nothing was stored: the state is read once, before the retry.
    assert state_checks == [group]
    assert retry() == first
    assert state_checks == [group]
    # A fault in another group moves the array's epoch, not this
    # group's state: the retry compares the state, replays and re-stamps.
    epoch = array.epoch
    array.inject(engine.mapper.members(group + 1)[0], 1 << 9)
    assert array.epoch != epoch
    assert retry() == first
    assert state_checks == [group, group]
    assert retry() == first
    assert state_checks == [group, group]
    assert scanned_groups == [group]


def test_memo_lasts_one_scrub_pass(scanned_groups):
    rng, array, engine = _z_engine()
    _blocked_pair(rng, array)
    group = engine.mapper.group_of(1)
    for _ in range(2):
        engine.begin_scrub_pass()
        engine._retry_group(engine.mapper, engine.plt, group)
        engine._retry_group(engine.mapper, engine.plt, group)
    assert scanned_groups == [group, group]


# -- O(dirty) parity re-initialisation ------------------------------------------


def _full_rebuild(engine):
    """Every table's (parity, CRC, quarantine) as a full rebuild leaves it,
    folded here from every member's decode."""
    tables = []
    for plt, mapper in engine._tables():
        parity, crc = [], []
        for group in range(mapper.num_groups):
            words = []
            for frame in mapper.members(group):
                stored = engine.array.read(frame)
                decode = engine.codec.decode(stored)
                uncorrectable = decode.status is DecodeStatus.UNCORRECTABLE
                words.append(stored if uncorrectable else decode.word)
            value = xor_reduce(words)
            parity.append(value)
            crc.append(plt._entry_crc(group, value))
        tables.append((parity, crc, set()))
    return tables


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("backend", ["reference", "numpy"])
def test_initialize_parities_equals_full_rebuild(seed, backend):
    rng = random.Random(seed)
    codec = LineCodec()
    array = STTRAMArray(GROUP * GROUP, codec.stored_bits)
    engine = SuDokuZ(array, group_size=GROUP, codec=codec, backend=backend)
    # A few writes (most groups keep only fill-word members), faults of
    # every weight, and parity-metadata chaos.
    for frame in rng.sample(range(array.num_lines), 2):
        engine.write_data(frame, rng.getrandbits(512))
    for frame in rng.sample(range(array.num_lines), 3):
        array.inject(frame, random_error_vector(WIDTH, rng.randint(1, 4), rng))
    touched = set(array.written_frames()) | set(array.dirty_frames())
    assert len({engine.mapper.group_of(frame) for frame in touched}) < GROUP
    ChaosInjector(
        ChaosPolicy(plt_flip_rate=0.2, map_swap_rate=0.1), seed=seed
    ).corrupt_metadata(engine)
    for plt, _ in engine._tables():
        plt.quarantine(rng.randrange(plt.num_groups))
    expected = _full_rebuild(engine)
    engine.initialize_parities()
    assert [
        (plt._parity, plt._crc, plt.quarantined) for plt, _ in engine._tables()
    ] == expected
