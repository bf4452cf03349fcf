"""Engine group scans trust the dirty index, with dense-scan results.

``SuDokuEngine._scan`` decodes only the members the array's dirty index
flags and passes ``trusted_clean=True`` to
:func:`repro.core.raid4.scan_group`: a member whose stored word matches
golden holds a codec-written codeword, so its decode is known ``CLEAN``.
These tests pin the two halves of that claim: every trusted scan a real
campaign performs (stuck-at faults, metadata chaos, both backends) equals
a dense scan of the same array state, and no pristine member reaches the
codec or the kernel backend during a scan.
"""

import copy
import random

import pytest

import repro.core.engine as engine_module
from repro.core.engine import build_engine
from repro.core.raid4 import scan_group
from repro.kernels import BACKEND_NAMES
from repro.kernels.numpy_backend import NumpyBackend
from repro.kernels.reference import ReferenceBackend
from repro.reliability.montecarlo import _fill_random_through_engine
from repro.reliability.scenario import (
    FaultScenario,
    StuckSpec,
    run_scenario_campaign,
)
from repro.resilience.chaos import ChaosPolicy
from repro.sttram.array import STTRAMArray


def _scan_fields(scan):
    return (
        scan.group, scan.frames, scan.words, scan.uncorrectable,
        scan.line_outcomes,
    )


def _array_state(array):
    return list(array), array.dirty_frames()


@pytest.fixture
def checked_scans(monkeypatch):
    """Every trusted engine scan, cross-checked against a dense scan.

    The dense scan runs first, on a deep copy of the array, with the
    plain scalar ``codec.decode`` and no decode memo; the trusted scan
    then runs on the live array.  Both the returned ``GroupScan`` and
    the array state each scan leaves behind (ECC-1 write-backs) must
    agree.
    """
    trusted_scan = engine_module.scan_group
    checked = []

    def checking_scan(array, codec, group, frames, **kwargs):
        assert kwargs.get("trusted_clean") is True
        frames = list(frames)
        shadow = copy.deepcopy(array)
        dense = scan_group(shadow, codec, group, frames)
        scan = trusted_scan(array, codec, group, frames, **kwargs)
        assert _scan_fields(scan) == _scan_fields(dense)
        assert _array_state(array) == _array_state(shadow)
        checked.append(group)
        return scan

    monkeypatch.setattr(engine_module, "scan_group", checking_scan)
    return checked


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("level", ["X", "Y", "Z"])
def test_trusted_scans_equal_dense_under_stuck_at(checked_scans, backend, level):
    scenario = FaultScenario(transient_ber=2e-3, stuck=StuckSpec(ppm=800.0))
    run_scenario_campaign(
        level, scenario, intervals=4, group_size=8, seed=5, backend=backend,
    )
    assert len(checked_scans) > 0


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("level", ["Y", "Z"])
def test_trusted_scans_equal_dense_under_chaos(checked_scans, backend, level):
    policy = ChaosPolicy(
        plt_flip_rate=0.05,
        map_swap_rate=0.02,
        visit_drop_rate=0.05,
        visit_duplicate_rate=0.1,
    )
    run_scenario_campaign(
        level, FaultScenario(transient_ber=2e-3), intervals=4, group_size=8,
        seed=9, backend=backend, chaos_policy=policy,
    )
    assert len(checked_scans) > 0


def _recording(base):
    """A fresh backend instance that records every word it decodes."""
    backend = type(base)()
    seen = []
    for method in ("batch_decode", "batch_decode_clean"):
        original = getattr(backend, method)

        def record(codec, words, _original=original):
            words = list(words)
            seen.extend(words)
            return _original(codec, words)

        setattr(backend, method, record)
    return backend, seen


@pytest.mark.parametrize("base", [ReferenceBackend(), NumpyBackend()])
def test_no_pristine_member_is_decoded_during_a_scan(base):
    array = STTRAMArray(64, 553)
    engine = build_engine("Z", array, group_size=8)
    _fill_random_through_engine(engine, seed=3)
    backend, batched = _recording(base)
    engine.set_backend(backend)
    scalar = []
    decode = engine.codec.decode

    def recording_decode(word):
        scalar.append(word)
        return decode(word)

    engine.codec.decode = recording_decode

    rng = random.Random(4)
    group = 1
    members = list(engine.mapper.members(group))
    faulty = rng.sample(members, 3)
    for frame, flips in zip(faulty, (1, 2, 2)):
        for position in rng.sample(range(array.line_bits), flips):
            array.inject(frame, 1 << position)
    pristine = {array.read(frame) for frame in members if frame not in faulty}

    scan = engine._scan(engine.mapper, group)
    assert scan.frames == members
    assert len(scan.uncorrectable) == 2
    decoded = batched + scalar
    assert decoded, "the dirty members must still be decoded"
    assert not pristine.intersection(decoded)
