"""Checkpoint payloads are a file format: pinned byte for byte.

``golden_checkpoints/<kind>-after-2.json`` holds the exact payload each
campaign kind flushed after its second unit, captured from a small
seeded run (``montecarlo-v1-after-2.json``, ``raresim-v2-after-2.json``
and ``raresim-v3-after-2.json`` are older captures, kept to pin their
refusal).  Two properties are pinned per kind:

* the same run still flushes exactly that payload after unit 2 (same
  key set, aggregates and config fingerprint), and
* the captured file still resumes, finishing bit-identical to an
  uninterrupted run -- so checkpoints written by earlier builds of the
  same ``CHECKPOINT_VERSION`` stay usable.

Do not regenerate these files to make a failure pass; a deliberate
format change bumps ``CHECKPOINT_VERSION`` instead.
"""

import json
import os

import numpy as np
import pytest

from repro.core.engine import build_engine
from repro.core.linecodec import LineCodec
from repro.reliability.montecarlo import run_engine_campaign
from repro.reliability.raresim import ConditionalGroupSimulator
from repro.reliability.scenario import run_scenario_campaign
from repro.resilience import Checkpointer, CheckpointError, load_checkpoint
from repro.sttram.array import STTRAMArray

from tests.reliability.test_seed_golden import GOLDEN_CHAOS, GOLDEN_MIXED

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden_checkpoints")
UNITS = 4


class RecordingCheckpointer(Checkpointer):
    """A checkpointer that also keeps every payload it flushed."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.flushed = []

    def save(self, payload):
        self.flushed.append(json.loads(json.dumps(payload)))
        super().save(payload)


def _montecarlo(checkpointer=None):
    codec = LineCodec()
    engine = build_engine(
        "Z", STTRAMArray(64, codec.stored_bits), group_size=8, codec=codec
    )
    return run_engine_campaign(
        engine, 1e-3, UNITS, rng=np.random.default_rng(0),
        chaos_policy=GOLDEN_CHAOS, chaos_seed=5, checkpointer=checkpointer,
    )


def _scenario(checkpointer=None):
    return run_scenario_campaign(
        "Z", GOLDEN_MIXED, UNITS, 8, seed=11,
        chaos_policy=GOLDEN_CHAOS, chaos_seed=5, checkpointer=checkpointer,
    )


def _raresim(checkpointer=None):
    simulator = ConditionalGroupSimulator(
        ber=1e-3, group_size=16, num_groups=64, seed=3
    )
    return simulator.run("Z", UNITS, checkpointer=checkpointer)


RUNS = {"montecarlo": _montecarlo, "scenario": _scenario, "raresim": _raresim}


def _golden_path(kind):
    return os.path.join(GOLDEN_DIR, f"{kind}-after-2.json")


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_flushed_payload_matches_capture(kind, tmp_path):
    checkpointer = RecordingCheckpointer(str(tmp_path / "ck.json"), every=2)
    RUNS[kind](checkpointer)
    after_two = [p for p in checkpointer.flushed if p["completed"] == 2]
    with open(_golden_path(kind), "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    assert after_two == [golden]


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_captured_checkpoint_resumes_bit_identically(kind, tmp_path):
    resumed = RUNS[kind](
        Checkpointer(
            str(tmp_path / "ck.json"),
            resume=load_checkpoint(_golden_path(kind), kind),
        )
    )
    assert not resumed.truncated
    assert resumed.as_dict() == RUNS[kind]().as_dict()


def test_version_1_checkpoint_is_refused():
    """Version 1 Monte-Carlo snapshots carried numpy and chaos RNG state
    and a fill seed; version 2 re-derives all three from the seed tree,
    so an old file cannot resume and is refused up front."""
    with pytest.raises(CheckpointError, match="format version 1"):
        load_checkpoint(
            os.path.join(GOLDEN_DIR, "montecarlo-v1-after-2.json"), "montecarlo"
        )


def test_version_2_checkpoint_is_refused():
    """Version 2 rare-event snapshots carried the stdlib stream state of
    one sequential RNG; version 3 trials draw from seed-tree child
    ``(seed, t)`` and carry no RNG block, so the old file is refused."""
    with pytest.raises(CheckpointError, match="format version 2"):
        load_checkpoint(
            os.path.join(GOLDEN_DIR, "raresim-v2-after-2.json"), "raresim"
        )


def test_version_3_checkpoint_is_refused():
    """Version 3 rare-event trials drew from a stdlib stream seeded by
    ``interval_python_seed(seed, t)``; version 4 trials draw from the
    numpy generator ``interval_generator(seed, t)``.  Resuming a version
    3 snapshot would splice old-stream trials into new ones, so it is
    refused."""
    with pytest.raises(CheckpointError, match="format version 3"):
        load_checkpoint(
            os.path.join(GOLDEN_DIR, "raresim-v3-after-2.json"), "raresim"
        )
