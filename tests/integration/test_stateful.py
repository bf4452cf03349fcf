"""Stateful property testing of the SuDoku engines.

A hypothesis state machine drives a SuDoku-Z engine through arbitrary
interleavings of writes, single/multi-bit fault injections, demand
reads, and scrubs, checking the global invariants after every step:

* no operation ever silently returns wrong data (reads always match the
  model's view of the last write);
* the engine never reports SDC (that would need a 2^-31 CRC collision);
* whenever the array is fault-free, every PLT entry equals the XOR of
  its group (parity bookkeeping never drifts);
* scrubbing twice in a row is idempotent (the second pass is all-clean)
  unless the first pass ended in a DUE.
"""

import random

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.coding.bitvec import random_error_vector
from repro.coding.parity import xor_reduce
from repro.core.engine import SuDokuZ
from repro.core.linecodec import LineCodec
from repro.sttram.array import STTRAMArray

GROUP = 8
NUM_LINES = GROUP * GROUP

#: Shared codec: construction precomputes Hamming masks, reuse is free.
CODEC = LineCodec()


class SuDokuMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.array = STTRAMArray(NUM_LINES, CODEC.stored_bits)
        self.engine = SuDokuZ(self.array, group_size=GROUP, codec=CODEC)
        self.shadow = {frame: 0 for frame in range(NUM_LINES)}
        self.rng = random.Random(0xC0FFEE)
        self.poisoned = False  # a DUE may legitimately lose data

    @initialize()
    def seed_content(self):
        for frame in range(0, NUM_LINES, 7):
            value = self.rng.getrandbits(512)
            self.engine.write_data(frame, value)
            self.shadow[frame] = value

    # -- operations ------------------------------------------------------------------

    @rule(frame=st.integers(min_value=0, max_value=NUM_LINES - 1),
          value=st.integers(min_value=0, max_value=(1 << 512) - 1))
    def write(self, frame, value):
        self.engine.write_data(frame, value)
        self.shadow[frame] = value

    @rule(frame=st.integers(min_value=0, max_value=NUM_LINES - 1))
    def inject_single(self, frame):
        self.array.inject(frame, 1 << self.rng.randrange(CODEC.stored_bits))

    @rule(frame=st.integers(min_value=0, max_value=NUM_LINES - 1),
          weight=st.integers(min_value=2, max_value=4))
    def inject_multi(self, frame, weight):
        self.array.inject(
            frame, random_error_vector(CODEC.stored_bits, weight, self.rng)
        )

    @rule(frame=st.integers(min_value=0, max_value=NUM_LINES - 1))
    def read(self, frame):
        data, outcome = self.engine.read_data(frame)
        if outcome.value in ("clean", "corrected_ecc1", "corrected_raid4",
                             "corrected_sdr", "corrected_hash2"):
            assert data == self.shadow[frame], (
                f"read of frame {frame} returned wrong data under {outcome}"
            )

    @rule()
    def scrub(self):
        counts = self.engine.scrub_all()
        assert counts.get("sdc", 0) == 0, "silent corruption detected"
        if counts.get("due", 0):
            self.poisoned = True
            # Discard the lost state: heal and resynchronise parity, as
            # the campaign harness does after a failure.
            for frame in self.array.faulty_lines():
                self.array.restore(frame, self.array.golden(frame))
            self.engine.initialize_parities()
            self.poisoned = False
        else:
            repeat = self.engine.scrub_all()
            assert set(repeat) == {"clean"}, f"scrub not idempotent: {repeat}"

    # -- invariants -------------------------------------------------------------------

    @invariant()
    def parity_consistent_when_clean(self):
        if self.poisoned or self.array.faulty_lines():
            return
        for plt, mapper in self.engine._tables():
            for group in range(mapper.num_groups):
                expected = xor_reduce(
                    self.array.read(f) for f in mapper.members(group)
                )
                assert plt.parity(group) == expected, (
                    f"parity drift in group {group}"
                )

    @invariant()
    def golden_matches_shadow(self):
        for frame in (0, NUM_LINES // 2, NUM_LINES - 1):
            assert self.array.golden(frame) == CODEC.encode(self.shadow[frame])


SuDokuMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None
)
TestSuDokuStateMachine = SuDokuMachine.TestCase
