"""Property-based tests on the baseline schemes' bookkeeping."""

import random

from hypothesis import given, settings, strategies as st

from repro.baselines.cppc import CPPCCache
from repro.baselines.raid6 import RAID6Cache, rotate_left
from repro.coding.parity import xor_reduce


@settings(max_examples=15, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=31),
              st.integers(min_value=0, max_value=(1 << 512) - 1)),
    min_size=1, max_size=25,
))
def test_property_raid6_parities_track_any_write_sequence(writes):
    cache = RAID6Cache(num_lines=32, group_size=8)
    for frame, value in writes:
        cache.write_data(frame, value)
    width = cache.array.line_bits
    for group in range(4):
        members = cache.mapper.members(group)
        assert cache.row_parity[group] == xor_reduce(
            cache.array.read(f) for f in members
        )
        assert cache.diag_parity[group] == xor_reduce(
            rotate_left(cache.array.read(f), f - members[0], width)
            for f in members
        )


@settings(max_examples=15, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=15),
              st.integers(min_value=0, max_value=(1 << 512) - 1)),
    min_size=1, max_size=25,
))
def test_property_cppc_global_parity_tracks_any_write_sequence(writes):
    cache = CPPCCache(num_lines=16)
    for frame, value in writes:
        cache.write_data(frame, value)
    assert cache.global_parity == xor_reduce(
        cache.array.read(f) for f in range(16)
    )


class TestRecoveryAfterWrites:
    """Parity must still recover lines after arbitrary write traffic."""

    def test_raid6_recovery_post_writes(self):
        rng = random.Random(12)
        cache = RAID6Cache(num_lines=32, group_size=8)
        written = {}
        for _ in range(100):
            frame = rng.randrange(32)
            written[frame] = rng.getrandbits(512)
            cache.write_data(frame, written[frame])
        target = rng.choice(sorted(written))
        from repro.coding.bitvec import random_error_vector

        cache.array.inject(target, random_error_vector(cache.array.line_bits, 5, rng))
        data, outcome = cache.read_data(target)
        assert data == written[target]
        assert outcome.value == "corrected_raid4"

    def test_cppc_recovery_post_writes(self):
        rng = random.Random(13)
        cache = CPPCCache(num_lines=16)
        written = {}
        for _ in range(60):
            frame = rng.randrange(16)
            written[frame] = rng.getrandbits(512)
            cache.write_data(frame, written[frame])
        target = rng.choice(sorted(written))
        from repro.coding.bitvec import random_error_vector

        cache.array.inject(target, random_error_vector(cache.array.line_bits, 3, rng))
        data, outcome = cache.read_data(target)
        assert data == written[target]
        assert outcome.value == "corrected_raid4"
