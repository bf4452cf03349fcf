"""Unit tests for repro.coding.parity."""

import random

from hypothesis import given, settings, strategies as st

from repro.coding.parity import xor_reduce


class TestXorReduce:
    def test_empty(self):
        assert xor_reduce([]) == 0

    def test_self_inverse(self):
        values = [3, 7, 3, 7]
        assert xor_reduce(values) == 0

    def test_known(self):
        assert xor_reduce([0b1100, 0b1010]) == 0b0110


class TestReconstruct:
    """RAID-4 reconstruction is the fold of the parity with the rest."""

    def test_recovers_missing_member(self):
        rng = random.Random(1)
        members = [rng.getrandbits(64) for _ in range(8)]
        parity = xor_reduce(members)
        for index in range(8):
            others = members[:index] + members[index + 1 :]
            assert xor_reduce([parity, *others]) == members[index]


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1), min_size=2, max_size=16))
def test_property_reconstruct_any_member(members):
    parity = xor_reduce(members)
    index = len(members) // 2
    others = members[:index] + members[index + 1 :]
    assert xor_reduce([parity, *others]) == members[index]
