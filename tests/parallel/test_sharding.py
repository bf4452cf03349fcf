"""Unit tests for the deterministic shard arithmetic."""

import numpy as np
import pytest

from repro.parallel import (
    interval_python_seed,
    interval_seed_sequence,
    split_units,
)
from repro.parallel.sharding import shard_slices


class TestSplitUnits:
    def test_even_split(self):
        assert split_units(8, 4) == [2, 2, 2, 2]

    def test_remainder_goes_to_first_shards(self):
        assert split_units(10, 4) == [3, 3, 2, 2]

    def test_more_shards_than_units(self):
        assert split_units(2, 5) == [1, 1, 0, 0, 0]

    def test_always_sums_to_total(self):
        for total in (0, 1, 7, 100, 101):
            for shards in (1, 2, 3, 8):
                assert sum(split_units(total, shards)) == total

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            split_units(10, 0)
        with pytest.raises(ValueError):
            split_units(-1, 2)


class TestSeedSpawning:
    """The seed tree: each unit draws from a child keyed by its index."""

    def test_same_seed_same_streams(self):
        a = [interval_seed_sequence(42, index) for index in range(3)]
        b = [interval_seed_sequence(42, index) for index in range(3)]
        assert [s.entropy for s in a] == [s.entropy for s in b]
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]

    def test_python_seeds_deterministic_and_distinct(self):
        seeds = [interval_python_seed(0, index) for index in range(4)]
        assert seeds == [interval_python_seed(0, index) for index in range(4)]
        assert len(set(seeds)) == 4
        assert all(seed >= 0 for seed in seeds)

    def test_seed_changes_streams(self):
        assert interval_python_seed(0, 2) != interval_python_seed(1, 2)

    def test_child_is_independent_of_the_unit_count(self):
        """Child i is the same sequence however many siblings exist,
        so a shard needs only the global index of its first unit."""
        spawned = np.random.SeedSequence(9).spawn(5)[3]
        direct = interval_seed_sequence(9, 3)
        assert (spawned.generate_state(4) == direct.generate_state(4)).all()

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            interval_seed_sequence(0, -1)


class TestShardSlices:
    def test_fresh_run_is_the_unit_split(self):
        assert shard_slices(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]
        assert shard_slices(2, 3) == [(0, 1), (1, 2), (2, 2)]

    def test_remaining_units_are_shared_evenly(self):
        done = [(0, 1), (4, 5)]
        slices = shard_slices(8, 3, done)
        assert slices == [(0, 3), (3, 6), (6, 8)]

        def remaining(start, end):
            return [u for u in range(start, end)
                    if not any(a <= u < b for a, b in done)]

        assert [len(remaining(*s)) for s in slices] == split_units(6, 3)

    def test_slices_cover_every_unit_once(self):
        for done in ([], [(0, 4)], [(8, 10)], [(2, 4), (6, 7)], [(0, 10)]):
            for shards in (1, 2, 3, 7):
                slices = shard_slices(10, shards, done)
                assert slices[0][0] == 0 and slices[-1][1] == 10
                assert all(a <= b for a, b in slices)
                assert all(
                    left[1] == right[0]
                    for left, right in zip(slices, slices[1:])
                )

    def test_done_head_moves_the_first_cut(self):
        assert shard_slices(10, 2, [(0, 4)]) == [(0, 7), (7, 10)]
