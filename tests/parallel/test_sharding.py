"""Unit tests for the deterministic shard arithmetic."""

import numpy as np
import pytest

from repro.parallel import (
    interval_python_seed,
    interval_seed_sequence,
    shard_checkpoint_path,
    split_units,
)


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


class TestShardCheckpointPath:
    def test_extension_preserved(self):
        assert (shard_checkpoint_path("out/ck.json", 0, 4)
                == "out/ck.shard0of4.json")
        assert (shard_checkpoint_path("out/ck.json", 3, 4)
                == "out/ck.shard3of4.json")

    def test_no_extension(self):
        assert shard_checkpoint_path("ck", 1, 2) == "ck.shard1of2"

    def test_shard_count_in_name_prevents_cross_k_resume(self):
        assert (shard_checkpoint_path("ck.json", 0, 2)
                != shard_checkpoint_path("ck.json", 0, 4))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            shard_checkpoint_path("", 0, 2)
        with pytest.raises(ValueError):
            shard_checkpoint_path("ck.json", 2, 2)
        with pytest.raises(ValueError):
            shard_checkpoint_path("ck.json", -1, 2)
