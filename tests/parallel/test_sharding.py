"""Unit tests for the deterministic shard arithmetic."""

import pytest

from repro.parallel import (
    shard_checkpoint_path,
    shard_python_seeds,
    spawn_seed_sequences,
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
    def test_same_seed_same_streams(self):
        a = spawn_seed_sequences(42, 3)
        b = spawn_seed_sequences(42, 3)
        assert [s.entropy for s in a] == [s.entropy for s in b]
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]

    def test_python_seeds_deterministic_and_distinct(self):
        seeds = shard_python_seeds(0, 4)
        assert seeds == shard_python_seeds(0, 4)
        assert len(set(seeds)) == 4
        assert all(seed >= 0 for seed in seeds)

    def test_seed_changes_streams(self):
        assert shard_python_seeds(0, 2) != shard_python_seeds(1, 2)

    def test_invalid_shards(self):
        with pytest.raises(ValueError):
            spawn_seed_sequences(0, 0)


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
