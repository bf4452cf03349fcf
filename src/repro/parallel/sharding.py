"""Deterministic shard arithmetic: unit splits, RNG streams, paths.

A sharded campaign is *defined* by three pure functions of
``(seed, shards)``:

* :func:`split_units` -- how many intervals/trials each shard owns;
* :func:`shard_python_seeds` -- the per-shard rare-event streams,
  derived with ``numpy.random.SeedSequence.spawn`` so the streams are
  statistically independent *and* reproducible: the same
  ``(seed, shards)`` always yields the same K streams, regardless of how
  the shards are scheduled across processes;
* :func:`shard_checkpoint_path` -- where each shard snapshots its state.

Interval campaigns (Monte-Carlo and scenario) need no per-shard
streams: :func:`interval_generator` and :func:`interval_python_seed`
derive each interval's streams from the campaign seed and the global
interval index, so a shard replays the serial run's intervals exactly.

Keeping these deterministic is what makes the merged result of a
sharded campaign a well-defined quantity that a killed-and-resumed run
can reproduce bit for bit.
"""

from __future__ import annotations

import os
from typing import List

import numpy as np

#: How many 32-bit words of SeedSequence output feed each derived
#: ``random.Random`` seed (128 bits, matching numpy's own default pool).
_PYTHON_SEED_WORDS = 4


def split_units(total: int, shards: int) -> List[int]:
    """Balanced split of ``total`` work units across ``shards``.

    The first ``total % shards`` shards take one extra unit, so shard
    sizes differ by at most one and the assignment is a pure function of
    ``(total, shards)``.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if total < 0:
        raise ValueError(f"total units must be non-negative, got {total}")
    base, extra = divmod(total, shards)
    return [base + (1 if index < extra else 0) for index in range(shards)]


def spawn_seed_sequences(seed: int, shards: int) -> List[np.random.SeedSequence]:
    """The K child ``SeedSequence``s of campaign ``seed``."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return list(np.random.SeedSequence(seed).spawn(shards))


def shard_python_seeds(seed: int, shards: int) -> List[int]:
    """Independent per-shard seeds for ``random.Random`` campaigns.

    Rare-event streams use the stdlib RNG; their shard seeds
    are drawn from the same spawned ``SeedSequence`` tree as the numpy
    streams, so one campaign seed governs every stream in the run.
    """
    seeds = []
    for sequence in spawn_seed_sequences(seed, shards):
        words = sequence.generate_state(_PYTHON_SEED_WORDS, dtype=np.uint32)
        seeds.append(int.from_bytes(words.tobytes(), "little"))
    return seeds


def interval_seed_sequence(seed: int, index: int) -> np.random.SeedSequence:
    """The per-interval child ``SeedSequence`` of an interval campaign.

    ``SeedSequence(seed, spawn_key=(index,))`` is by construction the
    same sequence as ``SeedSequence(seed).spawn(n)[index]`` for any
    ``n > index``, so per-interval streams can be derived directly from
    the *global* interval index without knowing how many intervals the
    campaign has or which shard owns this one.  That property is what
    makes Monte-Carlo and scenario campaigns shard-invariant: serial and
    K-sharded runs consume identical randomness per interval.
    """
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return np.random.SeedSequence(seed, spawn_key=(index,))


def interval_generator(seed: int, index: int) -> np.random.Generator:
    """Numpy generator for one (campaign seed, global index) pair."""
    return np.random.default_rng(interval_seed_sequence(seed, index))


def interval_python_seed(seed: int, index: int) -> int:
    """Stdlib-RNG seed for one (campaign seed, global index) pair.

    Used for the per-interval chaos injectors of interval campaigns:
    deriving a fresh injector per interval (instead of threading one
    stateful stream through the loop) keeps chaos composable with
    sharding and RNG-free checkpoints.
    """
    words = interval_seed_sequence(seed, index).generate_state(
        _PYTHON_SEED_WORDS, dtype=np.uint32
    )
    return int.from_bytes(words.tobytes(), "little")


def shard_checkpoint_path(base: str, index: int, shards: int) -> str:
    """Per-shard checkpoint file derived from the base ``--checkpoint``.

    ``ck.json`` with 4 shards maps to ``ck.shard0of4.json`` ...
    ``ck.shard3of4.json``: the shard count is part of the name, so a
    resume under a different ``--shards`` cannot silently pick up
    incompatible snapshots (it finds no files and fails fast instead).
    """
    if not base:
        raise ValueError("checkpoint base path must be non-empty")
    if not 0 <= index < shards:
        raise ValueError(f"shard index {index} out of range for {shards} shards")
    root, extension = os.path.splitext(base)
    return f"{root}.shard{index}of{shards}{extension}"
