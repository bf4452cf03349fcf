"""Deterministic shard arithmetic: unit splits, the seed tree, paths.

A sharded campaign is *defined* by pure functions of the campaign seed
and the global unit index:

* :func:`split_units` -- how many intervals/trials each shard owns;
* :func:`interval_seed_sequence`, :func:`interval_generator` and
  :func:`interval_python_seed` -- the seed tree: a unit's streams are
  children of the campaign seed keyed by its global index, whichever
  shard runs it;
* :func:`shard_checkpoint_path` -- where each shard snapshots its state.

Every campaign kind (Monte-Carlo, scenario, rare-event) derives each
unit's streams from the campaign seed and the unit's global index, so
a shard replays exactly the serial run's units and a checkpoint needs
no RNG state.  That is what makes the merged result of a sharded
campaign equal the serial one, and what lets a killed-and-resumed run
reproduce it bit for bit.
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


def interval_seed_sequence(seed: int, index: int) -> np.random.SeedSequence:
    """The per-interval child ``SeedSequence`` of an interval campaign.

    ``SeedSequence(seed, spawn_key=(index,))`` is by construction the
    same sequence as ``SeedSequence(seed).spawn(n)[index]`` for any
    ``n > index``, so per-interval streams can be derived directly from
    the *global* interval index without knowing how many intervals the
    campaign has or which shard owns this one.  That property is what
    makes every campaign kind shard-invariant: serial and K-sharded
    runs consume identical randomness per unit.
    """
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return np.random.SeedSequence(seed, spawn_key=(index,))


def interval_generator(seed: int, index: int) -> np.random.Generator:
    """Numpy generator for one (campaign seed, global index) pair."""
    return np.random.default_rng(interval_seed_sequence(seed, index))


def interval_python_seed(seed: int, index: int) -> int:
    """Stdlib-RNG seed for one (campaign seed, global index) pair.

    Used for the stdlib streams: each rare-event trial and each
    interval's chaos injector.  Deriving a fresh stream per unit
    (instead of threading one stateful stream through the loop) keeps
    them composable with sharding and RNG-free checkpoints.
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
