"""Deterministic shard arithmetic: unit splits and the seed tree.

A sharded campaign is *defined* by pure functions of the campaign seed
and the global unit index:

* :func:`split_units` -- how many intervals/trials each shard owns;
* :func:`shard_slices` -- the contiguous global slice each shard runs,
  sharing out the units a resumed checkpoint has not done yet;
* :func:`interval_seed_sequence`, :func:`interval_generator` and
  :func:`interval_python_seed` -- the seed tree: a unit's streams are
  children of the campaign seed keyed by its global index, whichever
  shard runs it.

Every campaign kind (Monte-Carlo, scenario, rare-event) derives each
unit's streams from the campaign seed and the unit's global index, so
a shard replays exactly the serial run's units and a checkpoint needs
no RNG state.  That is what makes the merged result of a sharded
campaign equal the serial one, and what lets a killed run resume at
any shard count and reproduce it bit for bit.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

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


def shard_slices(
    total: int, shards: int, done: Sequence[Tuple[int, int]] = ()
) -> List[Tuple[int, int]]:
    """Contiguous global slices ``[start, end)`` covering ``[0, total)``.

    The units outside ``done`` (ascending, disjoint ranges a resumed
    checkpoint has completed) are shared out as :func:`split_units`
    shares ``total`` units; each done unit falls in whichever slice
    surrounds it, and the shard running that slice skips it.  Without
    ``done`` the slices are the plain :func:`split_units` split.
    """
    counts = split_units(total - sum(end - start for start, end in done), shards)
    cuts = [sum(counts[:index]) for index in range(shards)]
    for start, end in done:
        # Each cut moves past the done units before it.
        cuts = [cut + end - start if start < cut else cut for cut in cuts]
    return list(zip(cuts, cuts[1:] + [total]))


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
