"""Seed/RNG resolution: one sanctioned fallback for every constructor.

Campaign determinism rests on RNG streams being pure functions of an
explicit seed.  Historically, ten constructors carried the idiom
``rng if rng is not None else np.random.default_rng()`` -- a silent
nondeterminism trap: forget to thread ``rng=`` anywhere along a call
chain and the run stops being reproducible without any signal.  The
``repro lint`` rule RPR002 now forbids that idiom; this module provides
the replacement.

:func:`resolve_rng` applies one policy:

* an explicit ``rng`` wins (passing both ``rng`` and ``seed`` is an
  error -- the ambiguity has no right answer);
* an explicit ``seed`` derives a fresh generator deterministically;
* neither: a fresh OS-entropy generator is returned *and a one-time*
  :class:`UnseededRNGWarning` *is emitted per owner* -- fine for
  interactive exploration, loud enough that a campaign path reaching it
  gets noticed and fixed.
"""

from __future__ import annotations

import warnings
from typing import Optional, Set, Union

import numpy as np

#: Seed types ``np.random.default_rng`` accepts (int or SeedSequence).
SeedLike = Union[int, np.random.SeedSequence]


class UnseededRNGWarning(RuntimeWarning):
    """A stochastic component was built without ``rng=`` or ``seed=``.

    Results involving it are not reproducible; campaigns and tests
    should always thread one of the two.
    """


#: Owners already warned for, so interactive sessions see each message
#: once instead of per construction.
_WARNED_OWNERS: Set[str] = set()


def _warn_unseeded(owner: str) -> None:
    if owner in _WARNED_OWNERS:
        return
    _WARNED_OWNERS.add(owner)
    warnings.warn(
        f"{owner} constructed without rng= or seed=: results will not be "
        "reproducible; pass an explicit seed for campaign or test use",
        UnseededRNGWarning,
        stacklevel=4,
    )


def reset_unseeded_warnings() -> None:
    """Forget which owners have warned (test isolation hook)."""
    _WARNED_OWNERS.clear()


def _check_exclusive(rng: object, seed: object, owner: str) -> None:
    if rng is not None and seed is not None:
        raise ValueError(
            f"{owner}: pass either rng= or seed=, not both "
            "(an explicit generator already encodes its seeding)"
        )


def resolve_rng(
    rng: Optional[np.random.Generator] = None,
    seed: Optional[SeedLike] = None,
    *,
    owner: str = "component",
) -> np.random.Generator:
    """Resolve a numpy :class:`~numpy.random.Generator` from rng/seed.

    :param rng: an existing generator (takes precedence; exclusive with
        ``seed``).
    :param seed: an int or ``SeedSequence`` to derive a generator from.
    :param owner: name used in the one-time unseeded warning.
    """
    _check_exclusive(rng, seed, owner)
    if rng is not None:
        return rng
    if seed is not None:
        return np.random.default_rng(seed)
    _warn_unseeded(owner)
    # The one sanctioned unseeded construction in the codebase (RPR002
    # exempts this module): interactive use, after the warning above.
    return np.random.default_rng()

