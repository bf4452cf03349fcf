"""Chaos fault injection for the correction *metadata*.

The paper's design assumption -- and the reproduction's, until now -- is
that the SRAM Parity Line Table never fails.  Field studies of deployed
memory systems disagree: ECC and metadata structures take faults too,
and transient faults propagate through the very logic meant to contain
them.  This module drops the axiom deliberately, as a test harness:

* **PLT bit flips** -- raw SRAM upsets in parity words, applied behind
  the entry CRC's back (``ParityLineTable.corrupt``); the engine's CRC
  verification is expected to catch them.
* **Group-mapping perturbation** -- the PLT row decoder resolves the
  wrong row, modelled as an entry swap between two groups of the same
  table (``ParityLineTable.swap``).  Each entry remains internally
  consistent, but the location-keyed entry CRC (computed over the group
  index as well as the parity) fails at the new slot -- the defence that
  matters, because the linearity of ECC-1/CRC-31/XOR would otherwise
  let the wrong parity reconstruct a valid-but-wrong codeword.
* **Scrub-visit drop / duplicate** -- the scrub scheduler skips a line
  it owed a visit, or visits one twice.

Every knob defaults to zero; a :class:`ChaosInjector` built from the
all-zero :class:`ChaosPolicy` consumes no randomness and perturbs
nothing, so campaigns with chaos disabled remain bit-identical to
campaigns that never heard of this module.  The injector keeps its own
``random.Random`` stream, fully separate from the campaign's fault RNG,
so enabling chaos never shifts the data-fault sequence either.
Campaigns build a fresh injector per interval, seeded from the chaos
seed and the interval index, so no injector state outlives an interval.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class ChaosPolicy:
    """Per-interval rates for each metadata fault class.

    :param plt_flip_rate: per-group, per-interval probability that one
        random bit of the group's parity word flips (CRC not updated).
    :param map_swap_rate: per-group, per-interval probability that the
        group's PLT entry is swapped with a random other group's entry
        (parity and CRC move together -- a mapping fault, not a cell
        fault).
    :param visit_drop_rate: per scheduled scrub visit, probability the
        visit is silently dropped.
    :param visit_duplicate_rate: per scheduled scrub visit, probability
        the visit is performed twice.
    """

    plt_flip_rate: float = 0.0
    map_swap_rate: float = 0.0
    visit_drop_rate: float = 0.0
    visit_duplicate_rate: float = 0.0

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value!r}")

    @property
    def enabled(self) -> bool:
        """Does this policy perturb anything at all?"""
        return any(rate > 0.0 for rate in self.as_dict().values())

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form (checkpoint fingerprints, reports)."""
        return asdict(self)


class ChaosInjector:
    """Applies a :class:`ChaosPolicy` to an engine, interval by interval.

    The injector is deterministic given its seed/rng and records every
    event it applies.  It never touches the campaign's fault RNG.
    """

    def __init__(
        self,
        policy: ChaosPolicy,
        rng: Optional[random.Random] = None,
        seed: int = 0,
    ) -> None:
        self.policy = policy
        self._rng = rng if rng is not None else random.Random(seed)
        self.events: Counter = Counter()

    # -- metadata corruption ------------------------------------------------------

    def corrupt_metadata(self, engine) -> Counter:
        """Apply one interval's worth of PLT corruption to every table.

        ``engine`` is any SuDoku engine (its ``_tables()`` pairs are the
        chaos surface).  Returns the events applied this call.
        """
        applied: Counter = Counter()
        policy = self.policy
        for plt, _mapper in engine._tables():
            if policy.plt_flip_rate > 0.0:
                for group in range(plt.num_groups):
                    if self._rng.random() < policy.plt_flip_rate:
                        bit = self._rng.randrange(plt.line_bits)
                        plt.corrupt(group, 1 << bit)
                        applied["plt_flips"] += 1
            if policy.map_swap_rate > 0.0 and plt.num_groups > 1:
                for group in range(plt.num_groups):
                    if self._rng.random() < policy.map_swap_rate:
                        other = self._rng.randrange(plt.num_groups - 1)
                        if other >= group:
                            other += 1
                        plt.swap(group, other)
                        applied["map_swaps"] += 1
        self.events.update(applied)
        return applied

    # -- scrub schedule perturbation ----------------------------------------------

    def perturb_visits(self, frames: List[int]) -> Tuple[List[int], Counter]:
        """Drop and/or duplicate scheduled scrub visits.

        Returns the perturbed visit list plus the events applied.  With
        both rates zero the input list is returned unchanged and no
        randomness is consumed.
        """
        policy = self.policy
        if policy.visit_drop_rate <= 0.0 and policy.visit_duplicate_rate <= 0.0:
            return frames, Counter()
        applied: Counter = Counter()
        visits: List[int] = []
        for frame in frames:
            if (
                policy.visit_drop_rate > 0.0
                and self._rng.random() < policy.visit_drop_rate
            ):
                applied["visits_dropped"] += 1
                continue
            visits.append(frame)
            if (
                policy.visit_duplicate_rate > 0.0
                and self._rng.random() < policy.visit_duplicate_rate
            ):
                visits.append(frame)
                applied["visits_duplicated"] += 1
        self.events.update(applied)
        return visits, applied
