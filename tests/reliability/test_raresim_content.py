"""Content-free rare-event groups equal an all-random-content build.

Every repair check is affine over GF(2), so a trial's outcome depends
on its error vectors, not on what its lines store -- except at stuck
cells.  ``ConditionalGroupSimulator`` therefore gives content only to
stuck lines (and to a Z side group's stuck slot 0, which aliases the
survivor).  The oracle below gives every line of every group, Hash-1
and Hash-2 side groups alike, the campaign fill rule's random words,
as the simulator once did; results must be identical.
"""

import random

import numpy as np
import pytest

from repro.core.engine import SuDokuY
from repro.parallel import run_sharded_raresim
from repro.reliability.raresim import ConditionalGroupSimulator
from repro.reliability.scenario import BurstSpec, FaultScenario, StuckSpec
from repro.sttram.array import STTRAMArray

SEED = 7


class RandomContentSimulator(ConditionalGroupSimulator):
    """Oracle: every line holds a random word of the content stream."""

    def _fresh_group(self, rng):
        array = STTRAMArray(self.group_size, self.line_bits)
        if self.scenario is not None:
            stuck_map = self.scenario.build_stuck_map(
                self.group_size, self.line_bits, rng
            )
            if stuck_map is not None:
                array.attach_permanent_faults(stuck_map)
        engine = SuDokuY(
            array, group_size=self.group_size, codec=self.codec,
            format_array=False, telemetry=self._telemetry,
            backend=self.backend, sdr_max_mismatches=self.sdr_max_mismatches,
        )
        content_seed = int(rng.integers(0, 2 ** 63))
        getrandbits = random.Random(content_seed).getrandbits
        words = [
            self.codec.encode(getrandbits(self.codec.layout.data_bits))
            for _ in range(self.group_size)
        ]
        array.write_many(range(self.group_size), words)
        engine.plt.rebuild(0, words)
        return engine, content_seed

    def _side_group(self, rng, array, survivor, content_seed):
        side, _ = self._fresh_group(rng)
        side_array = side.array
        side_array.write(0, array.golden(survivor))
        side.plt.rebuild(
            0, [side_array.golden(f) for f in range(self.group_size)]
        )
        side_array.inject(0, array.error_vector(survivor))
        hits = np.flatnonzero(rng.random(self.group_size - 1) < self.p_multi)
        self._inject_multi_bit(rng, side_array, hits + 1)
        return side


class FillAtSideSlotZero(ConditionalGroupSimulator):
    """The content-free build, but a side group's slot 0 holds the fill
    word instead of the survivor's content: the trap the targeted case
    guards."""

    def _side_group(self, rng, array, survivor, content_seed):
        side, _ = self._fresh_group(rng)
        side_array = side.array
        if side_array.golden(0) != self._fill:
            self._write_content(side, [0], [self._fill])
        side_array.inject(0, array.error_vector(survivor))
        hits = np.flatnonzero(rng.random(self.group_size - 1) < self.p_multi)
        self._inject_multi_bit(rng, side_array, hits + 1)
        return side


def overlay(ber, ppm, burst_rate):
    return FaultScenario(
        transient_ber=ber,
        stuck=StuckSpec(ppm=ppm),
        burst=BurstSpec(rate=burst_rate, length_pmf=((2, 0.5), (4, 0.5))),
    )


#: (ber, group size, trials, overlay); every point mixes failures and
#: repairs for both levels, so a content dependence can show.
POINTS = {
    "plain-G16": (1e-3, 16, 200, None),
    "plain-G512": (2e-4, 512, 40, None),
    "overlay-G16": (1e-3, 16, 200, overlay(1e-3, 300.0, 0.05)),
    "overlay-G512": (2e-4, 512, 40, overlay(2e-4, 30.0, 5e-4)),
}


def oracle(level, ber, group, trials, scenario, cls=RandomContentSimulator):
    return cls(
        ber=ber, group_size=group, seed=SEED, scenario=scenario,
    ).run(level, trials)


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("level", ["Y", "Z"])
def test_content_free_equals_random_content(level, point, shards):
    ber, group, trials, scenario = POINTS[point]
    expected = oracle(level, ber, group, trials, scenario)
    assert 0 < expected.conditional_failures < trials
    result = run_sharded_raresim(
        level, ber, trials, group, seed=SEED, shards=shards,
        scenario=scenario,
    )
    assert result.as_dict() == expected.as_dict()


def test_side_slot_zero_holds_the_survivors_content():
    """In trial 51 of this Z point a side group's stuck slot 0 meets the
    survivor's content: the fill word there repairs a group the oracle
    loses, so the trap's failure count is one short, and the simulator
    matches the oracle."""
    ber, group, trials = 1e-3, 16, 60
    scenario = FaultScenario(transient_ber=ber, stuck=StuckSpec(ppm=2000.0))
    expected = oracle("Z", ber, group, trials, scenario)
    trap = oracle("Z", ber, group, trials, scenario, cls=FillAtSideSlotZero)
    assert trap.as_dict() != expected.as_dict()
    result = run_sharded_raresim(
        "Z", ber, trials, group, seed=SEED, scenario=scenario
    )
    assert result.as_dict() == expected.as_dict()
