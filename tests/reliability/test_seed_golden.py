"""Golden same-seed results: a seeded campaign is a pure function of its seed.

The Monte-Carlo and scenario dictionaries were re-captured at
``RESULT_VERSION`` 2, when Monte-Carlo campaigns moved onto the
per-interval seed tree and a stuck-at line stopped being counted twice
in one scrub pass.  The rare-event dictionaries were re-captured at
``RESULT_VERSION`` 3, when trial ``t`` moved onto seed-tree child
``(seed, t)`` and Hash-2 side-group parity onto golden words.  Any drift here means a code change
silently rewired an RNG stream or an outcome label.

Do not "update" these values to make a failure pass without
establishing exactly which change moved them and why that is correct.
"""

import pytest

from repro.parallel.runner import (
    run_sharded_campaign,
    run_sharded_raresim,
    run_sharded_scenario,
)
from repro.reliability.scenario import BurstSpec, FaultScenario, StuckSpec
from repro.resilience import ChaosPolicy

GOLDEN_CAMPAIGN = {
    "intervals": 5,
    "ber": 0.005,
    "interval_s": 0.02,
    "outcomes": {
        "due": 253,
        "corrected_ecc1": 55,
        "clean": 12,
    },
    "interval_failures": 5,
    "lines": 64,
    "truncated": False,
    "stop_reason": "",
    "metadata": {},
    "failure_probability": 1.0,
}

GOLDEN_RARESIM = {
    "trials": 6,
    "conditional_failures": 0,
    "conditioning_probability": 0.5208748866882723,
    "ber": 0.001,
    "group_size": 16,
    "num_groups": 64,
    "interval_s": 0.02,
    "truncated": False,
    "stop_reason": "",
    "conditional_failure_probability": 0.0,
    "fit": 0.0,
    # Derived fields: pure functions of the tallies above (pinned
    # against ConditionalResult's own recomputation in
    # tests/reliability/test_raresim.py::TestResultSchema).
    "conditional_ci_low": 0.0,
    "conditional_ci_high": 0.3903430336530645,
    "cache_failure_probability": 0.0,
}


def test_seeded_campaign_is_bit_identical_to_pre_refactor_capture():
    result = run_sharded_campaign(
        "Z", 5e-3, 5, 8, shards=1, seed=7
    ).as_dict()
    assert result == GOLDEN_CAMPAIGN


def test_seeded_raresim_is_bit_identical_to_pre_refactor_capture():
    result = run_sharded_raresim(
        "Z", 1e-3, 6, 16, 64, shards=1, seed=3
    ).as_dict()
    assert result == GOLDEN_RARESIM


# -- campaign loop consolidation ---------------------------------------------
#
# Chaos exercises every branch of the shared interval loop: metadata
# corruption, visit drops/duplicates, the interval-end parity re-init
# and audit, and both failed and clean intervals.

#: Every chaos knob on, at rates that fire a few times per run.
GOLDEN_CHAOS = ChaosPolicy(
    plt_flip_rate=0.05, map_swap_rate=0.02,
    visit_drop_rate=0.05, visit_duplicate_rate=0.05,
)

#: Transient + burst + stuck-at: the scenario engine's full source mix.
GOLDEN_MIXED = FaultScenario(
    transient_ber=2e-3,
    burst=BurstSpec(rate=0.05, length_pmf=((2, 0.5), (4, 0.5)), interleave=2),
    stuck=StuckSpec(ppm=300.0),
)

#: The same rare-event run under the mixed overlay: stuck-at maps and
#: bursts on every trial group, and a failure for the tally to pin.
GOLDEN_RARESIM_MIXED = dict(
    GOLDEN_RARESIM,
    conditional_failures=1,
    conditional_failure_probability=0.16666666666666666,
    fit=1046177647133291.6,
    conditional_ci_low=0.03005258587173032,
    conditional_ci_high=0.563509436563646,
    cache_failure_probability=0.9970088520623641,
)

GOLDEN_CHAOS_CAMPAIGN = {
    "intervals": 8,
    "ber": 0.001,
    "interval_s": 0.02,
    "outcomes": {
        "clean": 294,
        "corrected_ecc1": 160,
        "corrected_hash2": 15,
        "corrected_raid4": 20,
        "corrected_sdr": 20,
        "due": 1,
        "metadata_due": 2,
    },
    "interval_failures": 2,
    "lines": 64,
    "truncated": False,
    "stop_reason": "",
    "metadata": {
        "map_swaps": 4,
        "plt_flips": 11,
        "visits_dropped": 17,
        "visits_duplicated": 9,
    },
    "failure_probability": 0.25,
}

GOLDEN_SCENARIO = {
    "intervals": 8,
    "ber": 0.002,
    "interval_s": 0.02,
    "outcomes": {
        "clean": 161,
        "corrected_ecc1": 171,
        "corrected_hash2": 74,
        "corrected_raid4": 10,
        "corrected_sdr": 29,
        "due": 79,
        "metadata_due": 2,
    },
    "interval_failures": 7,
    "lines": 64,
    "truncated": False,
    "stop_reason": "",
    "metadata": {
        "map_swaps": 1,
        "plt_flips": 6,
        "visits_dropped": 22,
        "visits_duplicated": 14,
    },
    "failure_probability": 0.875,
}


#: Two shards replay the serial run's intervals, so both pin one dict.
@pytest.mark.parametrize(
    "shards, golden",
    [(1, GOLDEN_CHAOS_CAMPAIGN), (2, GOLDEN_CHAOS_CAMPAIGN)],
)
def test_seeded_chaos_campaign_is_bit_identical(shards, golden):
    result = run_sharded_campaign(
        "Z", 1e-3, 8, 8, shards=shards, seed=7,
        chaos_policy=GOLDEN_CHAOS, chaos_seed=3,
    ).as_dict()
    assert result == golden


@pytest.mark.parametrize("shards", [1, 2])
def test_seeded_scenario_is_bit_identical(shards):
    result = run_sharded_scenario(
        "Z", GOLDEN_MIXED, 8, 8, shards=shards, seed=11,
        chaos_policy=GOLDEN_CHAOS, chaos_seed=5,
    ).as_dict()
    assert result == GOLDEN_SCENARIO


#: Trial t draws from seed-tree child (seed, t) whichever shard runs
#: it, so every shard count pins the serial dicts.
@pytest.mark.parametrize("shards", [1, 2, 3])
def test_seeded_raresim_is_shard_invariant(shards):
    plain = run_sharded_raresim(
        "Z", 1e-3, 6, 16, 64, shards=shards, seed=3
    ).as_dict()
    mixed = run_sharded_raresim(
        "Z", 1e-3, 6, 16, 64, shards=shards, seed=3, scenario=GOLDEN_MIXED
    ).as_dict()
    assert (plain, mixed) == (GOLDEN_RARESIM, GOLDEN_RARESIM_MIXED)
