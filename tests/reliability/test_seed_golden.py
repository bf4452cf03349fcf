"""Golden same-seed results: the RNG refactor changed nothing.

These exact dictionaries were captured from the seeded sharded runners
*before* the ``core.rng`` seed-threading refactor and the RPR001-RPR003
repairs landed.  A seeded campaign is a pure function of its seed; any
drift here means a code change silently rewired an RNG stream or an
outcome label, which is precisely the regression class the refactor is
not allowed to introduce.

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
        "due": 235,
        "corrected_ecc1": 54,
        "clean": 29,
        "corrected_hash2": 2,
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
    "conditional_failures": 1,
    "conditioning_probability": 0.5208748866882723,
    "ber": 0.001,
    "group_size": 16,
    "num_groups": 64,
    "interval_s": 0.02,
    "truncated": False,
    "stop_reason": "",
    "conditional_failure_probability": 0.16666666666666666,
    "fit": 1046177647133291.6,
    # Derived fields added to as_dict() by the serve PR; every tally
    # above is untouched, and these are pure functions of those tallies
    # (pinned against ConditionalResult's own recomputation in
    # tests/reliability/test_raresim.py::TestResultSchema).
    "conditional_ci_low": 0.03005258587173032,
    "conditional_ci_high": 0.563509436563646,
    "cache_failure_probability": 0.9970088520623641,
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
# Captured from the three separate campaign loops (Monte-Carlo,
# scenario, rare-event) before they were folded into one boundary loop
# and one interval body.  Chaos exercises every branch of the shared
# interval body: metadata corruption, visit drops/duplicates, the
# interval-end audit, and both failed and clean intervals.

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

GOLDEN_CHAOS_CAMPAIGN = {
    "intervals": 8,
    "ber": 0.001,
    "interval_s": 0.02,
    "outcomes": {
        "clean": 307,
        "corrected_ecc1": 158,
        "corrected_hash2": 8,
        "corrected_raid4": 22,
        "corrected_sdr": 18,
        "metadata_due": 1,
    },
    "interval_failures": 1,
    "lines": 64,
    "truncated": False,
    "stop_reason": "",
    "metadata": {
        "map_swaps": 2,
        "plt_flips": 8,
        "residual_crc_faults": 2,
        "residual_rebuilt": 5,
        "visits_dropped": 12,
        "visits_duplicated": 8,
    },
    "failure_probability": 0.125,
}

#: Two Monte-Carlo shards draw from spawned streams, so this is a
#: different (but equally pinned) quantity than the serial run.
GOLDEN_CHAOS_CAMPAIGN_2SHARD = {
    "intervals": 8,
    "ber": 0.001,
    "interval_s": 0.02,
    "outcomes": {
        "clean": 310,
        "corrected_ecc1": 151,
        "corrected_hash2": 10,
        "corrected_raid4": 20,
        "corrected_sdr": 20,
        "metadata_due": 1,
    },
    "interval_failures": 1,
    "lines": 64,
    "truncated": False,
    "stop_reason": "",
    "metadata": {
        "map_swaps": 3,
        "plt_flips": 10,
        "residual_crc_faults": 8,
        "residual_rebuilt": 11,
        "visits_dropped": 13,
        "visits_duplicated": 6,
    },
    "failure_probability": 0.125,
}

GOLDEN_SCENARIO = {
    "intervals": 8,
    "ber": 0.002,
    "interval_s": 0.02,
    "outcomes": {
        "clean": 161,
        "corrected_ecc1": 176,
        "corrected_hash2": 74,
        "corrected_raid4": 10,
        "corrected_sdr": 29,
        "due": 95,
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


@pytest.mark.parametrize(
    "shards, golden",
    [(1, GOLDEN_CHAOS_CAMPAIGN), (2, GOLDEN_CHAOS_CAMPAIGN_2SHARD)],
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
