"""Pinned correction accounting of failure-heavy SuDoku-Z runs.

``golden_peel_accounting.json`` holds, per case, what a seeded run left
in the engine and its telemetry: ``engine.stats.as_dict()``, the exact
``repr`` of ``engine.correction_time_s`` (a float accumulated addend by
addend, so any reordering or pre-summing shows), the Prometheus text
export without its wall-clock families, and the completed-span
sequence with timings removed (name, depth, status, attributes).  The
cases cover the telemetry CI campaign, the campaign-z-fail operating
point on the numpy backend, a mixed-fault scenario with stuck-at lines
and parity-metadata chaos on the reference backend, and two numpy runs
dominated by single-bit lines: a 2^18-line, G=512 campaign whose
thousands of ECC-1 lines per interval surround RAID-4, SDR and Hash-2
repairs, and a mixed scenario with stuck-at lines and dropped and
duplicated scrub visits.

The Hash-2 peel may skip work it has already done, and the scrub may
resolve runs of ECC-1 lines in bulk, but both must account that work
exactly as if they had run it line by line; these goldens are the check.
Every case also runs without telemetry and must leave the same stats,
correction time and result.  Do not regenerate the file to make a failure pass.
Regenerate it only for a deliberate result change, by running this
module as a script.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core.engine import build_engine
from repro.core.linecodec import LineCodec
from repro.obs import Telemetry
from repro.reliability import scenario as scenario_module
from repro.reliability.montecarlo import run_engine_campaign
from repro.reliability.scenario import (
    BurstSpec,
    FaultScenario,
    StuckSpec,
    run_scenario_campaign,
)
from repro.resilience.chaos import ChaosPolicy
from repro.sttram.array import STTRAMArray

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_peel_accounting.json")

#: Histogram families timed by the wall clock, not the simulation.
WALL_CLOCK_FAMILIES = ("campaign_interval_seconds",)

MIXED = FaultScenario(
    transient_ber=2e-3,
    burst=BurstSpec(rate=0.05, length_pmf=((2, 0.5), (4, 0.5)), interleave=2),
    stuck=StuckSpec(ppm=300.0),
)
#: MIXED at a tenth of the transient rate: mostly single-bit lines.
MIXED_SPARSE = FaultScenario(
    transient_ber=2e-4,
    burst=BurstSpec(rate=0.05, length_pmf=((2, 0.5), (4, 0.5)), interleave=2),
    stuck=StuckSpec(ppm=300.0),
)
METADATA_CHAOS = ChaosPolicy(plt_flip_rate=0.05, map_swap_rate=0.02)
VISIT_CHAOS = ChaosPolicy(visit_drop_rate=0.05, visit_duplicate_rate=0.1)


def _campaign(group_size, ber, intervals, seed, backend, telemetry):
    """The serial ``repro campaign`` path."""
    codec = LineCodec()
    array = STTRAMArray(group_size * group_size, codec.stored_bits)
    engine = build_engine("Z", array, group_size=group_size, codec=codec)
    result = run_engine_campaign(
        engine, ber, intervals, rng=np.random.default_rng(seed),
        randomize_content=False, telemetry=telemetry, backend=backend,
    )
    return engine, result


def _scenario(
    scenario, group_size, seed, backend, chaos_policy, chaos_seed, telemetry
):
    engines = []
    setup = scenario_module._setup_scheme

    def capture(*args, **kwargs):
        engines.append(setup(*args, **kwargs))
        return engines[-1]

    scenario_module._setup_scheme = capture
    try:
        result = run_scenario_campaign(
            "Z", scenario, intervals=6, group_size=group_size, seed=seed,
            telemetry=telemetry, chaos_policy=chaos_policy,
            chaos_seed=chaos_seed, backend=backend,
        )
    finally:
        scenario_module._setup_scheme = setup
    (engine,) = engines
    return engine, result


#: Each case runs with the telemetry bundle it is given (None: none).
CASES = {
    # The telemetry CI job: campaign --level Z --ber 2e-3 --intervals 5
    # --group-size 8 --seed 5.
    "ci-telemetry": lambda t: _campaign(8, 2e-3, 5, 5, "reference", t),
    # The campaign-z-fail operating point (G=16, BER 2e-3, numpy).
    "campaign-z-fail": lambda t: _campaign(16, 2e-3, 4, 11, "numpy", t),
    "scenario-mixed-chaos": lambda t: _scenario(
        MIXED, 8, 3, "reference", METADATA_CHAOS, 4, t
    ),
    # The paper's G=512 over 2^18 lines at BER 1e-4: ~14k single-bit
    # lines per interval around RAID-4, SDR and Hash-2 repairs.
    "paper-g512-ecc1": lambda t: _campaign(512, 1e-4, 6, 17, "numpy", t),
    # Stuck-at lines re-visited every interval, plus dropped and
    # duplicated visits, on the numpy backend.
    "scenario-mixed-stuck-numpy": lambda t: _scenario(
        MIXED_SPARSE, 32, 8, "numpy", VISIT_CHAOS, 6, t
    ),
}


def _prometheus(telemetry):
    keep = []
    for line in telemetry.prometheus_text().splitlines():
        name = line.split()[2] if line.startswith("#") else line
        if not name.startswith(WALL_CLOCK_FAMILIES):
            keep.append(line)
    return "\n".join(keep)


def _spans(telemetry):
    return [
        [span.name, span.depth, span.status, span.attributes]
        for span in telemetry.tracer
    ]


def fingerprint(case):
    """The pinned accounting of one case (JSON-ready)."""
    telemetry = Telemetry.create()
    engine, result = CASES[case](telemetry)
    spans = json.dumps(_spans(telemetry), sort_keys=True)
    return {
        "stats": engine.stats.as_dict(),
        "correction_time_s": repr(engine.correction_time_s),
        "result": json.loads(json.dumps(result.as_dict(), sort_keys=True)),
        "prometheus": _prometheus(telemetry),
        "span_count": len(telemetry.tracer),
        "spans_sha256": hashlib.sha256(spans.encode("utf-8")).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(CASES))
def test_accounting_matches_golden(case, golden):
    got = fingerprint(case)
    want = golden[case]
    assert got["stats"] == want["stats"]
    assert got["correction_time_s"] == want["correction_time_s"]
    assert got["result"] == want["result"]
    assert got["prometheus"] == want["prometheus"]
    assert got["span_count"] == want["span_count"]
    assert got["spans_sha256"] == want["spans_sha256"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_accounting_without_telemetry_matches_golden(case, golden):
    # Telemetry only restates the tallies: the same pins hold without it.
    engine, result = CASES[case](None)
    want = golden[case]
    assert engine.stats.as_dict() == want["stats"]
    assert repr(engine.correction_time_s) == want["correction_time_s"]
    assert json.loads(json.dumps(result.as_dict(), sort_keys=True)) == want["result"]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(
            {case: fingerprint(case) for case in sorted(CASES)},
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")
