"""Hash-2 peeling: scans and time per interval at the campaign-z-fail point.

The end-to-end ``campaign-z-fail`` workload (serial SuDoku-Z, G=16,
BER 2e-3, numpy kernels, ``group_size^2`` lines) ends every interval in
a DUE, so each scrub pass runs the Hash-2 peeling fixed point to
exhaustion.  Most of its group retries find the group exactly as the
previous retry left it; the engine replays those from a per-pass memo
instead of rescanning.  This exhibit records:

* ``scan_calls_per_interval`` -- ``scan_group`` calls the engine makes
  per interval, counted on one seeded run.  It is a pure function of
  the seed, so ``benchmarks/baseline.json`` gates it exactly
  (tolerance 0): a lost memo trips it on any host.
* ``state_checks_per_interval`` -- full ``SuDokuZ._group_state``
  evaluations per interval on the same run.  A remembered retry whose
  epoch stamp still matches replays without one, so this counts the
  fresh retries and the replays after some store moved the stamp.
  Also a pure function of the seed, gated exactly.
* ``accounted_scans_per_interval`` -- ``stats.group_scans`` per
  interval: every retry as the engine accounts it, replayed or not
  (informational).
* ``interval_ms`` -- campaign wall time per interval, the median of
  ``RUNS`` runs of ``INTERVALS`` intervals each (gated ``max``).

Every run must end each interval in a failure with the same outcome
counts, so a fast wrong engine cannot post a number.
"""

import json
import statistics
import time

import numpy as np
from conftest import emit

import repro.core.engine as engine_module
from repro.core.engine import build_engine
from repro.core.linecodec import LineCodec
from repro.reliability.montecarlo import run_engine_campaign
from repro.sttram.array import STTRAMArray

GROUP = 16
BER = 2e-3
INTERVALS = 16
RUNS = 9
SEED = 2024


def _run():
    """The serial ``run_sharded_campaign`` path; returns (engine, result)."""
    codec = LineCodec()
    array = STTRAMArray(GROUP * GROUP, codec.stored_bits)
    engine = build_engine("Z", array, group_size=GROUP, codec=codec)
    result = run_engine_campaign(
        engine, BER, INTERVALS, rng=np.random.default_rng(SEED),
        randomize_content=False, backend="numpy",
    )
    return engine, result


def _count_work():
    """One run with ``scan_group`` calls and ``_group_state`` evaluations
    counted: (engine, result, scan calls, state checks)."""
    scans, checks = [0], [0]
    scan_group = engine_module.scan_group
    group_state = engine_module.SuDokuZ._group_state

    def counting_scan(*args, **kwargs):
        scans[0] += 1
        return scan_group(*args, **kwargs)

    def counting_state(*args, **kwargs):
        checks[0] += 1
        return group_state(*args, **kwargs)

    engine_module.scan_group = counting_scan
    engine_module.SuDokuZ._group_state = counting_state
    try:
        engine, result = _run()
    finally:
        engine_module.scan_group = scan_group
        engine_module.SuDokuZ._group_state = group_state
    return engine, result, scans[0], checks[0]


def _measure() -> dict:
    engine, reference, scan_calls, state_checks = _count_work()
    assert reference.interval_failures == INTERVALS
    wall_ms = []
    for _ in range(RUNS):
        started = time.perf_counter()
        _, result = _run()
        wall_ms.append((time.perf_counter() - started) * 1e3 / INTERVALS)
        assert result.outcomes == reference.outcomes
    return {
        "scan_calls_per_interval": scan_calls / INTERVALS,
        "state_checks_per_interval": state_checks / INTERVALS,
        "accounted_scans_per_interval": engine.stats.group_scans / INTERVALS,
        "interval_ms": statistics.median(wall_ms),
        "interval_ms_runs": wall_ms,
        "outcomes": dict(reference.outcomes),
    }


def test_bench_hash2_peel(benchmark):
    figures = benchmark.pedantic(_measure, rounds=1)
    emit({
        "title": "Hash-2 peeling: group scans and time per failing interval",
        "headers": ["quantity", "value"],
        "rows": [
            ["scan_group calls per interval",
             f"{figures['scan_calls_per_interval']:.2f}"],
            ["group state checks per interval",
             f"{figures['state_checks_per_interval']:.2f}"],
            ["group scans accounted per interval",
             f"{figures['accounted_scans_per_interval']:.2f}"],
            [f"interval wall time, median of {RUNS} runs [ms]",
             f"{figures['interval_ms']:.2f}"],
            *[
                [f"outcome: {name}", str(count)]
                for name, count in sorted(figures["outcomes"].items())
            ],
        ],
        "notes": (
            f"SuDoku-Z, G={GROUP}, {GROUP * GROUP} lines, BER {BER}, numpy "
            f"kernels, {INTERVALS} intervals per run, seed {SEED}"
        ),
        "scalars": {
            "scan_calls_per_interval": figures["scan_calls_per_interval"],
            "state_checks_per_interval": figures["state_checks_per_interval"],
            "interval_ms": round(figures["interval_ms"], 3),
        },
        "config": {
            "group_size": GROUP, "ber": BER, "intervals": INTERVALS,
            "runs": RUNS, "seed": SEED, "backend": "numpy",
        },
    })


if __name__ == "__main__":
    print(json.dumps(_measure()))
