"""Table XI: CPPC / RAID-6 / 2DP vs SuDoku (analytical + functional)."""

import numpy as np

from conftest import emit
from repro.analysis.experiments import table11_baselines
from repro.baselines.cppc import CPPCCache
from repro.baselines.raid6 import RAID6Cache
from repro.baselines.twodp import TwoDPCache
from repro.core.engine import SuDokuZ
from repro.core.linecodec import LineCodec
from repro.reliability.montecarlo import run_engine_campaign
from repro.sttram.array import STTRAMArray


def test_bench_table11_analytical(benchmark):
    exhibit = benchmark(table11_baselines)
    emit(exhibit)
    fits = {row[0]: row[1] for row in exhibit["rows"]}
    assert fits["SuDoku"] * 1e6 < min(
        fits["CPPC + CRC-31"], fits["RAID-6 + CRC-31"], fits["2DP + ECC-1 + CRC-31"]
    )


def test_bench_table11_functional_faceoff(benchmark):
    """Head-to-head fault-injection campaign at an accelerated BER.

    All schemes see statistically identical fault processes; the ranking
    of measured interval-failure counts must reproduce the table.
    """

    def campaign_all():
        ber, intervals, group = 4e-4, 50, 16
        codec = LineCodec()
        results = {}
        schemes = {
            "CPPC": lambda: CPPCCache(num_lines=256),
            "RAID-6": lambda: RAID6Cache(num_lines=256, group_size=group),
            "2DP": lambda: TwoDPCache(
                STTRAMArray(256, codec.stored_bits), group_size=group, codec=codec
            ),
            "SuDoku-Z": lambda: SuDokuZ(
                STTRAMArray(256, codec.stored_bits), group_size=group, codec=codec
            ),
        }
        for name, build in schemes.items():
            rng = np.random.default_rng(17)  # same fault stream for all
            result = run_engine_campaign(
                build(), ber=ber, intervals=intervals, rng=rng,
                randomize_content=False,
            )
            results[name] = result.interval_failures
        return results

    results = benchmark.pedantic(campaign_all, rounds=1, iterations=1)
    emit(
        {
            "title": "Table XI (functional): failed intervals out of 50 at BER 4e-4",
            "headers": ["scheme", "failed intervals"],
            "rows": [[name, count] for name, count in results.items()],
            "notes": "256-line cache, 16-line groups, identical fault streams.",
        }
    )
    assert results["SuDoku-Z"] <= results["2DP"] <= results["CPPC"]
    assert results["SuDoku-Z"] <= results["RAID-6"] + 1
    assert results["CPPC"] >= 40  # CPPC collapses at this rate
