"""Ablation (section VII-G): replacing the per-line ECC-1 with ECC-2.

Compares the standard SuDoku-Z against the ECC-2 variant analytically
(across the Table X delta sweep) and functionally (head-to-head MC at an
accelerated BER where the ECC-1 design visibly struggles).
"""

import numpy as np

from conftest import emit
from repro.core.ecc2 import ECC2LineCodec
from repro.core.engine import SuDokuZ
from repro.core.linecodec import LineCodec
from repro.reliability.montecarlo import run_engine_campaign
from repro.reliability.sudokumodel import SuDokuReliabilityModel
from repro.sttram.array import STTRAMArray
from repro.sttram.variation import effective_ber


def test_bench_ecc2_analytical(benchmark):
    def sweep():
        rows = []
        for delta in (35, 34, 33, 32):
            ber = effective_ber(float(delta), 0.10 * delta, 0.020)
            ecc1 = SuDokuReliabilityModel(ber=ber)
            ecc2 = SuDokuReliabilityModel.for_ecc2(ber=ber)
            rows.append([delta, ber, ecc1.fit_z(), ecc2.fit_z(), 43.2, 53.2])
        return rows

    rows = benchmark(sweep)
    emit(
        {
            "title": "Ablation: SuDoku-Z with ECC-1 vs ECC-2 per line (VII-G)",
            "headers": [
                "delta", "BER", "Z FIT (ECC-1)", "Z FIT (ECC-2)",
                "bits/line ECC-1", "bits/line ECC-2",
            ],
            "rows": rows,
            "notes": "ECC-2 moves the heavy-line threshold from 3+ to 4+ "
                     "faults; still cheaper than uniform ECC-6 (60 b/line).",
        }
    )
    for row in rows:
        assert row[3] < row[2], f"ECC-2 should dominate at delta={row[0]}"
    # ECC-2 keeps sub-1 FIT even at delta = 33 where ECC-1 SuDoku exceeds it.
    by_delta = {row[0]: row for row in rows}
    assert by_delta[33][3] < 1.0 < by_delta[33][2]


def test_bench_ecc2_functional(benchmark):
    def faceoff():
        ber, intervals, group = 1.2e-3, 40, 32
        failures = {}
        for label, codec in (("ECC-1", LineCodec()), ("ECC-2", ECC2LineCodec())):
            array = STTRAMArray(group * group, codec.stored_bits)
            engine = SuDokuZ(array, group_size=group, codec=codec)
            result = run_engine_campaign(
                engine, ber=ber, intervals=intervals,
                rng=np.random.default_rng(99), randomize_content=False,
            )
            failures[label] = result.interval_failures
        return failures

    failures = benchmark.pedantic(faceoff, rounds=1, iterations=1)
    emit(
        {
            "title": "Ablation (functional): failed intervals out of 40 at BER 1.2e-3",
            "headers": ["per-line code", "failed intervals"],
            "rows": [[label, count] for label, count in failures.items()],
            "notes": "1024-line SuDoku-Z caches, identical fault statistics.",
        }
    )
    assert failures["ECC-2"] <= failures["ECC-1"]
