"""Section VIII-B: write errors vs retention errors.

The paper claims SuDoku "does not differentiate between write errors and
retention errors": with WER comparable to the retention BER, reliability
matches a retention-only system at the combined rate.  This bench runs
three campaigns -- retention-only, retention + equal WER, and
retention-only at double rate -- and checks the middle one behaves like
the last.
"""

import random

import numpy as np

from conftest import emit
from repro.core.engine import SuDokuZ
from repro.core.linecodec import LineCodec
from repro.reliability.montecarlo import heal
from repro.sttram.array import STTRAMArray
from repro.sttram.faults import TransientFaultInjector
from repro.sttram.writeerror import WriteErrorChannel

GROUP = 32
LINES = GROUP * GROUP
BER = 5e-4
INTERVALS = 60
WRITES_PER_INTERVAL = 2048


def campaign_with_writes(retention_ber: float, wer: float, seed: int) -> int:
    """Intervals failed when writes (with WER) interleave with retention."""
    rng = np.random.default_rng(seed)
    codec = LineCodec()
    array = STTRAMArray(LINES, codec.stored_bits)
    engine = SuDokuZ(array, group_size=GROUP, codec=codec)
    channel = WriteErrorChannel(engine, wer, rng)
    local = random.Random(seed)
    injector = TransientFaultInjector(codec.stored_bits, retention_ber, rng)
    failures = 0
    for _ in range(INTERVALS):
        for _ in range(WRITES_PER_INTERVAL):
            channel.write_data(local.randrange(LINES), local.getrandbits(512))
        vectors = injector.error_vectors(LINES)
        for frame, vector in vectors.items():
            array.inject(frame, vector)
        touched = sorted(set(vectors) | set(array.faulty_lines()))
        counts = engine.scrub_frames(touched)
        if counts.get("due", 0) or counts.get("sdc", 0):
            failures += 1
        heal(array)
    return failures


def test_bench_write_error_equivalence(benchmark):
    def run_all():
        return {
            "retention only (BER)": campaign_with_writes(BER, 0.0, 21),
            "retention + equal WER": campaign_with_writes(BER, BER, 21),
            "retention only (~2x BER)": campaign_with_writes(2 * BER, 0.0, 21),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit(
        {
            "title": "Section VIII-B: write errors vs retention errors",
            "headers": ["configuration", f"failed intervals / {INTERVALS}"],
            "rows": [[name, count] for name, count in results.items()],
            "notes": "Writes touch ~2 lines/interval-line on average; WER "
                     "faults are corrected by the same machinery, so the "
                     "combined system tracks the doubled-retention one.",
        }
    )
    # Adding WER cannot *improve* on retention-only, and the combined
    # system stays within the doubled-retention envelope (plus noise).
    assert results["retention + equal WER"] >= results["retention only (BER)"] - 2
    assert (
        results["retention + equal WER"]
        <= results["retention only (~2x BER)"] + max(3, INTERVALS // 10)
    )
