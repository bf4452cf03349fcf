"""Extension: bit interleaving vs burst (disturb-class) faults.

A physical burst of length <= the interleave depth lands at most one
bit in any logical line, converting RAID-class multi-bit faults into
one-cycle ECC-1 fixes.  This bench injects physical bursts through the
interleaver into a SuDoku-Z array at several depths and reports which
correction mechanism carried the load.
"""

import random

from conftest import emit
from repro.coding.interleave import BitInterleaver
from repro.core.engine import SuDokuZ
from repro.core.linecodec import LineCodec
from repro.sttram.array import STTRAMArray

GROUP = 16
NUM_LINES = 256
BURSTS = 150
BURST_LENGTH = 4


def run_depth(depth: int, seed: int = 23) -> dict:
    codec = LineCodec()
    array = STTRAMArray(NUM_LINES, codec.stored_bits)
    engine = SuDokuZ(array, group_size=GROUP, codec=codec)
    rng = random.Random(seed)
    for frame in range(NUM_LINES):
        engine.write_data(frame, rng.getrandbits(512))
    interleaver = BitInterleaver(codec.stored_bits, depth)

    lost = 0
    for _ in range(BURSTS):
        # A physical burst strikes a random row of `depth` adjacent lines.
        base = rng.randrange(0, NUM_LINES - depth + 1)
        start = rng.randrange(0, interleaver.row_bits - BURST_LENGTH + 1)
        for offset, vector in interleaver.burst_to_line_errors(start, BURST_LENGTH):
            array.inject(base + offset, vector)
        counts = engine.scrub_frames(range(base, base + depth))
        if counts.get("due", 0) or counts.get("sdc", 0):
            lost += 1
            for frame in array.faulty_lines():
                array.restore(frame, array.golden(frame))
            engine.initialize_parities()
    stats = engine.stats
    return {
        "lost": lost,
        "ecc1": stats.count_label("corrected_ecc1"),
        "raid4": stats.count_label("corrected_raid4"),
        "sdr": stats.count_label("corrected_sdr")
        + stats.count_label("corrected_hash2"),
    }


def test_bench_interleaving_depths(benchmark):
    def sweep():
        return {depth: run_depth(depth) for depth in (1, 2, 4, 8)}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        {
            "title": "Extension: interleave depth vs 4-bit physical bursts",
            "headers": [
                "depth", f"lost rows / {BURSTS}", "ECC-1 fixes",
                "RAID-4 fixes", "SDR/hash-2 fixes",
            ],
            "rows": [
                [depth, r["lost"], r["ecc1"], r["raid4"], r["sdr"]]
                for depth, r in sorted(results.items())
            ],
            "notes": "At depth >= burst length every fault is a single-bit "
                     "ECC-1 fix; shallow interleaving leaves multi-bit "
                     "lines for the RAID machinery.",
        }
    )
    # Depth >= burst length: everything is a one-cycle local fix.
    assert results[4]["raid4"] + results[4]["sdr"] == 0
    assert results[8]["raid4"] + results[8]["sdr"] == 0
    assert results[4]["lost"] == 0
    # Un-interleaved storage leans on the group machinery instead.
    assert results[1]["raid4"] + results[1]["sdr"] > 0
    # ECC-1 work grows with depth (bursts split into more lines).
    assert results[4]["ecc1"] > results[1]["ecc1"]
