"""The paper's 64 MB point: per-line scrub work and time per interval.

SuDoku-Z over 2^20 lines, G=512, at the Table I nominal BER of 5.3e-6
per 20 ms interval, numpy kernels -- the end-to-end ``paper-z-nominal``
workload.  An interval has ~3,000 faulty lines and all but a handful
need only ECC-1.  The campaign stores only the flips a group repair
can see; every other faulty line is an ECC-1-only frame, which the
scrub counts without touching the array.  The engine classifies the
stored frames once and resolves each run of single-bit lines in bulk,
so only the rest take the per-line ``_scrub_line`` path.  This exhibit
records:

* ``materialised_frames_per_interval`` -- frames whose flips reach the
  array (``STTRAMArray.inject_many``), per interval, and
* ``per_line_frames_per_interval`` -- frames that took ``_scrub_line``,
  per interval, both counted on one seeded run.  Each is a pure
  function of the seed, so ``benchmarks/baseline.json`` gates both
  exactly (tolerance 0): storing every flip again, or losing the bulk
  path, trips them on any host.
* ``interval_ms`` -- campaign wall time per interval, the median of
  ``RUNS`` runs of ``INTERVALS`` intervals each (gated ``max``).

Every run must produce the same outcome counts, with no failing
interval, so a fast wrong engine cannot post a number.
"""

import json
import statistics
import time

import numpy as np
from conftest import emit

from repro.core.engine import build_engine
from repro.core.linecodec import LineCodec
from repro.reliability.montecarlo import run_engine_campaign
from repro.sttram.array import STTRAMArray

LINES = 1 << 20
GROUP = 512
BER = 5.3e-6
INTERVALS = 20
RUNS = 5
SEED = 2019


def _engine():
    codec = LineCodec()
    array = STTRAMArray(LINES, codec.stored_bits)
    return build_engine("Z", array, group_size=GROUP, codec=codec, backend="numpy")


def _run(engine):
    return run_engine_campaign(
        engine, BER, INTERVALS, rng=np.random.default_rng(SEED),
        randomize_content=False, backend="numpy",
    )


def _count_work(engine):
    """One run with stored frames and ``_scrub_line`` calls counted.

    Returns (result, frames stored, ``_scrub_line`` calls).
    """
    stored = [0]
    calls = [0]
    inject_many = engine.array.inject_many
    scrub_line = engine._scrub_line

    def storing(vectors):
        stored[0] += len(vectors)
        return inject_many(vectors)

    def counting(frame):
        calls[0] += 1
        return scrub_line(frame)

    engine.array.inject_many = storing
    engine._scrub_line = counting
    try:
        result = _run(engine)
    finally:
        del engine.array.inject_many
        del engine._scrub_line
    return result, stored[0], calls[0]


def _measure() -> dict:
    engine = _engine()
    reference, stored, per_line = _count_work(engine)
    assert reference.interval_failures == 0
    wall_ms = []
    for _ in range(RUNS):
        engine = _engine()
        started = time.perf_counter()
        result = _run(engine)
        wall_ms.append((time.perf_counter() - started) * 1e3 / INTERVALS)
        assert result.outcomes == reference.outcomes
    scrubbed = sum(
        count for label, count in reference.outcomes.items() if label != "clean"
    )
    return {
        "materialised_frames_per_interval": stored / INTERVALS,
        "per_line_frames_per_interval": per_line / INTERVALS,
        "scrubbed_frames_per_interval": scrubbed / INTERVALS,
        "interval_ms": statistics.median(wall_ms),
        "interval_ms_runs": wall_ms,
        "outcomes": dict(reference.outcomes),
    }


def test_bench_paper_point(benchmark):
    figures = benchmark.pedantic(_measure, rounds=1)
    emit({
        "title": "Paper point: per-line scrub work and time per interval",
        "headers": ["quantity", "value"],
        "rows": [
            ["frames stored in the array per interval",
             f"{figures['materialised_frames_per_interval']:.2f}"],
            ["frames through _scrub_line per interval",
             f"{figures['per_line_frames_per_interval']:.2f}"],
            ["faulty frames resolved per interval",
             f"{figures['scrubbed_frames_per_interval']:.2f}"],
            [f"interval wall time, median of {RUNS} runs [ms]",
             f"{figures['interval_ms']:.2f}"],
            *[
                [f"outcome: {name}", str(count)]
                for name, count in sorted(figures["outcomes"].items())
            ],
        ],
        "notes": (
            f"SuDoku-Z, {LINES} lines, G={GROUP}, BER {BER}, numpy "
            f"kernels, {INTERVALS} intervals per run, seed {SEED}"
        ),
        "scalars": {
            "materialised_frames_per_interval": (
                figures["materialised_frames_per_interval"]
            ),
            "per_line_frames_per_interval": (
                figures["per_line_frames_per_interval"]
            ),
            "interval_ms": round(figures["interval_ms"], 3),
        },
        "config": {
            "lines": LINES, "group_size": GROUP, "ber": BER,
            "intervals": INTERVALS, "runs": RUNS, "seed": SEED,
            "backend": "numpy",
        },
    })


if __name__ == "__main__":
    print(json.dumps(_measure()))
