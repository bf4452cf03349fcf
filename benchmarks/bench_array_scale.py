"""Array scale: a SuDoku-Z engine at 1 GB (2^24 lines of 64 B).

The paper's premise is that STTRAM keeps scaling, and its operating
point injects only ~2,880 flips per 20 ms interval into a 64 MB cache.
Simulator memory and power-on formatting should therefore follow the
fault count, not the line count.  This exhibit builds a SuDoku-Z engine
(G=512, numpy kernels) over 2^24 lines, runs 3 scrub intervals at the
nominal BER 5.3e-6, and records:

* ``build_s`` -- array construction plus engine build, which includes
  ``format()`` writing the encoded zero line to every frame;
* ``run_s`` -- the 3-interval campaign;
* ``peak_rss_mb`` -- the measuring process's ``ru_maxrss``.

The measurement runs in a fresh interpreter so earlier benchmarks in
the same pytest session cannot inflate its peak memory.  The campaign
is checked (no failed interval, every injected fault repaired) so a
fast wrong array cannot post a number; ``benchmarks/baseline.json``
gates ``build_s`` and ``peak_rss_mb`` with ``max`` entries.
"""

import json
import os
import pathlib
import subprocess
import sys

from conftest import emit

LINES = 2 ** 24
GROUP = 512
BER = 5.3e-6
INTERVALS = 3
SEED = 2024


def _measure() -> dict:
    """Build and run once in this process; returns the raw figures."""
    import resource
    import time

    from repro.core.engine import build_engine
    from repro.core.linecodec import LineCodec
    from repro.reliability.montecarlo import run_engine_campaign
    from repro.sttram.array import STTRAMArray

    started = time.perf_counter()
    codec = LineCodec()
    array = STTRAMArray(LINES, codec.stored_bits)
    engine = build_engine("Z", array, group_size=GROUP, codec=codec, backend="numpy")
    build_s = time.perf_counter() - started
    started = time.perf_counter()
    result = run_engine_campaign(
        engine, BER, INTERVALS, randomize_content=False, seed=SEED
    )
    run_s = time.perf_counter() - started
    return {
        "build_s": build_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "interval_failures": result.interval_failures,
        "outcomes": dict(result.outcomes),
        "dirty_after": array.dirty_count,
    }


def _measure_in_fresh_interpreter() -> dict:
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH", "")])
    )
    completed = subprocess.run(
        [sys.executable, __file__], env=env, check=True,
        capture_output=True, text=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_bench_array_scale(benchmark):
    figures = benchmark.pedantic(_measure_in_fresh_interpreter, rounds=1)
    assert figures["interval_failures"] == 0
    assert figures["outcomes"].get("corrected_ecc1", 0) > 0
    assert figures["dirty_after"] == 0

    emit({
        "title": "Array scale: SuDoku-Z engine at 2^24 lines (1 GB)",
        "headers": ["quantity", "value"],
        "rows": [
            ["build (array + engine + format) [s]", f"{figures['build_s']:.3f}"],
            [f"{INTERVALS}-interval campaign [s]", f"{figures['run_s']:.2f}"],
            ["peak RSS [MB]", f"{figures['peak_rss_mb']:.1f}"],
            *[
                [f"outcome: {name}", str(count)]
                for name, count in sorted(figures["outcomes"].items())
            ],
        ],
        "notes": (
            f"G={GROUP}, numpy kernels, BER {BER}, {INTERVALS} intervals, "
            f"seed {SEED}; measured in a fresh interpreter (ru_maxrss)"
        ),
        "scalars": {
            "build_s": round(figures["build_s"], 4),
            "peak_rss_mb": round(figures["peak_rss_mb"], 1),
        },
        "config": {
            "lines": LINES, "group_size": GROUP, "ber": BER,
            "intervals": INTERVALS, "seed": SEED,
        },
    })


if __name__ == "__main__":
    print(json.dumps(_measure()))
