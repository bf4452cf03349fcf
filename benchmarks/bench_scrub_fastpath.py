"""Fault-indexed sparse scrub fast path: speedup over the dense pass.

At the paper's nominal BER (5.3e-6 per bit per 20 ms interval, Table I)
a 2^16-line array carries only a few hundred faulty lines per interval,
yet a dense scrub decodes all 65536 of them.  The sparse fast path
(:meth:`repro.core.engine.SuDokuEngine.scrub_sparse`) walks the array's
dirty-frame index instead and bulk-accounts the clean population,
turning the pass from O(lines) into O(faults).

This benchmark injects one interval of faults, times a dense pass, heals
and re-injects the *identical* faults (same-seeded injector against the
same golden content), times a sparse pass, and checks two properties:

* the outcome counters are bit-identical between the passes (the golden
  equivalence the fast path is allowed to exist under), and
* the sparse pass is at least 10x faster at this geometry (in practice
  it lands orders of magnitude above that floor).
"""

import time

import numpy as np

from conftest import RESULTS_DIR, emit
from repro.obs.atomicio import atomic_write_json
from repro.core.engine import build_engine
from repro.core.linecodec import LineCodec
from repro.reliability.montecarlo import heal
from repro.sttram.array import STTRAMArray
from repro.sttram.faults import TransientFaultInjector

#: Table I nominal: delta = 60 at 20 ms gives BER 5.3e-6.
BER = 5.3e-6
NUM_LINES = 1 << 16
GROUP_SIZE = 256
SEED = 23
REQUIRED_SPEEDUP = 10.0


def _inject(codec, array):
    injector = TransientFaultInjector(
        codec.stored_bits, BER, rng=np.random.default_rng(SEED)
    )
    return injector.inject_frames(array)


def test_bench_scrub_fastpath(benchmark):
    codec = LineCodec()
    array = STTRAMArray(NUM_LINES, codec.stored_bits)
    engine = build_engine("X", array, group_size=GROUP_SIZE, codec=codec)

    dirty = _inject(codec, array)
    started = time.perf_counter()
    dense_counts = engine.scrub_all()
    dense_wall = time.perf_counter() - started
    assert array.dirty_frames() == []

    heal(array)
    assert _inject(codec, array) == dirty  # same seed, same faults

    started = time.perf_counter()
    sparse_counts = engine.scrub_sparse()
    sparse_wall = time.perf_counter() - started
    assert array.dirty_frames() == []

    assert sparse_counts == dense_counts, (
        "sparse pass diverged from dense outcome counters"
    )

    # One pedantic round on the fast path itself (already-clean array:
    # the steady-state cost a campaign pays per interval between faults).
    benchmark.pedantic(engine.scrub_sparse, rounds=1, iterations=1)

    speedup = dense_wall / sparse_wall
    emit({
        "title": "Sparse scrub fast path vs dense pass (2^16 lines)",
        "headers": ["pass", "wall (s)", "lines decoded"],
        "rows": [
            ["dense", f"{dense_wall:.3f}", NUM_LINES],
            ["sparse", f"{sparse_wall:.4f}", len(dirty)],
            ["speedup", f"{speedup:.0f}x", ""],
        ],
        "notes": (
            f"SuDoku-X, {NUM_LINES} lines x {codec.stored_bits} stored "
            f"bits at BER {BER:g}: {len(dirty)} dirty lines; outcome "
            f"counters bit-identical between passes"
        ),
        # Tracked trajectory scalar; a "min"-direction baseline entry
        # fails CI if the fast path loses its edge over the dense pass.
        "scalars": {"speedup": speedup},
        "config": {
            "num_lines": NUM_LINES, "group_size": GROUP_SIZE, "ber": BER,
        },
    })
    RESULTS_DIR.mkdir(exist_ok=True)
    atomic_write_json(str(RESULTS_DIR / "scrub_fastpath.json"), {
        "num_lines": NUM_LINES,
        "stored_bits": codec.stored_bits,
        "ber": BER,
        "group_size": GROUP_SIZE,
        "dirty_lines": len(dirty),
        "dense_wall_s": dense_wall,
        "sparse_wall_s": sparse_wall,
        "speedup": speedup,
        "counters_identical": sparse_counts == dense_counts,
    })

    assert speedup >= REQUIRED_SPEEDUP, (
        f"sparse pass only {speedup:.1f}x faster (need {REQUIRED_SPEEDUP}x)"
    )


#: The backend bench runs scan-heavy: a wider RAID group makes every
#: group repair decode more members, which is exactly the bulk work the
#: batched backend exists to absorb.
BACKEND_NUM_LINES = 1 << 20
BACKEND_GROUP_SIZE = 1024
BACKEND_BER = 1e-5
BACKEND_SEED = 29


def test_bench_numpy_backend_speedup(benchmark):
    """Numpy bit-plane kernels vs the reference backend, sparse scrub.

    Both passes resolve the identical fault population (same-seeded
    injector against the same golden content) and must produce
    bit-identical outcome counters -- the contract under which the numpy
    backend is allowed to exist.  Each backend's best pass is tracked as
    its own scalar (``reference_wall_s``, ``numpy_wall_s``) and gated by
    an absolute ``max`` entry in ``benchmarks/baseline.json``.  Their
    ratio is reported but not gated: reference time is dominated by the
    scalar line codec inside RAID-group scans, so a faster codec shrinks
    the ratio without any numpy regression.
    """
    codec = LineCodec()
    array = STTRAMArray(BACKEND_NUM_LINES, codec.stored_bits)
    engine = build_engine(
        "X", array, group_size=BACKEND_GROUP_SIZE, codec=codec
    )

    def _reinject():
        heal(array)
        injector = TransientFaultInjector(
            codec.stored_bits, BACKEND_BER,
            rng=np.random.default_rng(BACKEND_SEED),
        )
        return injector.inject_frames(array)

    walls = {}
    counters = {}
    for backend in ("reference", "numpy"):
        engine.set_backend(backend)
        # Warm the per-codec vectorisation tables outside the timed
        # region; campaigns build them once per process, not per pass.
        engine.backend.batch_decode(codec, [codec.encode(0)])
        # Best of two passes: the numpy pass is short enough that a GC
        # or allocator hiccup would otherwise dominate the ratio.
        for _ in range(2):
            dirty = _reinject()
            started = time.perf_counter()
            counts = engine.scrub_sparse()
            wall = time.perf_counter() - started
            walls[backend] = min(wall, walls.get(backend, wall))
            counters[backend] = counts
        assert array.dirty_frames() == []

    assert counters["numpy"] == counters["reference"], (
        "numpy backend diverged from reference outcome counters"
    )

    # One pedantic round on the numpy fast path (already-clean array).
    benchmark.pedantic(engine.scrub_sparse, rounds=1, iterations=1)

    speedup = walls["reference"] / walls["numpy"]
    emit({
        "title": "Numpy kernel backend vs reference: sparse scrub (2^20 lines)",
        "headers": ["backend", "wall (s)", "dirty lines"],
        "rows": [
            ["reference", f"{walls['reference']:.3f}", len(dirty)],
            ["numpy", f"{walls['numpy']:.4f}", len(dirty)],
            ["speedup", f"{speedup:.1f}x", ""],
        ],
        "notes": (
            f"SuDoku-X, {BACKEND_NUM_LINES} lines x {codec.stored_bits} "
            f"stored bits at BER {BACKEND_BER:g}, RAID groups of "
            f"{BACKEND_GROUP_SIZE}: outcome counters bit-identical "
            f"between backends"
        ),
        # Tracked trajectory scalars; "max"-direction baseline entries
        # fail CI if either backend's pass slows down.
        "scalars": {
            "reference_wall_s": walls["reference"],
            "numpy_wall_s": walls["numpy"],
        },
        "config": {
            "num_lines": BACKEND_NUM_LINES,
            "group_size": BACKEND_GROUP_SIZE,
            "ber": BACKEND_BER,
        },
    })
    RESULTS_DIR.mkdir(exist_ok=True)
    atomic_write_json(str(RESULTS_DIR / "kernel_backend_speedup.json"), {
        "num_lines": BACKEND_NUM_LINES,
        "stored_bits": codec.stored_bits,
        "ber": BACKEND_BER,
        "group_size": BACKEND_GROUP_SIZE,
        "dirty_lines": len(dirty),
        "reference_wall_s": walls["reference"],
        "numpy_wall_s": walls["numpy"],
        "speedup": speedup,
        "counters_identical": counters["numpy"] == counters["reference"],
    })
