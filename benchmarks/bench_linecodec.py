"""Per-line codec speed: encode, decode and one SDR flip trial.

Every reference-backend path runs the paper's per-line fast path
(section III): a CRC-31 check, ECC-1 repair, and SDR's flip-and-check
trials, all on the 553-bit stored line (512 data + 31 CRC + 10 Hamming
check bits).  This benchmark times the four scalar operations on a fixed,
seeded population of lines and reports microseconds per call:

* ``encode`` -- data word to stored line;
* clean ``decode`` -- CRC match and zero syndrome;
* one-bit ``decode`` -- ECC-1 repair plus the CRC re-check;
* ``try_flip_and_repair`` on two-fault lines -- half the trials flip a
  true fault (ECC-1 then repairs the other), half an innocent bit (the
  CRC rejects the miscorrection), as SDR's search sees them;
* one SDR search (:func:`repro.core.sdr.flip_search`) of a two-fault
  line over six candidate positions, its two faults among them: the
  stock codec's check vector once, then one XOR and one lookup per
  candidate up to the first repair.

The stock codec classifies by its check-vector tables; the per-call
figures of ``decode`` and ``try_flip_and_repair`` are those of the
table path, not of the CRC+Hamming definition.

Two batched rows ride along.  The numpy backend's ``batch_decode`` of
four one-bit-fault words is a batch as small as a sparse group scan's
few dirty members; its per-call figure is dominated by fixed numpy
overhead, which the gate keeps from creeping back.  ``encode_many`` of
512 data words is how a rare-event trial builds its G=512 group; its
figure is per line, so it reads directly against scalar ``encode``.

Each figure is the minimum over interleaved repeats of the mean over the
population, the least noisy estimator on a shared box.  The results are
checked (round trip, repair, trial outcomes) so a fast wrong codec cannot
post a number; ``benchmarks/baseline.json`` gates each figure with a
``max`` entry.
"""

import random
import time

from conftest import emit
from repro.coding.bitvec import random_error_vector
from repro.core.linecodec import DecodeStatus, LineCodec, line_tables
from repro.core.sdr import flip_search
from repro.kernels import get_backend

SEED = 553
LINES = 200
REPEATS = 7
#: Words per numpy ``batch_decode`` call in the small-batch row.
SMALL_BATCH = 4
#: Data words per ``encode_many`` call: one paper-geometry group.
ENCODE_BATCH = 512
#: Candidate positions per SDR search: the paper's mismatch cap.
SEARCH_WIDTH = 6


def _min_us_per_call(func, args):
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for arg in args:
            func(*arg)
        best = min(best, time.perf_counter() - started)
    return best / len(args) * 1e6


def test_bench_linecodec(benchmark):
    rng = random.Random(SEED)
    codec = LineCodec()
    n = codec.stored_bits
    data = [rng.getrandbits(codec.layout.data_bits) for _ in range(LINES)]
    words = [codec.encode(value) for value in data]
    one_bit = [word ^ (1 << rng.randrange(n)) for word in words]
    trials = []
    for index, word in enumerate(words):
        vector = random_error_vector(n, 2, rng)
        faults = [p for p in range(n) if (vector >> p) & 1]
        if index % 2:
            position = rng.choice(faults)
        else:
            position = rng.choice([p for p in range(n) if p not in faults])
        trials.append((word ^ vector, position))
    batch_data = [
        rng.getrandbits(codec.layout.data_bits) for _ in range(ENCODE_BATCH)
    ]
    tables = line_tables(codec)
    searches = []
    for word in words:
        vector = random_error_vector(n, 2, rng)
        faults = [p for p in range(n) if (vector >> p) & 1]
        innocent = rng.sample(
            [p for p in range(n) if p not in faults], SEARCH_WIDTH - 2
        )
        searches.append((codec, word ^ vector, sorted(faults + innocent)))

    # Correctness first: the timed calls must do the real work.
    for value, word, faulty in zip(data, words, one_bit):
        assert codec.decode(word).data == value
        repaired = codec.decode(faulty)
        assert repaired.status is DecodeStatus.CORRECTED
        assert repaired.word == word
    numpy = get_backend("numpy")
    batches = [
        (codec, one_bit[start:start + SMALL_BATCH])
        for start in range(0, LINES, SMALL_BATCH)
    ]
    for _, batch in batches:
        assert numpy.batch_decode(codec, batch) == [
            codec.decode(word) for word in batch
        ]
    assert codec.encode_many(batch_data) == [
        codec.encode(value) for value in batch_data
    ]
    trial_words = [codec.try_flip_and_repair(*trial) for trial in trials]
    for index, (result, word) in enumerate(zip(trial_words, words)):
        assert result == (word if index % 2 else None)
    # The search stops at the first candidate that is a fault: flipping
    # it leaves one fault, which ECC-1 repairs.
    assert tables is not None
    for (_, faulty, positions), word in zip(searches, words):
        first = min(p for p in positions if (faulty ^ word) >> p & 1)
        assert flip_search(codec, faulty, positions) == (
            positions.index(first) + 1, word
        )

    timings = {
        "encode_us": _min_us_per_call(codec.encode, [(v,) for v in data]),
        "decode_clean_us": _min_us_per_call(codec.decode, [(w,) for w in words]),
        "decode_one_bit_us": _min_us_per_call(
            codec.decode, [(w,) for w in one_bit]
        ),
        "flip_and_repair_us": _min_us_per_call(codec.try_flip_and_repair, trials),
        "numpy_decode_batch4_us": _min_us_per_call(numpy.batch_decode, batches),
        "encode_batch_us": (
            _min_us_per_call(codec.encode_many, [(batch_data,)]) / ENCODE_BATCH
        ),
        "sdr_search_us": _min_us_per_call(flip_search, searches),
    }

    benchmark(codec.decode, one_bit[0])

    labels = {
        "encode_us": "encode",
        "decode_clean_us": "decode (clean)",
        "decode_one_bit_us": "decode (one-bit repair)",
        "flip_and_repair_us": "try_flip_and_repair (two faults)",
        "numpy_decode_batch4_us": (
            f"numpy batch_decode ({SMALL_BATCH} one-bit words, per call)"
        ),
        "encode_batch_us": f"encode_many ({ENCODE_BATCH} words, per line)",
        "sdr_search_us": (
            f"SDR search (two-fault line, {SEARCH_WIDTH} candidates)"
        ),
    }
    emit({
        "title": "Line codec per-call cost (553-bit stored line)",
        "headers": ["operation", "us / call"],
        "rows": [[labels[name], f"{us:.1f}"] for name, us in timings.items()],
        "notes": (
            f"{LINES} seeded lines (seed {SEED}), {codec.layout.data_bits} "
            f"data + {codec.layout.crc_bits} CRC + "
            f"{codec.layout.ecc_bits} check bits; min over {REPEATS} "
            f"repeats of the per-call mean"
        ),
        # Tracked trajectory scalars; "max"-direction baseline entries
        # fail CI if the codec slides back toward per-bit loops.
        "scalars": timings,
        "config": {
            "lines": LINES, "seed": SEED, "stored_bits": n,
            "encode_batch": ENCODE_BATCH, "search_width": SEARCH_WIDTH,
        },
    })
