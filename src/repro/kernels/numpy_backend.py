"""The numpy backend: batched bit-plane kernels.

Lines are packed into an ``(N, words_per_line)`` little-endian uint64
plane matrix (:mod:`repro.kernels.planes`); the hot operations then run
as whole-matrix numpy expressions instead of per-line Python loops.

Batched line decode
-------------------

A line decode answers two questions at once, as the hardware does in
one cycle (section III-B): is the Hamming syndrome zero, and does the
CRC of the stored data match the stored CRC field?  Both answers live
in one *check vector*

    v(w) = syndrome(w) | (crc(data(w)) ^ stored_crc(w)) << r

of ``r + crc_bits`` bits (41 for the paper's layout).  The syndrome and
the payload fields are linear in the stored word ``w`` and the CRC is
affine over GF(2), so ``v`` is affine: ``v(w) = A.w ^ c`` with
``c = v(0)``.  Column ``p`` of ``A`` is ``v(1 << p) ^ c``; the columns
are derived once per codec from the scalar codec itself, so no second
CRC or Hamming implementation exists.  Folding eight columns per byte
gives one 256-entry table per word byte; with ``c`` folded into the
first byte's table, ``v`` for N words is a table gather over the packed
byte matrix (in cache-sized blocks of words) plus one XOR reduction.

The decision then reads straight off ``v``:

* ``v == 0`` -- syndrome zero and CRC match: ``CLEAN``;
* the syndrome field ``s`` names a position (``1 <= s <= n``) and
  ``v == col[s - 1]`` -- flipping bit ``p = s - 1`` moves ``v`` by
  exactly ``col[p]``, so the repaired word's check vector is zero, which
  is the scalar path's CRC re-check passing: ``CORRECTED`` at ``p``;
* anything else: ``UNCORRECTABLE``.

That classification is ``batch_check``.  ``batch_decode`` is built on
it: the payload of a clean or repaired word comes from the scalar
codec's run-based ``extract_data``.  The pipeline is only engaged for
codecs whose semantics it provably matches (the stock
:class:`~repro.core.linecodec.LineCodec`: positional ``HammingSEC`` over
``data || CRC``, non-reflected byte-aligned CRC, a check vector that
fits in 64 bits, little-endian host).  For anything else
``batch_decode`` falls back to the scalar ``codec.decode`` per word,
which is always correct, and ``batch_check`` returns None.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.coding.hamming import HammingSEC
from repro.coding.parity import xor_reduce
from repro.core.layout import LineLayout
from repro.core.linecodec import DecodeStatus, LineCodec, LineDecode
from repro.kernels.interface import (
    CHECK_UNCORRECTABLE,
    KernelBackend,
    decode_from_check,
)
from repro.kernels.planes import pack_lines, words_per_line


def _check_vector(codec: LineCodec, word: int) -> int:
    """The scalar codec's syndrome and CRC residue of ``word``, as one int."""
    layout = codec.layout
    ecc = layout.ecc
    data, stored_crc = layout.split_payload(ecc.extract_data(word))
    residue = layout.compute_crc(data) ^ stored_crc
    return ecc.syndrome(word) | residue << ecc.r


#: Words per table gather.  A gather materialises an index and a result
#: matrix of 8 bytes per word byte; chunks this size keep both cache
#: resident, which is ~3x faster than one gather over thousands of words.
_GATHER_ROWS = 256


class _LineCodecTables:
    """Per-byte check-vector tables for an eligible ``LineCodec``'s layout."""

    def __init__(self, codec: LineCodec) -> None:
        self.n = codec.layout.ecc.n
        self._syndrome_mask = (1 << codec.layout.ecc.r) - 1
        constant = _check_vector(codec, 0)
        # col[p]: how flipping stored bit p moves the check vector.
        columns = [_check_vector(codec, 1 << p) ^ constant for p in range(self.n)]
        nbytes = words_per_line(self.n) * 8
        bit_columns = np.zeros((nbytes, 8), dtype=np.uint64)
        bit_columns.reshape(-1)[: self.n] = columns
        # tables[k, b]: XOR of the columns of the bits set in byte value
        # b at byte k, built by doubling (entries below 2^i are extended
        # by bit i).
        tables = np.zeros((nbytes, 256), dtype=np.uint64)
        for bit in range(8):
            low = 1 << bit
            tables[:, low:2 * low] = tables[:, :low] ^ bit_columns[:, bit:bit + 1]
        # Every word has a byte 0, so folding c into its table adds c to
        # each reduction exactly once: the gather yields v, not A.w.
        tables[0] ^= np.uint64(constant)
        # Byte k of a word indexes the flattened tables at 256 * k + value.
        self._flat_tables = tables.reshape(-1)
        self._byte_offsets = np.arange(0, 256 * nbytes, 256, dtype=np.intp)
        # by_syndrome[s]: the check vector of a word ECC-1 repairs at bit
        # s - 1, for syndromes 1..n.  Entry 0 is 0, the check vector of
        # a clean word, whose code s - 1 = -1 is CHECK_CLEAN; entry n + 1
        # (every syndrome past n is clamped to it) is 0 too, which no
        # nonzero vector equals.
        self._by_syndrome = np.array([0] + columns + [0], dtype=np.uint64)

    def check_batch(self, words: Sequence[int]) -> List[int]:
        """``batch_check`` codes of ``words``: one gather, then one test.

        With ``s`` the syndrome field of ``v``, clamped to ``n + 1``, the
        code is ``s - 1`` when ``v == by_syndrome[s]``, else
        UNCORRECTABLE.
        """
        rows = pack_lines(words, self.n)
        byte_matrix = rows.view(np.uint8).reshape(len(words), -1)
        vectors = np.empty(len(words), dtype=np.uint64)
        for start in range(0, len(words), _GATHER_ROWS):
            stop = start + _GATHER_ROWS
            indices = byte_matrix[start:stop] + self._byte_offsets
            np.bitwise_xor.reduce(
                self._flat_tables.take(indices), axis=1, out=vectors[start:stop]
            )
        syndromes = np.minimum(
            vectors & np.uint64(self._syndrome_mask), np.uint64(self.n + 1)
        ).astype(np.intp)
        codes = np.where(
            vectors == self._by_syndrome[syndromes],
            syndromes - 1,
            CHECK_UNCORRECTABLE,
        )
        return codes.tolist()


#: Table cache.  The tables depend on the layout alone, so every stock
#: codec over one layout shares them.
_TABLE_CACHE: Dict[LineLayout, _LineCodecTables] = {}


def _tables_for(codec) -> Optional[_LineCodecTables]:
    """Check-vector tables for a codec, or None when ineligible.

    Eligibility is deliberately conservative: exactly the stock
    ``LineCodec`` (subclasses may override ``decode``), a positional
    ``HammingSEC``, a non-reflected byte-aligned CRC whose residue and
    the syndrome fit one uint64 check vector, and a little-endian host
    (the plane layout reinterprets raw bytes).
    """
    if type(codec) is not LineCodec or sys.byteorder != "little":
        return None
    layout = codec.layout
    tables = _TABLE_CACHE.get(layout)
    if tables is not None:
        return tables
    crc = layout.crc
    if (
        type(layout.ecc) is not HammingSEC
        or crc.refin
        or crc.refout
        or layout.ecc.r + layout.crc_bits > 64
        or layout.data_bits % 8
    ):
        return None
    tables = _LineCodecTables(codec)
    _TABLE_CACHE[layout] = tables
    return tables


class NumpyBackend(KernelBackend):
    """Batched uint64 bit-plane kernels (bit-identical to reference)."""

    name = "numpy"
    batched = True

    def scatter_fault_vectors(
        self, flat: np.ndarray, line_bits: int
    ) -> Dict[int, int]:
        # Vectorised divmod; the OR-accumulation stays a dict loop over
        # *faults* (masks are arbitrary-precision ints), preserving the
        # reference backend's first-occurrence insertion order.
        indices = np.asarray(flat, dtype=np.int64)
        lines = (indices // line_bits).tolist()
        bits = (indices % line_bits).tolist()
        vectors: Dict[int, int] = {}
        for line_index, bit_position in zip(lines, bits):
            vectors[line_index] = vectors.get(line_index, 0) | (1 << bit_position)
        return vectors

    def fold_line_masks(
        self, events: Iterable[Tuple[int, int]], num_lines: int
    ) -> Dict[int, int]:
        # Burst events are few (a binomial draw at per-line *event*
        # rates) and their masks are arbitrary-precision ints; the
        # reference fold is already O(events).
        vectors: Dict[int, int] = {}
        for line_index, mask in events:
            if line_index >= num_lines:
                continue
            vectors[line_index] = vectors.get(line_index, 0) | mask
        return vectors

    def xor_fold(self, words: Sequence[int], line_bits: int) -> int:
        # Python's big-int XOR beats packing planes at every group size
        # (10-18x from 8 to 4096 words of 553 bits), so both backends
        # fold alike.
        return xor_reduce(words)

    def batch_check(self, codec, words: Sequence[int]) -> Optional[List[int]]:
        tables = _tables_for(codec)
        if tables is None:
            return None
        words = list(words)
        return tables.check_batch(words) if words else []

    def batch_decode(self, codec, words: Sequence[int]) -> List[object]:
        words = list(words)
        tables = _tables_for(codec)
        if tables is None or not words:
            return [codec.decode(word) for word in words]
        return [
            decode_from_check(codec, word, code)
            for word, code in zip(words, tables.check_batch(words))
        ]

    def batch_decode_clean(self, codec, words: Sequence[int]) -> List[object]:
        # A clean decode is LineDecode(CLEAN, word, data): with the
        # verdict promised, only the run-based payload gather is left.
        if _tables_for(codec) is None:
            return [codec.decode(word) for word in words]
        extract = codec.extract_data
        return [
            LineDecode(DecodeStatus.CLEAN, word, extract(word)) for word in words
        ]
