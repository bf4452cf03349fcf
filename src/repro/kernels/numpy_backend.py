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
gives one 256-entry table per word byte, and ``A.w`` for N words is a
single gather over the packed byte matrix plus one XOR reduction.

The decision then reads straight off ``v``:

* ``v == 0`` -- syndrome zero and CRC match: ``CLEAN``;
* the syndrome field ``s`` names a position (``1 <= s <= n``) and
  ``v == col[s - 1]`` -- flipping bit ``p = s - 1`` moves ``v`` by
  exactly ``col[p]``, so the repaired word's check vector is zero, which
  is the scalar path's CRC re-check passing: ``CORRECTED`` at ``p``;
* anything else: ``UNCORRECTABLE``.

The payload of a clean or repaired word comes from the scalar codec's
run-based ``extract_data``.  The pipeline is only engaged for codecs
whose semantics it provably matches (the stock
:class:`~repro.core.linecodec.LineCodec`: positional ``HammingSEC`` over
``data || CRC``, non-reflected byte-aligned CRC, a check vector that
fits in 64 bits, little-endian host); anything else falls back to the
scalar ``codec.decode`` per word, which is always correct.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.coding.hamming import HammingSEC
from repro.coding.parity import xor_reduce
from repro.core.layout import LineLayout
from repro.core.linecodec import DecodeStatus, LineCodec, LineDecode
from repro.kernels.interface import KernelBackend
from repro.kernels.planes import pack_lines, words_per_line


def _check_vector(codec: LineCodec, word: int) -> int:
    """The scalar codec's syndrome and CRC residue of ``word``, as one int."""
    layout = codec.layout
    ecc = layout.ecc
    data, stored_crc = layout.split_payload(ecc.extract_data(word))
    residue = layout.compute_crc(data) ^ stored_crc
    return ecc.syndrome(word) | residue << ecc.r


class _LineCodecTables:
    """Per-byte check-vector tables for an eligible ``LineCodec``'s layout."""

    def __init__(self, codec: LineCodec) -> None:
        self.n = codec.layout.ecc.n
        self._syndrome_mask = (1 << codec.layout.ecc.r) - 1
        self._constant = _check_vector(codec, 0)
        #: col[p]: how flipping stored bit p moves the check vector.
        self._columns = [
            _check_vector(codec, 1 << p) ^ self._constant for p in range(self.n)
        ]
        nbytes = words_per_line(self.n) * 8
        bit_columns = np.zeros((nbytes, 8), dtype=np.uint64)
        bit_columns.reshape(-1)[: self.n] = self._columns
        # tables[k, b]: XOR of the columns of the bits set in byte value
        # b at byte k, built by doubling (entries below 2^i are extended
        # by bit i).
        self._tables = np.zeros((nbytes, 256), dtype=np.uint64)
        for bit in range(8):
            low = 1 << bit
            self._tables[:, low:2 * low] = (
                self._tables[:, :low] ^ bit_columns[:, bit:bit + 1]
            )
        self._byte_index = np.arange(nbytes)

    def decode_batch(
        self, codec: LineCodec, words: Sequence[int]
    ) -> List[LineDecode]:
        rows = pack_lines(words, self.n)
        byte_matrix = rows.view(np.uint8).reshape(len(words), -1)
        linear = np.bitwise_xor.reduce(
            self._tables[self._byte_index, byte_matrix], axis=1
        )
        extract = codec.extract_data
        constant, columns, n = self._constant, self._columns, self.n
        syndrome_mask = self._syndrome_mask
        results: List[LineDecode] = []
        for word, vector in zip(words, linear.tolist()):
            vector ^= constant
            if not vector:
                results.append(LineDecode(DecodeStatus.CLEAN, word, extract(word)))
                continue
            position = (vector & syndrome_mask) - 1
            if 0 <= position < n and vector == columns[position]:
                fixed = word ^ (1 << position)
                results.append(
                    LineDecode(DecodeStatus.CORRECTED, fixed, extract(fixed), position)
                )
            else:
                results.append(LineDecode(DecodeStatus.UNCORRECTABLE, word, None))
        return results


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

    def batch_decode(self, codec, words: Sequence[int]) -> List[object]:
        words = list(words)
        if not words:
            return []
        tables = _tables_for(codec)
        if tables is None:
            return [codec.decode(word) for word in words]
        return tables.decode_batch(codec, words)

    def batch_decode_clean(self, codec, words: Sequence[int]) -> List[object]:
        # A clean decode is LineDecode(CLEAN, word, data): with the
        # verdict promised, only the run-based payload gather is left.
        if _tables_for(codec) is None:
            return [codec.decode(word) for word in words]
        extract = codec.extract_data
        return [
            LineDecode(DecodeStatus.CLEAN, word, extract(word)) for word in words
        ]
