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
``c = v(0)``.  Column ``p`` of ``A`` is ``v(1 << p) ^ c``.  The columns
are the stock codec's own (:class:`repro.core.linecodec.LineTables`,
derived once per layout from the scalar CRC+Hamming definition), which
its scalar decode classifies by too, so there is one derivation and no
second CRC or Hamming implementation.  Here they become numpy per-byte
tables (:class:`repro.core.affine.ByteTables`, the builder the batched
encoder shares), and ``v`` for N words is a table gather over the
packed byte matrix plus one XOR reduction.

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
codecs whose semantics it provably matches: those
:func:`~repro.core.linecodec.line_tables` gives tables (the stock
``LineCodec`` over a layout
:func:`~repro.core.affine.supports_byte_tables` accepts: positional
``HammingSEC`` over ``data || CRC``, non-reflected byte-aligned CRC, a
check vector that fits in 64 bits, little-endian host).  For anything
else ``batch_decode`` falls back to the scalar ``codec.decode`` per word,
which is always correct, and ``batch_check`` returns None.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.coding.parity import xor_reduce
from repro.core.affine import ByteTables
from repro.core.layout import LineLayout
from repro.core.linecodec import (
    DecodeStatus,
    LineCodec,
    LineDecode,
    LineTables,
    line_tables,
)
from repro.kernels.interface import (
    CHECK_UNCORRECTABLE,
    KernelBackend,
    decode_from_check,
)
from repro.kernels.planes import pack_lines, words_per_line


class _LineCodecTables:
    """Numpy check-vector tables over one layout's :class:`LineTables`."""

    def __init__(self, layout: LineLayout, line: LineTables) -> None:
        self.n = line.n
        self._syndrome_mask = (1 << layout.ecc.r) - 1
        self._vectors = ByteTables(
            line.columns, line.constant, words_per_line(self.n) * 8
        )
        # by_syndrome[s]: the check vector of a word ECC-1 repairs at bit
        # s - 1, for syndromes 1..n.  Entry 0 is 0, the check vector of
        # a clean word, whose code s - 1 = -1 is CHECK_CLEAN; entry n + 1
        # (every syndrome past n is clamped to it) is 0 too, which no
        # nonzero vector equals.
        self._by_syndrome = np.array([0] + line.columns + [0], dtype=np.uint64)

    def check_batch(self, words: Sequence[int]) -> List[int]:
        """``batch_check`` codes of ``words``: one gather, then one test.

        With ``s`` the syndrome field of ``v``, clamped to ``n + 1``, the
        code is ``s - 1`` when ``v == by_syndrome[s]``, else
        UNCORRECTABLE.
        """
        rows = pack_lines(words, self.n)
        vectors = self._vectors.apply(rows.view(np.uint8).reshape(len(words), -1))
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

    Eligible are exactly the codecs :func:`line_tables` gives tables.
    """
    line = line_tables(codec)
    if line is None:
        return None
    layout = codec.layout
    tables = _TABLE_CACHE.get(layout)
    if tables is None:
        tables = _TABLE_CACHE[layout] = _LineCodecTables(layout, line)
    return tables


def warm_line_tables() -> None:
    """Build every per-layout line table of the default layout.

    The stock codec's check and encode tables
    (:func:`repro.core.linecodec.line_tables`), and the CRC and Hamming
    tables they are derived from, and the numpy backend's check tables
    are per-process caches.  Call this before forking workers: each
    child then inherits them, instead of deriving the columns again in
    its first interval.
    """
    _tables_for(LineCodec())


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
