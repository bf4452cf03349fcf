"""Per-byte tables for the affine maps of a line layout over GF(2).

Two maps of the line format are affine in their input bits, and both
have at most 64 output bits:

* the *check vector* of a stored word,
  ``v(w) = syndrome(w) | (crc(data(w)) ^ stored_crc(w)) << r``, which
  the numpy backend's batched line check reads its verdicts from
  (:mod:`repro.kernels.numpy_backend`);
* the *redundancy* of a data word: the CRC field and the Hamming check
  bits of its codeword, the ``crc_bits + r`` stored bits that are not
  data bits (:meth:`repro.core.linecodec.LineCodec.encode_many`).

An affine map ``f(x) = A.x ^ c`` is evaluated for a batch of inputs as
one table gather.  Column ``p`` of ``A`` is ``f(1 << p) ^ c``, taken
from the scalar codec itself (:func:`affine_columns`), so no second CRC
or Hamming implementation exists.  Folding eight columns per byte gives
one 256-entry table per input byte; with ``c`` folded into the first
byte's table, ``f`` of N inputs is a gather over their ``(N, bytes)``
byte matrix plus one XOR reduction per row (:class:`ByteTables`).

Both tables exist only for layouts :func:`supports_byte_tables` accepts;
their users fall back to the scalar codec for anything else.
"""

from __future__ import annotations

import sys
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.coding.hamming import HammingSEC

#: Rows per table gather.  A gather materialises an index and a result
#: matrix of 8 bytes per input byte; chunks this size keep both cache
#: resident, which is ~3x faster than one gather over thousands of rows.
GATHER_ROWS = 256


def supports_byte_tables(layout) -> bool:
    """Can a layout's check vector and redundancy be table-evaluated?

    Deliberately conservative: a positional ``HammingSEC``, a
    non-reflected CRC over byte-aligned data, a check vector (syndrome
    and CRC residue) that fits one uint64, and a little-endian host
    (byte matrices reinterpret raw integer bytes).
    """
    crc = layout.crc
    return (
        sys.byteorder == "little"
        and type(layout.ecc) is HammingSEC
        and not crc.refin
        and not crc.refout
        and layout.ecc.r + layout.crc_bits <= 64
        and not layout.data_bits % 8
    )


def affine_columns(func: Callable[[int], int], bits: int) -> Tuple[int, List[int]]:
    """``(c, columns)`` of an affine map over ``bits`` input bits.

    ``c = func(0)`` and ``columns[p] = func(1 << p) ^ c``: how setting
    input bit ``p`` moves the output.
    """
    constant = func(0)
    return constant, [func(1 << p) ^ constant for p in range(bits)]


class ByteTables:
    """An affine map with at most 64 output bits, as per-byte tables."""

    def __init__(self, columns: Sequence[int], constant: int, nbytes: int) -> None:
        bit_columns = np.zeros((nbytes, 8), dtype=np.uint64)
        bit_columns.reshape(-1)[: len(columns)] = columns
        # tables[k, b]: XOR of the columns of the bits set in byte value
        # b at byte k, built by doubling (entries below 2^i are extended
        # by bit i).
        tables = np.zeros((nbytes, 256), dtype=np.uint64)
        for bit in range(8):
            low = 1 << bit
            tables[:, low:2 * low] = tables[:, :low] ^ bit_columns[:, bit:bit + 1]
        # Every input has a byte 0, so folding c into its table adds c to
        # each reduction exactly once: the gather yields f(x), not A.x.
        tables[0] ^= np.uint64(constant)
        # Byte k of an input indexes the flattened tables at 256 * k + value.
        self._flat = tables.reshape(-1)
        self._offsets = np.arange(0, 256 * nbytes, 256, dtype=np.intp)

    def apply(self, byte_matrix: np.ndarray) -> np.ndarray:
        """``f`` of each row of an ``(N, nbytes)`` uint8 matrix, as uint64."""
        rows = len(byte_matrix)
        values = np.empty(rows, dtype=np.uint64)
        for start in range(0, rows, GATHER_ROWS):
            stop = start + GATHER_ROWS
            indices = byte_matrix[start:stop] + self._offsets
            np.bitwise_xor.reduce(
                self._flat.take(indices), axis=1, out=values[start:stop]
            )
        return values
