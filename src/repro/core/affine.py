"""Per-byte tables for the affine maps of a line layout over GF(2).

Two maps of the line format are affine in their input bits, and both
have at most 64 output bits:

* the *check vector* of a stored word,
  ``v(w) = syndrome(w) | (crc(data(w)) ^ stored_crc(w)) << r``
  (:func:`check_vector`), which the stock codec's scalar decode and
  SDR's flip-and-check search (:mod:`repro.core.linecodec`) and the
  numpy backend's batched line check (:mod:`repro.kernels.numpy_backend`)
  all read their verdicts from;
* the *redundancy* of a data word: the CRC field and the Hamming check
  bits of its codeword, the ``crc_bits + r`` stored bits that are not
  data bits (:meth:`repro.core.linecodec.LineCodec.encode_many`).

An affine map ``f(x) = A.x ^ c`` is evaluated by per-byte tables.
Column ``p`` of ``A`` is ``f(1 << p) ^ c`` (:func:`affine_columns`);
the check vector's columns are taken from :func:`check_vector`, the
scalar CRC+Hamming definition, so no second CRC or Hamming
implementation exists.  Folding eight columns per byte gives one
256-entry table per input byte (:func:`byte_table_matrix`); with ``c``
folded into the first byte's table, ``f`` of an input is the XOR of one
entry per input byte, and ``f`` of N inputs is a gather over their
``(N, bytes)`` byte matrix plus one XOR reduction per row
(:class:`ByteTables`).

Both tables exist only for layouts :func:`supports_byte_tables` accepts;
their users fall back to the scalar codec for anything else.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Sequence, Tuple

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


def check_vector(layout, word: int) -> int:
    """The syndrome and CRC residue of a stored ``word``, as one int.

    This is the scalar CRC+Hamming definition the check tables are
    derived from: zero exactly when the word is a clean codeword.
    """
    ecc = layout.ecc
    data, stored_crc = layout.split_payload(ecc.extract_data(word))
    residue = layout.compute_crc(data) ^ stored_crc
    return ecc.syndrome(word) | residue << ecc.r


def affine_columns(func: Callable[[int], int], bits: int) -> Tuple[int, List[int]]:
    """``(c, columns)`` of an affine map over ``bits`` input bits.

    ``c = func(0)`` and ``columns[p] = func(1 << p) ^ c``: how setting
    input bit ``p`` moves the output.
    """
    constant = func(0)
    return constant, [func(1 << p) ^ constant for p in range(bits)]


def byte_table_matrix(
    columns: Sequence[int], constant: int, nbytes: int
) -> np.ndarray:
    """The ``(nbytes, 256)`` uint64 per-byte tables of an affine map.

    Entry ``[k, b]`` is the XOR of the columns of the bits set in byte
    value ``b`` at input byte ``k``, with ``c`` folded into byte 0's
    table.  Every input has a byte 0, so the XOR of one entry per input
    byte is ``f(x)``, not ``A.x``.
    """
    bit_columns = np.zeros((nbytes, 8), dtype=np.uint64)
    bit_columns.reshape(-1)[: len(columns)] = columns
    # Built by doubling: entries below 2^i are extended by bit i.
    tables = np.zeros((nbytes, 256), dtype=np.uint64)
    for bit in range(8):
        low = 1 << bit
        tables[:, low:2 * low] = tables[:, :low] ^ bit_columns[:, bit:bit + 1]
    tables[0] ^= np.uint64(constant)
    return tables


def gf2_inverse_columns(columns: Sequence[int]) -> List[int]:
    """The columns of the inverse of a square invertible GF(2) matrix.

    ``columns[k]`` is column ``k`` of an ``m x m`` matrix ``M`` (``m =
    len(columns)``, output bits ``0..m-1``); element ``b`` of the result
    is the ``x`` with ``M.x = 1 << b``, as a bit mask over ``k``.  By
    Gauss-Jordan elimination: each kept vector owns one pivot bit no
    other kept vector has, and remembers which columns it is the XOR
    of; a full-rank ``M`` leaves every vector a unit vector.
    """
    pivots: Dict[int, Tuple[int, int]] = {}
    for index, column in enumerate(columns):
        vector, combination = column, 1 << index
        for bit, (pivot, pivot_combination) in pivots.items():
            if vector >> bit & 1:
                vector ^= pivot
                combination ^= pivot_combination
        if not vector:
            raise ValueError("matrix is singular")
        bit = vector.bit_length() - 1
        for other, (pivot, pivot_combination) in pivots.items():
            if pivot >> bit & 1:
                pivots[other] = (pivot ^ vector, pivot_combination ^ combination)
        pivots[bit] = (vector, combination)
    if sorted(pivots) != list(range(len(columns))):
        raise ValueError("matrix is not square")
    return [pivots[bit][1] for bit in range(len(columns))]


class ByteTables:
    """An affine map with at most 64 output bits, as per-byte tables."""

    def __init__(self, columns: Sequence[int], constant: int, nbytes: int) -> None:
        # Byte k of an input indexes the flattened tables at 256 * k + value.
        self._flat = byte_table_matrix(columns, constant, nbytes).reshape(-1)
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
