"""Bit-plane packing: lines as rows of a numpy ``uint64`` matrix.

The kernels represent a population of ``line_bits``-wide lines as an
``(num_lines, words_per_line)`` array of little-endian ``uint64`` words:
bit ``b`` of line ``i`` lives at ``planes[i, b // 64] >> (b % 64) & 1``.
This is byte-for-byte the little-endian serialisation the rest of the
code base already uses for CRC computation and PLT entry checksums
(``value.to_bytes(..., "little")``), so packing is a straight
reinterpretation, not a permutation.

The conversion from the Python-int line representation (arbitrary
precision, used by the reference backend and every public API) to the
plane representation lives here so every numpy kernel agrees on exactly
one layout.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def words_per_line(line_bits: int) -> int:
    """``uint64`` words needed to hold one line (rounded up)."""
    if line_bits <= 0:
        raise ValueError("line_bits must be positive")
    return (line_bits + 63) // 64


def pack_lines(values: Sequence[int], line_bits: int) -> np.ndarray:
    """Line ints -> an ``(N, words_per_line)`` little-endian uint64 matrix.

    The serialisation loop is O(N) Python, but each step is a single
    ``int.to_bytes`` -- the unavoidable toll booth between arbitrary-
    precision ints and fixed-width planes.  Everything downstream of
    this call is vectorised.
    """
    wpl = words_per_line(line_bits)
    nbytes = wpl * 8
    buffer = b"".join([value.to_bytes(nbytes, "little") for value in values])
    return np.frombuffer(buffer, dtype="<u8").reshape(len(values), wpl)
