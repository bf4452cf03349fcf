"""Bit-vector utilities over Python integers.

Cache lines in this reproduction are fixed-width bit vectors.  A 512-bit
line is represented as a non-negative Python ``int`` whose bit ``i``
(``(value >> i) & 1``) is the i-th bit of the line.  Python integers give
us arbitrary precision, O(word) XOR (which is exactly the RAID-4 parity
operation), and cheap popcounts, so they are the natural substrate for a
simulator that mostly XORs 512-bit values together.

The :class:`BitVector` wrapper adds width checking and convenience methods
on top of the raw-int helpers; performance-critical inner loops (parity
accumulation, fault injection) use the module-level functions directly on
ints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence


#: Set-bit counts for every byte value; the 3.9 kernels count big ints
#: by walking their little-endian bytes through this table, which is
#: several times faster than ``bin(value).count("1")`` at line widths.
_BYTE_POPCOUNTS = bytes(bin(byte).count("1") for byte in range(256))


def _table_popcount(value: int) -> int:
    data = value.to_bytes((value.bit_length() + 7) // 8, "little")
    return sum(map(_BYTE_POPCOUNTS.__getitem__, data))


def _table_masked_parities(value: int, masks: Sequence[int]) -> int:
    result = 0
    bit = 1
    for mask in masks:
        if _table_popcount(value & mask) & 1:
            result |= bit
        bit <<= 1
    return result


if hasattr(int, "bit_count"):  # Python 3.10+
    def _popcount_nonneg(value: int) -> int:
        return value.bit_count()

    def _masked_parities_nonneg(value: int, masks: Sequence[int]) -> int:
        result = 0
        bit = 1
        for mask in masks:
            if (value & mask).bit_count() & 1:
                result |= bit
            bit <<= 1
        return result
else:  # pragma: no cover - exercised on 3.9 only
    def _popcount_nonneg(value: int) -> int:
        return _table_popcount(value)

    def _masked_parities_nonneg(value: int, masks: Sequence[int]) -> int:
        return _table_masked_parities(value, masks)


def popcount(value: int) -> int:
    """Number of set bits in ``value`` (which must be non-negative)."""
    if value < 0:
        raise ValueError("popcount is defined for non-negative integers")
    return _popcount_nonneg(value)


def masked_parities(value: int, masks: Sequence[int]) -> int:
    """Pack the parities of ``value & mask`` for each mask into an int.

    Bit ``j`` of the result is the parity of ``value & masks[j]``: a
    linear map over GF(2) given by its row masks.  The Hamming check bits
    and syndrome and the affine CRC rows are all evaluated this way, one
    call per word instead of one :func:`popcount` call per row.
    ``value`` must be non-negative.
    """
    if value < 0:
        raise ValueError("masked_parities is defined for non-negative integers")
    return _masked_parities_nonneg(value, masks)


def bit_positions(value: int) -> List[int]:
    """Sorted list of set-bit positions in ``value``.

    ``bit_positions(0b1010) == [1, 3]``.  Walks the lowest set bit
    (``value & -value``) rather than every position, so the cost follows
    the number of set bits -- a handful of faults in a 553-bit line --
    not the width.
    """
    if value < 0:
        raise ValueError("bit_positions is defined for non-negative integers")
    positions = []
    while value:
        lowest = value & -value
        positions.append(lowest.bit_length() - 1)
        value ^= lowest
    return positions


def flip_bits(
    value: int, positions: Iterable[int], width: Optional[int] = None
) -> int:
    """Return ``value`` with every bit listed in ``positions`` flipped.

    When ``width`` is given, every position must satisfy
    ``0 <= position < width``; a position at or beyond the width raises
    instead of silently widening the value (which would break any caller
    holding fixed-width lines, e.g. the golden-copy heal invariant of the
    fault-injection campaigns).
    """
    mask = 0
    for position in positions:
        if position < 0:
            raise ValueError(f"bit position must be non-negative, got {position}")
        if width is not None and position >= width:
            raise ValueError(
                f"bit position {position} out of range for a {width}-bit line"
            )
        mask |= 1 << position
    return value ^ mask


def hamming_distance(a: int, b: int) -> int:
    """Number of bit positions in which ``a`` and ``b`` differ."""
    return popcount(a ^ b)


def mask_of(width: int) -> int:
    """All-ones mask of ``width`` bits."""
    if width < 0:
        raise ValueError("width must be non-negative")
    return (1 << width) - 1


def random_bits(width: int, rng: Optional[random.Random] = None) -> int:
    """Uniformly random ``width``-bit value."""
    if width < 0:
        raise ValueError("width must be non-negative")
    generator = rng if rng is not None else random
    return generator.getrandbits(width) if width else 0


def random_error_vector(
    width: int, nerrors: int, rng: Optional[random.Random] = None
) -> int:
    """Error vector with exactly ``nerrors`` distinct set bits in ``width`` bits.

    This is the canonical way tests and the Monte-Carlo engine place a known
    number of faults in a line.
    """
    if not 0 <= nerrors <= width:
        raise ValueError(f"cannot place {nerrors} errors in {width} bits")
    generator = rng if rng is not None else random
    positions = generator.sample(range(width), nerrors)
    return flip_bits(0, positions, width=width)


def int_from_bits(bits: Sequence[int]) -> int:
    """Pack a little-endian sequence of 0/1 values into an int."""
    value = 0
    for index, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {bit!r} at index {index}")
        if bit:
            value |= 1 << index
    return value


def bits_from_int(value: int, width: int) -> List[int]:
    """Unpack ``value`` into a little-endian list of ``width`` 0/1 values."""
    if value < 0:
        raise ValueError("value must be non-negative")
    if value >> width:
        raise ValueError(f"value does not fit in {width} bits")
    return [(value >> index) & 1 for index in range(width)]


@dataclass(frozen=True)
class BitVector:
    """A fixed-width, immutable bit vector.

    ``BitVector`` is a thin validated wrapper around ``(value, width)``.
    All mutating-style operations return new instances.  Use it at API
    boundaries (line codecs, fault reports); use raw ints inside hot loops.
    """

    value: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError("width must be non-negative")
        if self.value < 0:
            raise ValueError("value must be non-negative")
        if self.value >> self.width:
            raise ValueError(
                f"value 0x{self.value:x} does not fit in {self.width} bits"
            )

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, width: int) -> "BitVector":
        """All-zero vector of the given width."""
        return cls(0, width)

    @classmethod
    def ones(cls, width: int) -> "BitVector":
        """All-one vector of the given width."""
        return cls(mask_of(width), width)

    @classmethod
    def random(cls, width: int, rng: Optional[random.Random] = None) -> "BitVector":
        """Uniformly random vector of the given width."""
        return cls(random_bits(width, rng), width)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitVector":
        """Build from a little-endian 0/1 sequence."""
        return cls(int_from_bits(bits), len(bits))

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitVector":
        """Build from little-endian bytes (bit 0 = LSB of ``data[0]``)."""
        return cls(int.from_bytes(data, "little"), 8 * len(data))

    # -- queries -----------------------------------------------------------

    def bit(self, index: int) -> int:
        """The bit at ``index`` (0 = LSB)."""
        self._check_index(index)
        return (self.value >> index) & 1

    def popcount(self) -> int:
        """Number of set bits."""
        return popcount(self.value)

    def set_positions(self) -> List[int]:
        """Sorted positions of set bits."""
        return bit_positions(self.value)

    def to_bits(self) -> List[int]:
        """Little-endian list of 0/1 values."""
        return bits_from_int(self.value, self.width)

    def to_bytes(self) -> bytes:
        """Little-endian byte representation (width rounded up to bytes)."""
        return self.value.to_bytes((self.width + 7) // 8, "little")

    # -- derivations -------------------------------------------------------

    def with_bit(self, index: int, bit: int) -> "BitVector":
        """Copy with bit ``index`` set to ``bit``."""
        self._check_index(index)
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        if bit:
            return BitVector(self.value | (1 << index), self.width)
        return BitVector(self.value & ~(1 << index) & mask_of(self.width), self.width)

    def flipped(self, positions: Iterable[int]) -> "BitVector":
        """Copy with every listed position flipped."""
        positions = list(positions)
        for position in positions:
            self._check_index(position)
        return BitVector(
            flip_bits(self.value, positions, width=self.width), self.width
        )

    def extract(self, offset: int, width: int) -> "BitVector":
        """Sub-vector of ``width`` bits starting at ``offset``."""
        if offset < 0 or width < 0 or offset + width > self.width:
            raise ValueError(
                f"extract({offset}, {width}) out of range for width {self.width}"
            )
        return BitVector((self.value >> offset) & mask_of(width), width)

    def concat(self, other: "BitVector") -> "BitVector":
        """Concatenation: ``other`` occupies the high bits of the result."""
        return BitVector(
            self.value | (other.value << self.width), self.width + other.width
        )

    # -- operators ----------------------------------------------------------

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector(self.value ^ other.value, self.width)

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector(self.value & other.value, self.width)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector(self.value | other.value, self.width)

    def __invert__(self) -> "BitVector":
        return BitVector(self.value ^ mask_of(self.width), self.width)

    def __len__(self) -> int:
        return self.width

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_bits())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BitVector(0x{self.value:x}, width={self.width})"

    # -- internal ------------------------------------------------------------

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.width:
            raise IndexError(f"bit index {index} out of range [0, {self.width})")

    def _check_width(self, other: "BitVector") -> None:
        if self.width != other.width:
            raise ValueError(
                f"width mismatch: {self.width} vs {other.width}"
            )
