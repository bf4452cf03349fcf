"""Cyclic redundancy checks.

SuDoku attaches a 31-bit CRC to every cache line as its strong error
*detector*: CRC-31 is guaranteed to detect up to seven bit errors in a
64-byte line and misses longer error patterns with probability only
2^-31 (paper section III-F, citing Koopman's CRC zoo).

This module provides a fully general, table-driven CRC engine
(:class:`CRC`, parameterised like the Rocksoft model: width, polynomial,
init, reflect-in/out, xor-out) plus the concrete 31-bit instance used
throughout the reproduction.  The Koopman zoo page cited by the paper is
not reachable offline, so we use the catalogued CRC-31/PHILIPS polynomial
as our concrete CRC-31; the *detection-capability parameters* the paper's
analysis relies on (detects <= 7 errors over a line, misdetection
probability 2^-31 beyond) live in :class:`DetectionModel` and are verified
empirically by the Monte-Carlo tests.

For a fixed message length every catalogue CRC -- init, refin/refout and
xorout included -- is an affine map over GF(2): ``crc(v) = c ^ L(v)``
with ``c = crc(0)`` and ``L`` linear.  :meth:`CRC.compute_int`, the
per-line hot path, evaluates that map directly: bit ``j`` of the CRC is
bit ``j`` of ``c`` XOR the parity of ``v & row[j]``, one masked popcount
per CRC bit instead of one table step per message byte.  The constant
is the byte-table path (:meth:`CRC.compute`) on the zero message; the
``width`` row masks come from ``nbits`` steps of the CRC register (one
multiply by x mod poly per message bit), derived lazily, once per
``nbits``.  :meth:`CRC.compute` and the bit-serial
:meth:`CRC.compute_bits` remain the references the tests hold it to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.coding.bitvec import bit_positions, mask_of, masked_parities


def reflect(value: int, width: int) -> int:
    """Bit-reverse ``value`` within ``width`` bits."""
    result = 0
    for _ in range(width):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


class CRC:
    """A parameterised CRC in the Rocksoft/catalogue model.

    Parameters mirror the conventional CRC catalogue description:

    :param width: CRC register width in bits (>= 8 here).
    :param poly: generator polynomial in normal (MSB-first) form without
        the implicit leading x^width term.
    :param init: initial register value.
    :param refin: reflect each input byte before processing.
    :param refout: reflect the register before xor-out.
    :param xorout: value XORed into the final register.
    :param name: catalogue name, for diagnostics.
    """

    def __init__(
        self,
        width: int,
        poly: int,
        init: int = 0,
        refin: bool = False,
        refout: bool = False,
        xorout: int = 0,
        name: str = "",
    ) -> None:
        if width < 8:
            raise ValueError("CRC widths below 8 bits are not supported")
        if poly <= 0 or poly >> width:
            raise ValueError(f"polynomial does not fit in {width} bits")
        self.width = width
        self.poly = poly
        self.init = init & mask_of(width)
        self.refin = refin
        self.refout = refout
        self.xorout = xorout & mask_of(width)
        self.name = name or f"CRC-{width}"
        self._mask = mask_of(width)
        self._topbit = 1 << (width - 1)
        self._table = self._build_table()
        #: nbits -> (crc of the zero message, row mask of each crc bit).
        self._affine: Dict[int, Tuple[int, List[int]]] = {}

    def _build_table(self) -> list:
        table = []
        shift = self.width - 8
        for byte in range(256):
            register = byte << shift
            for _ in range(8):
                if register & self._topbit:
                    register = ((register << 1) ^ self.poly) & self._mask
                else:
                    register = (register << 1) & self._mask
            table.append(register)
        return table

    def _affine_rows(self, nbits: int) -> Tuple[int, List[int]]:
        """The affine form of the ``nbits``-bit CRC, built on first use.

        Column ``i`` of the linear part is ``crc(1 << i) ^ crc(0)``; row
        ``j`` collects the message bits whose column has bit ``j`` set.
        A 1 fed as stream bit ``p`` (byte ``p // 8``, MSB first within
        the byte, LSB first under ``refin``) leaves ``poly`` in the
        register, and each of the ``nbits - 1 - p`` bits after it
        multiplies that by x mod poly; ``refout`` then reverses the
        register, which reverses the rows.  So the columns come from
        ``nbits`` register steps, walking the stream from its last bit.
        """
        rows = self._affine.get(nbits)
        if rows is None:
            constant = self.compute(bytes(nbits // 8))
            masks = [0] * self.width
            register = self.poly
            for position in range(nbits - 1, -1, -1):
                offset = position & 7
                index = position - offset + (offset if self.refin else 7 - offset)
                for crc_bit in bit_positions(register):
                    masks[crc_bit] |= 1 << index
                if register & self._topbit:
                    register = ((register << 1) & self._mask) ^ self.poly
                else:
                    register <<= 1
            if self.refout:
                masks.reverse()
            rows = (constant, masks)
            self._affine[nbits] = rows
        return rows

    # -- public API ---------------------------------------------------------

    def compute(self, data: bytes) -> int:
        """CRC of a byte string, honouring all catalogue parameters."""
        register = self.init
        shift = self.width - 8
        table = self._table
        if self.refin:
            data = bytes(_REFLECT8[b] for b in data)
        for byte in data:
            index = ((register >> shift) ^ byte) & 0xFF
            register = ((register << 8) & self._mask) ^ table[index]
        if self.refout:
            register = reflect_bytewise(register, self.width)
        return register ^ self.xorout

    def compute_int(self, value: int, nbits: int) -> int:
        """CRC of an ``nbits``-wide little-endian bit vector stored in an int.

        ``nbits`` must be a multiple of 8; the value is serialised to
        little-endian bytes (bit 0 of the vector = LSB of byte 0), which is
        the canonical wire format for cache-line data in this code base.
        The result equals :meth:`compute` on those bytes; it is evaluated
        through the affine row masks (see the module docstring).
        """
        if nbits % 8:
            raise ValueError("compute_int requires a whole number of bytes")
        if value < 0 or value >> nbits:
            raise ValueError(f"value does not fit in {nbits} bits")
        constant, rows = self._affine_rows(nbits)
        return constant ^ masked_parities(value, rows)

    def compute_bits(self, value: int, nbits: int) -> int:
        """Bit-serial CRC over exactly ``nbits`` bits.

        Reference implementation for arbitrary (non-byte-multiple) message
        lengths.  Bits are consumed in the same order as :meth:`compute`
        over the little-endian serialisation -- byte 0 first, MSB-first
        within each byte -- so for byte-multiple widths this matches
        :meth:`compute_int` exactly; a trailing partial byte is consumed
        MSB-first as well.  Used by tests to validate the table path.
        """
        if value < 0 or (nbits and value >> nbits):
            raise ValueError(f"value does not fit in {nbits} bits")
        register = self.init
        full_bytes, remainder_bits = divmod(nbits, 8)

        def feed(bit: int) -> None:
            nonlocal register
            top = (register >> (self.width - 1)) & 1
            register = (register << 1) & self._mask
            if top ^ bit:
                register ^= self.poly

        for byte_index in range(full_bytes):
            byte = (value >> (8 * byte_index)) & 0xFF
            if self.refin:
                byte = _REFLECT8[byte]
            for bit_index in range(7, -1, -1):
                feed((byte >> bit_index) & 1)
        if remainder_bits:
            tail = value >> (8 * full_bytes)
            for bit_index in range(remainder_bits - 1, -1, -1):
                feed((tail >> bit_index) & 1)
        if self.refout:
            register = reflect_bytewise(register, self.width)
        return register ^ self.xorout

    def matches(self, value: int, nbits: int, stored_crc: int) -> bool:
        """Does the stored CRC agree with a fresh computation?"""
        return self.compute_int(value, nbits) == stored_crc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CRC(name={self.name!r}, width={self.width}, "
            f"poly=0x{self.poly:x})"
        )


_REFLECT8 = [reflect(byte, 8) for byte in range(256)]


def reflect_bytewise(value: int, width: int) -> int:
    """Bit-reverse ``value`` within ``width`` bits via the byte table.

    Equivalent to :func:`reflect` (the tests pin the equivalence over the
    catalogue widths) but walks ``ceil(width / 8)`` table lookups instead
    of ``width`` single-bit shifts -- this runs once per message on every
    ``refout=True`` computation, which made the bit loop a measurable tax
    on CRC-32-heavy paths.
    """
    nbytes = (width + 7) >> 3
    result = 0
    for _ in range(nbytes):
        result = (result << 8) | _REFLECT8[value & 0xFF]
        value >>= 8
    # The table reverses whole bytes; drop the padding bits a non-multiple
    # width picked up.
    return result >> ((nbytes << 3) - width)


# ---------------------------------------------------------------------------
# Catalogue instances.
# ---------------------------------------------------------------------------

#: CRC-32 (the ubiquitous reflected Ethernet/zlib CRC); used only to
#: validate the generic engine against its published check value.
CRC32 = CRC(
    32, 0x04C11DB7, init=0xFFFFFFFF, refin=True, refout=True,
    xorout=0xFFFFFFFF, name="CRC-32",
)

#: CRC-16/CCITT-FALSE; engine validation.
CRC16_CCITT = CRC(16, 0x1021, init=0xFFFF, name="CRC-16/CCITT-FALSE")

#: CRC-8 (SMBus); engine validation.
CRC8 = CRC(8, 0x07, name="CRC-8")

#: The 31-bit CRC SuDoku stores with every line.  Concrete polynomial is
#: the catalogued CRC-31/PHILIPS; the paper's reliability analysis only
#: uses the width (31 bits => 2^-31 misdetection) and the Hamming-distance
#: guarantee (detects <= 7 errors at cache-line length), both of which are
#: captured in :data:`CRC31_DETECTION`.
CRC31_SUDOKU = CRC(
    31, 0x04C11DB7, init=0x7FFFFFFF, refin=False, refout=False,
    xorout=0x7FFFFFFF, name="CRC-31/PHILIPS",
)


def crc31(value: int, nbits: int = 512) -> int:
    """CRC-31 of an ``nbits``-bit line value (default: one 64-byte line)."""
    return CRC31_SUDOKU.compute_int(value, nbits)


@dataclass(frozen=True)
class DetectionModel:
    """Analytical detection capability of a CRC, as used by the paper.

    The reliability models never run the polynomial; they use exactly two
    numbers, which this dataclass makes explicit and testable:

    * ``guaranteed_detect``: every error pattern of weight <= this is
      detected (Hamming distance of the code at line length).
    * ``misdetect_probability``: probability that a heavier random pattern
      maps to a zero syndrome (2^-width for a well-formed CRC).
    """

    width: int
    guaranteed_detect: int
    misdetect_probability: float

    @classmethod
    def for_crc31(cls) -> "DetectionModel":
        """The paper's CRC-31 detection model: HD 8 at 64-byte lines."""
        return cls(width=31, guaranteed_detect=7, misdetect_probability=2.0 ** -31)


#: Detection model for CRC-31 at cache-line length (paper section III-F).
CRC31_DETECTION = DetectionModel.for_crc31()


#: Published check values (CRC of the ASCII bytes "123456789") for the
#: catalogue instances above; exercised by the unit tests.
CHECK_VALUES: Dict[str, int] = {
    "CRC-32": 0xCBF43926,
    "CRC-16/CCITT-FALSE": 0x29B1,
    "CRC-8": 0xF4,
    "CRC-31/PHILIPS": 0x0CE9E46C,
}
