"""Encode / verify / repair of a single protected line.

The codec implements the per-line fast path of section III:

1. **Verify** (1 cycle in hardware): recompute CRC over the decoded data
   and compare with the stored CRC field.  Clean lines never touch ECC.
2. **ECC-1 repair**: on CRC mismatch, run the Hamming correction over the
   stored word, then re-verify with CRC.  A single-bit fault anywhere in
   the 553 stored bits is repaired; with 2+ faults the Hamming decode
   miscorrects (or points nowhere) and the CRC re-check fails, which is
   the signal to escalate to the RAID machinery.

The codec is stateless; all of SuDoku's group-level logic composes it.

Both steps read one affine map, the word's 41-bit *check vector*
``v(w) = syndrome(w) | (crc(data(w)) ^ stored_crc(w)) << r``
(:func:`repro.core.affine.check_vector`).  The stock codec evaluates it
by per-byte table lookup (:class:`LineTables`) and classifies from it:
``v == 0`` is CLEAN; ``v == col[p]``, the check vector of a lone flip
of bit ``p``, is an ECC-1 repair of bit ``p`` whose CRC re-check
passes; anything else is UNCORRECTABLE.  The same tables batch-encode
(:meth:`LineCodec.encode_many`) and run SDR's flip-and-check search
(:meth:`LineTables.search`).  The CRC+Hamming code
(:meth:`LineCodec.decode_by_definition`, :meth:`LineCodec.encode`) is
the definition the tables are derived from and tested against, and the
path of every other codec: a subclass, or a layout
:func:`~repro.core.affine.supports_byte_tables` rejects.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.affine import (
    ByteTables,
    affine_columns,
    byte_table_matrix,
    check_vector,
    gf2_inverse_columns,
    supports_byte_tables,
)
from repro.core.layout import LineLayout


class DecodeStatus(enum.Enum):
    """Result class of a line-level decode attempt."""

    CLEAN = "clean"                    # CRC matched without correction
    CORRECTED = "corrected"            # one bit repaired, CRC now matches
    UNCORRECTABLE = "uncorrectable"    # needs group-level correction


class LineDecode(NamedTuple):
    """Outcome of :meth:`LineCodec.decode`.

    ``word`` is the post-repair stored word (unchanged when
    uncorrectable); ``data`` the extracted payload when the CRC endorsed
    it, else ``None``.  ``flipped_position`` reports the stored-word bit
    ECC-1 flipped, when it did.  A named tuple because scrubs and group
    scans build one per decode, and it builds several times faster than
    a frozen dataclass.
    """

    status: DecodeStatus
    word: int
    data: Optional[int]
    flipped_position: Optional[int] = None

    @property
    def ok(self) -> bool:
        """Did the decode produce CRC-endorsed data?"""
        return self.status is not DecodeStatus.UNCORRECTABLE


class LineCodec:
    """Stateless encoder/decoder for the SuDoku line format."""

    def __init__(self, layout: Optional[LineLayout] = None) -> None:
        self.layout = layout if layout is not None else LineLayout()
        self._ecc = self.layout.ecc

    @cached_property
    def _tables(self) -> Optional[LineTables]:
        """The layout's shared tables, looked up on first use; None when
        this codec classifies by the CRC+Hamming definition."""
        return line_tables(self)

    # -- encode -------------------------------------------------------------------

    def encode(self, data: int) -> int:
        """Data word -> stored line (Hamming codeword of data || CRC)."""
        crc_value = self.layout.compute_crc(data)
        payload = self.layout.compose_payload(data, crc_value)
        return self._ecc.encode(payload)

    def encode_many(self, data_words: Sequence[int]) -> List[int]:
        """``[self.encode(d) for d in data_words]``, in one table pass.

        The stock codec over a table-capable layout encodes the whole
        batch through its :class:`LineTables`; any other codec (a
        subclass may override ``encode``) takes the scalar loop.
        """
        tables = self._tables
        if tables is None or not data_words:
            return [self.encode(data) for data in data_words]
        return tables.encode(data_words)

    # -- verify -------------------------------------------------------------------

    def verify(self, word: int) -> bool:
        """The 1-cycle syndrome check of section III-B (no correction).

        A line is pristine when its CRC matches *and* its ECC syndrome is
        zero.  The second condition catches faults in the ECC check bits
        themselves, which leave the payload (and hence the CRC) untouched
        but must still be scrubbed out before they can pair with a later
        payload fault or leak into a RAID reconstruction.  Both hold
        exactly when the word's check vector is zero.
        """
        tables = self._tables
        if tables is not None:
            return not tables.vector(word)
        payload = self._ecc.extract_data(word)
        data, stored_crc = self.layout.split_payload(payload)
        if self.layout.compute_crc(data) != stored_crc:
            return False
        return self._ecc.syndrome(word) == 0

    def extract_data(self, word: int) -> int:
        """Payload data without any checking (callers must verify)."""
        payload = self._ecc.extract_data(word)
        data, _ = self.layout.split_payload(payload)
        return data

    # -- decode / repair ------------------------------------------------------------

    def decode(self, word: int) -> LineDecode:
        """Full line-level decode: syndrome checks, then ECC-1 + CRC re-check.

        Equal to :meth:`decode_by_definition` on every word.  The stock
        codec reads the verdict off the word's check vector: zero is
        CLEAN, the column of a lone flip of bit ``p`` is an ECC-1 repair
        of bit ``p`` whose repaired word has a zero check vector, i.e.
        passes the CRC re-check.
        """
        tables = self._tables
        if tables is None:
            return self.decode_by_definition(word)
        vector = tables.vector(word)
        if not vector:
            return LineDecode(DecodeStatus.CLEAN, word, self.extract_data(word))
        position = tables.positions.get(vector)
        if position is None:
            return LineDecode(DecodeStatus.UNCORRECTABLE, word, None)
        fixed = word ^ (1 << position)
        return LineDecode(
            DecodeStatus.CORRECTED, fixed, self.extract_data(fixed), position
        )

    def decode_by_definition(self, word: int) -> LineDecode:
        """The line decode from the CRC and Hamming codes themselves.

        This is the definition :meth:`decode` is tested against, and the
        decode of a codec without tables.  The clean fast path requires
        both a matching CRC and a zero ECC syndrome (hardware computes
        both in the same cycle).  A non-zero
        syndrome triggers the ECC-1 repair attempt; the repair is accepted
        only if the repaired payload's CRC matches -- this re-check is
        what exposes ECC-1 miscorrections on lines that really held 2+
        faults (section III-E).
        """
        layout = self.layout
        payload = self._ecc.extract_data(word)
        data, stored_crc = layout.split_payload(payload)
        crc_ok = layout.compute_crc(data) == stored_crc
        syndrome = self._ecc.syndrome(word)
        if crc_ok and syndrome == 0:
            return LineDecode(DecodeStatus.CLEAN, word, data)

        # The ECC-1 repair, reusing the syndrome rather than calling
        # HammingSEC.correct, which would compute it again.
        flipped = self._ecc.error_position(syndrome)
        if flipped is not None:
            fixed_word = word ^ (1 << flipped)
            fixed_data, fixed_crc = layout.split_payload(
                self._ecc.extract_data(fixed_word)
            )
            if layout.compute_crc(fixed_data) == fixed_crc:
                return LineDecode(
                    DecodeStatus.CORRECTED, fixed_word, fixed_data, flipped
                )
        # Either the repair failed its CRC re-check, or (syndrome == 0,
        # CRC bad) the word is a valid ECC codeword with an inconsistent
        # payload -- a multi-bit corruption beyond line-level repair.
        return LineDecode(DecodeStatus.UNCORRECTABLE, word, None)

    def try_flip_and_repair(self, word: int, position: int) -> Optional[int]:
        """One SDR trial: flip ``position``, run ECC-1, validate with CRC.

        Returns the repaired stored word when the trial lands on a
        CRC-endorsed codeword, else ``None``.  This is the inner operation
        of Sequential Data Resurrection (section IV-A): if ``position``
        was indeed one of the two faults, ECC-1 fixes the other and the
        CRC certifies the result.
        """
        if not 0 <= position < self._ecc.n:
            raise ValueError("position out of range for the stored word")
        result = self.decode(word ^ (1 << position))
        if result.status is DecodeStatus.UNCORRECTABLE:
            return None
        return result.word

    @property
    def stored_bits(self) -> int:
        """Stored width per line."""
        return self.layout.stored_bits


def _runs(positions: Sequence[int]) -> List[Tuple[int, int, int]]:
    """``positions`` as ``(start, stop, offset)`` runs: for ``start <= i <
    stop``, ``positions[i] == i + offset``."""
    runs: List[Tuple[int, int, int]] = []
    start = 0
    for index in range(1, len(positions) + 1):
        if (
            index == len(positions)
            or positions[index] - index != positions[start] - start
        ):
            runs.append((start, index, positions[start] - start))
            start = index
    return runs


class LineTables:
    """One layout's check vector and encoder, by table lookup.

    ``columns[p]`` is how flipping stored bit ``p`` moves the check
    vector; the columns and ``constant = v(0)`` are derived once from
    :func:`~repro.core.affine.check_vector`.  Every table the stock
    codec, SDR and the numpy backend read comes from them: the per-byte
    lists of :meth:`vector`, the ``positions`` of the single-flip
    vectors, the encoder's redundancy tables, and the numpy backend's
    batched check.  One instance per layout is shared by every stock
    codec over it (:func:`line_tables`).
    """

    def __init__(self, layout: LineLayout) -> None:
        ecc = layout.ecc
        self.n = ecc.n
        self._nbytes = (self.n + 7) // 8
        self.constant, self.columns = affine_columns(
            lambda word: check_vector(layout, word), self.n
        )
        #: The check vector of each single flip, to the flipped bit.  The
        #: syndrome of a lone flip of bit p is p + 1, so the columns are
        #: distinct and ``v == col[p]`` is exactly the definition's
        #: "ECC-1 repairs bit p and the CRC re-check passes".
        self.positions: Dict[int, int] = {
            column: position for position, column in enumerate(self.columns)
        }
        # One list of 256 check-vector parts per stored byte.
        self._byte_lists: List[List[int]] = byte_table_matrix(
            self.columns, self.constant, self._nbytes
        ).tolist()
        self._encoder = _EncodeTables(layout, self.constant, self.columns)

    def vector(self, word: int) -> int:
        """The check vector of ``word``: one lookup per stored byte."""
        if word < 0 or word >> self.n:
            raise ValueError(f"codeword does not fit in {self.n} bits")
        value = 0
        for table, byte in zip(
            self._byte_lists, word.to_bytes(self._nbytes, "little")
        ):
            value ^= table[byte]
        return value

    def search(
        self, word: int, positions: Sequence[int]
    ) -> Tuple[int, Optional[int]]:
        """SDR's flip-and-check over ``positions``, by linearity.

        Returns ``(trials, repaired)``: what calling the stock
        :meth:`LineCodec.try_flip_and_repair` on each position in turn,
        stopping at the first repaired word, would count and return
        (``repaired`` is None when no trial succeeds).  Flipping bit
        ``p`` moves the check vector by ``col[p]``, so each trial is one
        XOR and one lookup: the flipped word is clean, or ECC-1 repairs
        it at the bit its vector names.
        """
        vector = self.vector(word)
        columns, located = self.columns, self.positions
        for trial, position in enumerate(positions, 1):
            if not 0 <= position < self.n:
                raise ValueError("position out of range for the stored word")
            moved = vector ^ columns[position]
            if not moved:
                return trial, word ^ (1 << position)
            fixed = located.get(moved)
            if fixed is not None:
                return trial, word ^ (1 << position) ^ (1 << fixed)
        return len(positions), None

    def encode(self, data_words: Sequence[int]) -> List[int]:
        """``LineCodec.encode`` of each data word, in one table pass."""
        return self._encoder.encode(data_words)


class _EncodeTables:
    """Batched encoding over one layout.

    A codeword is the data bits, scattered to their codeword positions,
    plus the *redundancy*: the CRC field and the Hamming check bits, the
    ``crc_bits + r`` other stored bits.  A codeword is exactly a word
    whose check vector is zero, so with ``D`` and ``R`` the check
    columns of the data and redundant bits, the redundancy ``x`` of data
    ``d`` solves ``c ^ D.d ^ R.x = 0``: ``x = R^-1.c ^ R^-1.D.d``, an
    affine map of the data evaluated by one per-byte table gather
    (:class:`repro.core.affine.ByteTables`).  Both halves are then
    placed as runs of contiguous bit columns in one ``(N, stored bits)``
    bit matrix, which packs back into the codewords.
    """

    def __init__(
        self, layout: LineLayout, constant: int, columns: Sequence[int]
    ) -> None:
        ecc = layout.ecc
        self._data_bytes = layout.data_bits // 8
        self._row_bytes = (ecc.n + 7) // 8
        # The codeword bit each payload bit is read back from.
        position: Dict[int, int] = {}
        for bit in range(ecc.n):
            payload_bit = ecc.extract_data(1 << bit)
            if payload_bit:
                position[payload_bit.bit_length() - 1] = bit
        data_positions = [position[i] for i in range(layout.data_bits)]
        data_set = set(data_positions)
        redundant = [bit for bit in range(ecc.n) if bit not in data_set]

        # R^-1 as per-byte tables over the 8 bytes of a check vector,
        # applied to c and to each data bit's column at once.
        solve = ByteTables(
            gf2_inverse_columns([columns[bit] for bit in redundant]), 0, 8
        )
        targets = np.array(
            [constant] + [columns[bit] for bit in data_positions], dtype=np.uint64
        )
        solved = solve.apply(targets.view(np.uint8).reshape(-1, 8)).tolist()
        self._redundancy = ByteTables(solved[1:], solved[0], self._data_bytes)
        self._data_runs = _runs(data_positions)
        self._redundant_runs = _runs(redundant)

    def encode(self, data_words: Sequence[int]) -> List[int]:
        count = len(data_words)
        try:
            buffer = b"".join(
                [data.to_bytes(self._data_bytes, "little") for data in data_words]
            )
        except OverflowError:
            raise ValueError(
                f"data does not fit in {8 * self._data_bytes} bits"
            ) from None
        data_bytes = np.frombuffer(buffer, dtype=np.uint8).reshape(count, -1)
        redundancy = self._redundancy.apply(data_bytes)
        sources = (
            (np.unpackbits(data_bytes, axis=1, bitorder="little"), self._data_runs),
            (
                np.unpackbits(
                    redundancy.view(np.uint8).reshape(count, 8),
                    axis=1, bitorder="little",
                ),
                self._redundant_runs,
            ),
        )
        bits = np.zeros((count, 8 * self._row_bytes), dtype=np.uint8)
        for source, runs in sources:
            for start, stop, offset in runs:
                bits[:, start + offset:stop + offset] = source[:, start:stop]
        rows = np.packbits(bits, axis=1, bitorder="little").tobytes()
        width = self._row_bytes
        return [
            int.from_bytes(rows[start:start + width], "little")
            for start in range(0, count * width, width)
        ]


#: Table cache.  The tables depend on the layout alone, so every stock
#: codec over one layout shares them; they are built on first use.
_LINE_TABLES: Dict[LineLayout, LineTables] = {}


def line_tables(codec) -> Optional[LineTables]:
    """The tables a codec classifies and batch-encodes by, or None.

    Deliberately conservative: exactly the stock ``LineCodec`` (a
    subclass may override ``decode`` or ``encode``) over a layout
    :func:`~repro.core.affine.supports_byte_tables` accepts.  This is
    the one eligibility rule of every table path, the numpy backend's
    included; any other codec takes its own scalar methods.
    """
    if type(codec) is not LineCodec:
        return None
    layout = codec.layout
    tables = _LINE_TABLES.get(layout)
    if tables is None and supports_byte_tables(layout):
        tables = _LINE_TABLES[layout] = LineTables(layout)
    return tables
