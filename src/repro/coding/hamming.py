"""Hamming single-error-correcting codes: the paper's per-line "ECC-1".

SuDoku provisions each 64-byte line with an ECC-1 capable of correcting
one bit anywhere in the protected word.  Per section III-E the ECC is
computed over data *and* CRC (543 bits), which needs 10 check bits -- the
"10 bits per line" the paper budgets.

The implementation uses the classic positional construction: codeword
positions are numbered 1..n, positions that are powers of two hold check
bits, and the syndrome of a corrupted word is the (1-based) position of a
single flipped bit.  Check bits and syndromes are r masked parities
(popcounts) of the word.  The k data bits fill the gaps between the
power-of-two check positions, so they occupy at most r - 1 contiguous
runs of the codeword (9 for the paper's k = 543); scattering data into a
codeword and gathering it back out is one shift and one mask per run,
never a per-bit loop.

:class:`HammingSECDED` extends the code with an overall parity bit, which
distinguishes single errors (correctable) from double errors (detectable
but uncorrectable) -- used by the ECC-baseline studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.coding.bitvec import mask_of, masked_parities, popcount


def check_bits_needed(data_bits: int) -> int:
    """Minimum r with 2^r >= data_bits + r + 1 (Hamming bound for SEC)."""
    if data_bits <= 0:
        raise ValueError("data_bits must be positive")
    r = 1
    while (1 << r) < data_bits + r + 1:
        r += 1
    return r


@dataclass(frozen=True)
class SECResult:
    """Outcome of a single-error-correcting decode.

    ``corrected_word`` is the (possibly repaired) codeword, ``data`` the
    extracted payload.  ``flipped_position`` is the 0-based codeword bit the
    decoder flipped, or ``None`` if the syndrome was clean.  ``valid`` is
    False only when the syndrome pointed outside the codeword -- a
    detectable malfunction that can only arise from multi-bit corruption.
    """

    corrected_word: int
    data: int
    flipped_position: Optional[int]
    valid: bool


class HammingSEC:
    """Systematic Hamming single-error-correcting code for ``data_bits``."""

    def __init__(self, data_bits: int) -> None:
        if data_bits <= 0:
            raise ValueError("data_bits must be positive")
        self.k = data_bits
        self.r = check_bits_needed(data_bits)
        self.n = self.k + self.r

        # Positions 1..n; powers of two are check positions.
        self._check_positions = [1 << j for j in range(self.r)]
        check_set = set(self._check_positions)
        self._data_positions = [
            position for position in range(1, self.n + 1)
            if position not in check_set
        ]
        assert len(self._data_positions) == self.k

        # Data bit i lives at codeword bit (data_positions[i] - 1).
        self._data_cw_shift = [position - 1 for position in self._data_positions]

        # The same map as contiguous runs: (data_mask, shift) sends the
        # data bits selected by data_mask to codeword bits ``shift``
        # higher.  A data bit's shift is the number of check positions
        # below it, so equal shifts form one contiguous run per gap
        # between check positions.
        run_masks: Dict[int, int] = {}
        for data_index, cw_bit in enumerate(self._data_cw_shift):
            shift = cw_bit - data_index
            run_masks[shift] = run_masks.get(shift, 0) | (1 << data_index)
        self._runs: List[Tuple[int, int]] = [
            (run_mask, shift) for shift, run_mask in run_masks.items()
        ]

        # Parity masks over the *codeword*: bit j of the syndrome is the
        # parity of (codeword & syndrome_mask[j]), where syndrome_mask[j]
        # selects every codeword bit whose 1-based position has bit j set.
        self._syndrome_masks: List[int] = []
        for j in range(self.r):
            mask = 0
            for position in range(1, self.n + 1):
                if position & (1 << j):
                    mask |= 1 << (position - 1)
            self._syndrome_masks.append(mask)

        # Parity masks over the *data word* for encoding: check bit j is
        # the parity of data bits whose codeword position has bit j set.
        self._encode_masks: List[int] = []
        for j in range(self.r):
            mask = 0
            for data_index, position in enumerate(self._data_positions):
                if position & (1 << j):
                    mask |= 1 << data_index
            self._encode_masks.append(mask)

    # -- encoding -----------------------------------------------------------

    def encode(self, data: int) -> int:
        """Encode ``data`` (k bits) into an n-bit codeword."""
        if data < 0 or data >> self.k:
            raise ValueError(f"data does not fit in {self.k} bits")
        codeword = self._scatter(data)
        checks = masked_parities(data, self._encode_masks)
        for j, position in enumerate(self._check_positions):
            if (checks >> j) & 1:
                codeword |= 1 << (position - 1)
        return codeword

    def _scatter(self, data: int) -> int:
        codeword = 0
        for run_mask, shift in self._runs:
            codeword |= (data & run_mask) << shift
        return codeword

    def extract_data(self, codeword: int) -> int:
        """Gather the k data bits out of an n-bit codeword."""
        if codeword < 0 or codeword >> self.n:
            raise ValueError(f"codeword does not fit in {self.n} bits")
        data = 0
        for run_mask, shift in self._runs:
            data |= (codeword >> shift) & run_mask
        return data

    # -- decoding -----------------------------------------------------------

    def syndrome(self, codeword: int) -> int:
        """Syndrome of a codeword: 0 if clean, else a 1-based bit position.

        With more than one flipped bit the syndrome is the XOR of the
        flipped positions -- generally pointing at an *innocent* bit, which
        is exactly the ECC-1 miscorrection behaviour the paper's CRC check
        exists to catch.
        """
        if codeword < 0 or codeword >> self.n:
            raise ValueError(f"codeword does not fit in {self.n} bits")
        return masked_parities(codeword, self._syndrome_masks)

    def error_position(self, syndrome: int) -> Optional[int]:
        """The codeword bit a single-bit error with ``syndrome`` flipped.

        ``None`` for syndrome 0 (no error) and for a syndrome beyond the
        codeword, which no single-bit error can produce.
        """
        if 0 < syndrome <= self.n:
            return syndrome - 1
        return None

    def correct(self, codeword: int) -> SECResult:
        """Attempt single-error correction of ``codeword``."""
        syndrome = self.syndrome(codeword)
        position = self.error_position(syndrome)
        if position is None:
            # A syndrome beyond the codeword is a malfunction: leave the
            # word untouched and flag it.
            return SECResult(
                codeword, self.extract_data(codeword), None, syndrome == 0
            )
        corrected = codeword ^ (1 << position)
        return SECResult(corrected, self.extract_data(corrected), position, True)

    def decode(self, codeword: int) -> int:
        """Convenience: correct then return the data payload."""
        return self.correct(codeword).data

    @property
    def codeword_mask(self) -> int:
        """All-ones mask of codeword width."""
        return mask_of(self.n)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HammingSEC(k={self.k}, r={self.r}, n={self.n})"


@dataclass(frozen=True)
class SECDEDResult:
    """Outcome of a SEC-DED decode."""

    corrected_word: int
    data: int
    flipped_position: Optional[int]
    double_error_detected: bool


class HammingSECDED:
    """Extended Hamming code: SEC plus double-error detection.

    The inner SEC codeword is augmented with one overall parity bit stored
    at codeword bit ``n`` (the top).  Decoding rules follow the classic
    extended-Hamming truth table:

    * syndrome 0, overall parity OK      -> clean
    * syndrome != 0, overall parity BAD  -> single error, correct it
    * syndrome != 0, overall parity OK   -> double error, flag DED
    * syndrome 0, overall parity BAD     -> error in the parity bit itself
    """

    def __init__(self, data_bits: int) -> None:
        self._sec = HammingSEC(data_bits)
        self.k = self._sec.k
        self.r = self._sec.r + 1
        self.n = self._sec.n + 1

    def encode(self, data: int) -> int:
        inner = self._sec.encode(data)
        overall = popcount(inner) & 1
        return inner | (overall << self._sec.n)

    def extract_data(self, codeword: int) -> int:
        return self._sec.extract_data(codeword & self._sec.codeword_mask)

    def correct(self, codeword: int) -> SECDEDResult:
        if codeword < 0 or codeword >> self.n:
            raise ValueError(f"codeword does not fit in {self.n} bits")
        inner = codeword & self._sec.codeword_mask
        stored_overall = (codeword >> self._sec.n) & 1
        parity_bad = (popcount(inner) & 1) != stored_overall
        syndrome = self._sec.syndrome(inner)

        if syndrome == 0 and not parity_bad:
            return SECDEDResult(codeword, self.extract_data(codeword), None, False)
        if syndrome == 0 and parity_bad:
            # The overall parity bit itself flipped; repair it.
            corrected = inner | ((stored_overall ^ 1) << self._sec.n)
            return SECDEDResult(corrected, self._sec.extract_data(inner), self._sec.n, False)
        if parity_bad:
            # Odd number of errors; treat as single and correct.
            position = self._sec.error_position(syndrome)
            if position is None:
                return SECDEDResult(codeword, self.extract_data(codeword), None, True)
            fixed_inner = inner ^ (1 << position)
            corrected = fixed_inner | (stored_overall << self._sec.n)
            return SECDEDResult(
                corrected, self._sec.extract_data(fixed_inner), position, False
            )
        # Non-zero syndrome with good overall parity: double error.
        return SECDEDResult(codeword, self.extract_data(codeword), None, True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HammingSECDED(k={self.k}, r={self.r}, n={self.n})"
