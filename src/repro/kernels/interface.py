"""The kernel backend interface.

A :class:`KernelBackend` supplies the per-group *bulk* operations the
engines, injectors, and codecs would otherwise run as per-line Python
loops: fault-vector scatter, burst mask folding, XOR parity folds,
batched syndrome/CRC line checks, and the line decodes built on them.

The contract every backend must honour is **bit-identity**: for the
same inputs, every operation returns exactly what the reference
(pure-Python) implementation returns -- same values, same dict
insertion order, same ``LineDecode`` fields.  Backends are pure
compute; they never touch an RNG, so routing through a different
backend cannot perturb a campaign's random stream.  The equivalence
suite (``tests/kernels``) pins this across every scheme and fault
model; see docs/kernels.md.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.linecodec import DecodeStatus, LineDecode

#: :meth:`KernelBackend.batch_check` code of a word that decodes CLEAN.
CHECK_CLEAN = -1
#: :meth:`KernelBackend.batch_check` code of an UNCORRECTABLE word.
CHECK_UNCORRECTABLE = -2


def check_code(decode: LineDecode, word: int) -> Optional[int]:
    """The :meth:`KernelBackend.batch_check` code of ``word``'s decode.

    None when the decode is a repair that is not the single flip of bit
    ``flipped_position`` (a multi-bit correcting codec's), which no code
    describes.
    """
    if decode.status is DecodeStatus.CLEAN:
        return CHECK_CLEAN
    if decode.status is DecodeStatus.UNCORRECTABLE:
        return CHECK_UNCORRECTABLE
    position = decode.flipped_position
    if position is None or decode.word != word ^ (1 << position):
        return None
    return position


def decode_from_check(codec, word: int, code: int) -> LineDecode:
    """Rebuild ``codec.decode(word)`` from the word's check code.

    A clean word keeps its bits; an ECC-1 word flips bit ``code``; either
    way the payload is ``codec.extract_data`` of the resulting word, as
    :meth:`repro.core.linecodec.LineCodec.decode` returns it.
    """
    if code == CHECK_CLEAN:
        return LineDecode(DecodeStatus.CLEAN, word, codec.extract_data(word))
    if code == CHECK_UNCORRECTABLE:
        return LineDecode(DecodeStatus.UNCORRECTABLE, word, None)
    fixed = word ^ (1 << code)
    return LineDecode(
        DecodeStatus.CORRECTED, fixed, codec.extract_data(fixed), code
    )


class KernelBackend:
    """Bulk-operation provider; see :mod:`repro.kernels` for the registry."""

    #: Registry name ("reference" or "numpy").
    name = "abstract"
    #: True when ``batch_check``/``batch_decode`` are genuinely
    #: vectorised -- callers use this to decide whether classifying or
    #: prefetching whole groups is worthwhile.
    batched = False

    # -- fault-vector construction ------------------------------------------------

    def scatter_fault_vectors(
        self, flat: np.ndarray, line_bits: int
    ) -> Dict[int, int]:
        """Flat bit indices -> ``{line_index: error_mask}``.

        ``flat`` holds distinct indices into the ``num_lines * line_bits``
        bit population (the transient injector's binomial scatter).  The
        returned dict preserves first-occurrence order of ``flat``.
        """
        raise NotImplementedError

    def fold_line_masks(
        self, events: Iterable[Tuple[int, int]], num_lines: int
    ) -> Dict[int, int]:
        """(line_index, mask) events -> OR-folded per-line error masks.

        Events at or past ``num_lines`` are clipped (array-edge bursts).
        Insertion order of the returned dict is first-occurrence order
        of the surviving events.
        """
        raise NotImplementedError

    # -- parity folds --------------------------------------------------------------

    def xor_fold(self, words: Sequence[int], line_bits: int) -> int:
        """XOR of all words -- the RAID-4 group parity fold."""
        raise NotImplementedError

    # -- line checks and decodes ---------------------------------------------------

    def batch_check(self, codec, words: Sequence[int]) -> Optional[List[int]]:
        """Classify many stored words without building their decodes.

        Element i is :data:`CHECK_CLEAN` when ``codec.decode(words[i])``
        is CLEAN, :data:`CHECK_UNCORRECTABLE` when it is UNCORRECTABLE,
        and otherwise its ``flipped_position`` ``p >= 0``: ECC-1 repairs
        the word to ``words[i] ^ (1 << p)``.  :func:`decode_from_check`
        turns a code back into the decode.

        None is always an allowed answer: the backend does not classify
        this codec's words (a codec whose repairs may flip more than one
        bit, or one its kernels do not accept), and the caller decodes
        them instead.  A list must equal the reference backend's.
        """
        raise NotImplementedError

    def batch_decode(self, codec, words: Sequence[int]) -> List[object]:
        """Decode many stored words; element i is ``codec.decode(words[i])``.

        Backends may only accelerate codecs they can prove bit-identical
        decode semantics for; anything else must fall back to the scalar
        ``codec.decode`` per word.
        """
        raise NotImplementedError

    def batch_decode_clean(self, codec, words: Sequence[int]) -> List[object]:
        """Decode words the caller guarantees are valid clean codewords.

        The contract is the same as :meth:`batch_decode` -- element i
        must equal ``codec.decode(words[i])`` exactly -- but the caller
        promises every word decodes ``CLEAN`` (e.g. its stored copy
        still matches golden, and everything written went through the
        codec).  Backends may exploit the promise to skip the
        syndrome/CRC machinery and only extract the payload.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<KernelBackend {self.name}>"
