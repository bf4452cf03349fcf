"""The kernel backend interface.

A :class:`KernelBackend` supplies the per-group *bulk* operations the
engines, injectors, and codecs would otherwise run as per-line Python
loops: fault-vector scatter, burst mask folding, XOR parity folds,
and batched syndrome/CRC line decodes.

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

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


class KernelBackend:
    """Bulk-operation provider; see :mod:`repro.kernels` for the registry."""

    #: Registry name ("reference" or "numpy").
    name = "abstract"
    #: True when ``batch_decode`` is genuinely vectorised -- callers use
    #: this to decide whether prefetching whole groups is worthwhile.
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

    # -- line decodes --------------------------------------------------------------

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
