"""The reference backend: the historical pure-Python loops, verbatim.

Every method here is the loop the call sites ran before the kernel
interface existed (transient scatter from ``TransientFaultInjector``,
burst folding from ``BurstFaultInjector``, ``xor_reduce`` parity folds,
scalar ``codec.decode``, and line checks read off that decode).  This
backend *is* the specification the numpy backend must match bit for
bit; keep it boring.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.coding.parity import xor_reduce
from repro.kernels.interface import KernelBackend, check_code


class ReferenceBackend(KernelBackend):
    """Pure-Python bulk operations (the pre-kernel behaviour)."""

    name = "reference"
    batched = False

    def scatter_fault_vectors(
        self, flat: np.ndarray, line_bits: int
    ) -> Dict[int, int]:
        vectors: Dict[int, int] = {}
        for index in flat:
            line_index, bit_position = divmod(int(index), line_bits)
            vectors[line_index] = vectors.get(line_index, 0) | (1 << bit_position)
        return vectors

    def fold_line_masks(
        self, events: Iterable[Tuple[int, int]], num_lines: int
    ) -> Dict[int, int]:
        vectors: Dict[int, int] = {}
        for line_index, mask in events:
            if line_index >= num_lines:
                continue
            vectors[line_index] = vectors.get(line_index, 0) | mask
        return vectors

    def xor_fold(self, words: Sequence[int], line_bits: int) -> int:
        return xor_reduce(words)

    def batch_check(self, codec, words: Sequence[int]) -> Optional[List[int]]:
        codes = [check_code(codec.decode(word), word) for word in words]
        return None if None in codes else codes

    def batch_decode(self, codec, words: Sequence[int]) -> List[object]:
        return [codec.decode(word) for word in words]

    def batch_decode_clean(self, codec, words: Sequence[int]) -> List[object]:
        # The clean promise buys nothing scalar-side; decode as usual.
        return [codec.decode(word) for word in words]
