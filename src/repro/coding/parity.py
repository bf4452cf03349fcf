"""XOR parity: the one fold every RAID-style region scheme shares.

RAID-4 over cache lines reduces to integer XOR: the parity line of a
RAID-Group is the XOR of every member line, and reconstructing one missing
member is the XOR of the parity with every *other* member.
:func:`xor_reduce` is that fold; SuDoku's RAID-4 group repair, the
reference kernel backend's parity fold, and the CPPC and RAID-6
baselines call it.
"""

from __future__ import annotations

from typing import Iterable


def xor_reduce(values: Iterable[int]) -> int:
    """XOR of all values in the iterable (0 for an empty iterable)."""
    result = 0
    for value in values:
        result ^= value
    return result
