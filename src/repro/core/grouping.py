"""RAID-Group hash functions.

SuDoku-X/Y use one partition of the cache's physical frames into
RAID-Groups (Hash-1: consecutive runs of ``group_size`` frames).
SuDoku-Z adds a second, *skewed* partition (Hash-2) with the guarantee
that no two frames share a group under both hashes -- the property that
makes retrying a failed group under the other hash effective (section V-A).

With ``g = log2(group_size)``, the paper's construction is:

* Hash-1 group id: drop frame bits ``[0, g)``  (consecutive frames group).
* Hash-2 group id: drop frame bits ``[g, 2g)`` (frames striding 2^g group).

Two frames in the same Hash-1 group differ only in bits ``[0, g)``; those
bits are *part of* the Hash-2 group id, so the frames necessarily land in
different Hash-2 groups -- and symmetrically.  The construction needs at
least ``2^(2g)`` frames, which holds for every configuration studied
(paper default: 2^20 frames, g = 9).
"""

from __future__ import annotations

from typing import List

import numpy as np


class GroupMapper:
    """Single-hash partition of frames into consecutive RAID-Groups."""

    def __init__(self, num_frames: int, group_size: int) -> None:
        _validate(num_frames, group_size)
        self.num_frames = num_frames
        self.group_size = group_size
        self._shift = group_size.bit_length() - 1

    @property
    def num_groups(self) -> int:
        """Total RAID-Groups in the partition."""
        return self.num_frames // self.group_size

    def group_of(self, frame: int) -> int:
        """Group id of a physical frame."""
        self._check(frame)
        return frame >> self._shift

    def groups_of(self, frames: np.ndarray) -> np.ndarray:
        """Group id of each frame of an integer array (unchecked)."""
        return frames >> self._shift

    def members(self, group: int) -> List[int]:
        """Frames belonging to a group, ascending."""
        if not 0 <= group < self.num_groups:
            raise ValueError("group id out of range")
        base = group << self._shift
        return list(range(base, base + self.group_size))

    def _check(self, frame: int) -> None:
        if not 0 <= frame < self.num_frames:
            raise IndexError(f"frame {frame} out of range")


class SkewedGroupMapper:
    """The Hash-2 partition: frames striding ``group_size`` share a group.

    Group id construction: remove bits ``[g, 2g)`` from the frame index
    and concatenate the remainder.  Members of a group enumerate all
    values of the removed bits.
    """

    def __init__(self, num_frames: int, group_size: int) -> None:
        _validate(num_frames, group_size)
        g = group_size.bit_length() - 1
        if num_frames < group_size * group_size:
            raise ValueError(
                "skewed hashing needs at least group_size^2 frames "
                f"({group_size * group_size}), got {num_frames}"
            )
        self.num_frames = num_frames
        self.group_size = group_size
        self._g = g
        self._low_mask = group_size - 1

    @property
    def num_groups(self) -> int:
        """Total RAID-Groups in the partition."""
        return self.num_frames // self.group_size

    def group_of(self, frame: int) -> int:
        """Group id of a physical frame."""
        if not 0 <= frame < self.num_frames:
            raise IndexError(f"frame {frame} out of range")
        low = frame & self._low_mask
        high = frame >> (2 * self._g)
        return low | (high << self._g)

    def groups_of(self, frames: np.ndarray) -> np.ndarray:
        """Group id of each frame of an integer array (unchecked)."""
        low = frames & self._low_mask
        high = frames >> (2 * self._g)
        return low | (high << self._g)

    def members(self, group: int) -> List[int]:
        """Frames belonging to a group, ascending."""
        if not 0 <= group < self.num_groups:
            raise ValueError("group id out of range")
        low = group & self._low_mask
        high = group >> self._g
        base = low | (high << (2 * self._g))
        return [base | (middle << self._g) for middle in range(self.group_size)]


def never_colocated(
    hash1: GroupMapper, hash2: SkewedGroupMapper, frame_a: int, frame_b: int
) -> bool:
    """Check the skewing invariant for a pair of distinct frames.

    Returns True when the pair does *not* share a group under both hashes
    -- the property section V-A requires.  Exposed for property-based
    testing.
    """
    if frame_a == frame_b:
        raise ValueError("frames must be distinct")
    same1 = hash1.group_of(frame_a) == hash1.group_of(frame_b)
    same2 = hash2.group_of(frame_a) == hash2.group_of(frame_b)
    return not (same1 and same2)


def _validate(num_frames: int, group_size: int) -> None:
    if group_size <= 1 or group_size & (group_size - 1):
        raise ValueError("group size must be a power of two greater than one")
    if num_frames <= 0 or num_frames % group_size:
        raise ValueError("group size must tile the frame count")
