"""RAID-Group scanning and RAID-4 reconstruction (section III-C).

A *scan* reads every member of a RAID-Group, repairs the single-bit-fault
lines with the per-line ECC-1 (writing the fixes back), and partitions
the group into healthy and uncorrectable lines.  *Reconstruction* then
rebuilds exactly one uncorrectable line as the XOR of the stored parity
with every other (now healthy) member -- the classic RAID-4 recovery,
validated here by the rebuilt line's CRC before it is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.coding.parity import xor_reduce
from repro.core.linecodec import DecodeStatus, LineCodec, LineDecode
from repro.core.outcomes import Outcome
from repro.core.plt_ import ParityLineTable
from repro.sttram.array import STTRAMArray


@dataclass
class GroupScan:
    """State of a RAID-Group after line-level repair.

    ``words`` holds the current stored word of every member: post-ECC-1
    for repaired lines, the raw (faulty) word for uncorrectable ones --
    exactly the mixture the paper prescribes for computing parity
    mismatches (section IV-B).
    """

    group: int
    frames: List[int]
    words: Dict[int, int]
    uncorrectable: List[int]
    line_outcomes: Dict[int, Outcome] = field(default_factory=dict)

    def member_words_except(self, excluded_frame: int) -> List[int]:
        """Words of every member except one (the RAID-4 donor set)."""
        return [
            self.words[frame] for frame in self.frames if frame != excluded_frame
        ]

    def xor_of_words(self) -> int:
        """XOR over all current member words."""
        return xor_reduce(self.words[frame] for frame in self.frames)


def scan_group(
    array: STTRAMArray,
    codec: LineCodec,
    group: int,
    frames: Sequence[int],
    trusted_clean: bool = False,
    decoder: Optional[Callable[[int, int], LineDecode]] = None,
) -> GroupScan:
    """Read a whole group, fix single-bit faults, classify the rest.

    ECC-1 repairs are written back to the array immediately (the scrub
    write-back); uncorrectable lines are left untouched for the
    group-level machinery.

    With ``trusted_clean=True`` the scan consults the array's dirty-frame
    index and skips the decode of frames whose stored word matches
    golden: such a frame is a valid codeword (everything written goes
    through the codec), so the decode would classify it ``CLEAN`` and
    contribute its stored word unchanged -- the scan result is identical.
    The SuDoku engines' group scans and the rare-event simulator's sparse
    trials both take this path; a sparse group scan then decodes only its
    dirty members.

    ``decoder``, when given, replaces ``codec.decode``: it is called as
    ``decoder(frame, stored)`` and must return the ``LineDecode`` the
    codec would produce for that stored word.  This is how the engines
    feed batched (kernel-backend) decodes into the scan without changing
    any decision logic here.
    """
    words: Dict[int, int] = {}
    uncorrectable: List[int] = []
    outcomes: Dict[int, Outcome] = {}
    for frame in frames:
        stored = array.read(frame)
        if trusted_clean and not array.is_dirty(frame):
            words[frame] = stored
            continue
        decode = decoder(frame, stored) if decoder is not None else codec.decode(stored)
        if decode.status is DecodeStatus.CLEAN:
            words[frame] = stored
        elif decode.status is DecodeStatus.CORRECTED:
            array.restore(frame, decode.word)
            words[frame] = decode.word
            outcomes[frame] = Outcome.CORRECTED_ECC1
        else:
            words[frame] = stored
            uncorrectable.append(frame)
    return GroupScan(
        group=group,
        frames=list(frames),
        words=words,
        uncorrectable=uncorrectable,
        line_outcomes=outcomes,
    )


def reconstruct_line(
    array: STTRAMArray,
    codec: LineCodec,
    plt: ParityLineTable,
    scan: GroupScan,
    target_frame: int,
) -> Optional[int]:
    """RAID-4 recovery of one line from parity + the other members.

    Returns the reconstructed stored word on success (already written
    back), or ``None`` when the rebuilt word fails its CRC -- which means
    some *other* member of the group is still corrupt and recovery is not
    safe.
    """
    if target_frame not in scan.words:
        raise ValueError("target frame is not a member of the scanned group")
    candidate = plt.parity(scan.group) ^ xor_reduce(
        scan.member_words_except(target_frame)
    )
    decode = codec.decode(candidate)
    if decode.status is not DecodeStatus.CLEAN:
        return None
    array.restore(target_frame, candidate)
    scan.words[target_frame] = candidate
    if target_frame in scan.uncorrectable:
        scan.uncorrectable.remove(target_frame)
    scan.line_outcomes[target_frame] = Outcome.CORRECTED_RAID4
    return candidate
