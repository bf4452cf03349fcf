"""RAID-Group scanning and RAID-4 reconstruction (section III-C).

A *scan* covers every member of a RAID-Group, repairs the single-bit-fault
lines with the per-line ECC-1 (writing the fixes back), and partitions
the group into healthy and uncorrectable lines.  *Reconstruction* then
rebuilds exactly one uncorrectable line as the XOR of the stored parity
with every other (now healthy) member -- the classic RAID-4 recovery,
validated here by the rebuilt line's CRC before it is accepted.

Every group-level operation consumes the members' words only through
their XOR (parity mismatch, parity rebuild, RAID-4 donor fold), and a
member whose stored word matches golden needs no repair.  A trusted
scan therefore keeps the words of its dirty members only and folds the
clean ones into one ``clean_xor``, taken from the array's index without
reading them (:meth:`repro.sttram.array.STTRAMArray.split_clean`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.coding.parity import xor_reduce
from repro.core.linecodec import DecodeStatus, LineCodec, LineDecode
from repro.core.outcomes import Outcome
from repro.core.plt_ import ParityLineTable
from repro.sttram.array import STTRAMArray


@dataclass
class GroupScan:
    """State of a RAID-Group after line-level repair.

    ``frames`` lists every member.  ``words`` holds the current stored
    word of each *tracked* member: post-ECC-1 for repaired lines, the
    raw (faulty) word for uncorrectable ones -- exactly the mixture the
    paper prescribes for computing parity mismatches (section IV-B).
    ``clean_xor`` is the XOR of the stored words of every untracked
    member.  A trusted scan tracks its dirty members; a dense scan
    tracks every member, with ``clean_xor`` 0.
    """

    group: int
    frames: List[int]
    words: Dict[int, int]
    uncorrectable: List[int]
    line_outcomes: Dict[int, Outcome] = field(default_factory=dict)
    clean_xor: int = 0

    def parity_terms(self) -> List[int]:
        """``clean_xor`` and each tracked word: the XOR terms of the group.

        This is what the parity table folds for a mismatch or a rebuild.
        """
        return [self.clean_xor, *self.words.values()]

    def xor_of_words(self) -> int:
        """XOR over all current member words."""
        return xor_reduce(self.parity_terms())


def scan_group(
    array: STTRAMArray,
    codec: LineCodec,
    group: int,
    frames: Sequence[int],
    trusted_clean: bool = False,
    decoder: Optional[Callable[[int, int], LineDecode]] = None,
    split: Optional[Tuple[List[int], int]] = None,
) -> GroupScan:
    """Scan a whole group, fix single-bit faults, classify the rest.

    ECC-1 repairs are written back to the array immediately (the scrub
    write-back); uncorrectable lines are left untouched for the
    group-level machinery.

    With ``trusted_clean=True`` the scan consults the array's dirty-frame
    index and neither reads nor decodes a member whose stored word
    matches golden: such a frame is a valid codeword (everything written
    goes through the codec), so the decode would classify it ``CLEAN``
    and contribute its stored word unchanged.  Those members enter the
    scan only through ``clean_xor``
    (:meth:`repro.sttram.array.STTRAMArray.split_clean`), so every group
    operation sees the same XOR as after a dense scan.  ``split``, when
    given, is that ``split_clean(frames)`` result, already taken by the
    caller.  The SuDoku engines' group scans and the rare-event
    simulator's sparse trials both take this path; a sparse group scan
    then costs O(dirty members) in Python.

    ``decoder``, when given, replaces ``codec.decode``: it is called as
    ``decoder(frame, stored)`` and must return the ``LineDecode`` the
    codec would produce for that stored word.  This is how the engines
    feed batched (kernel-backend) decodes into the scan without changing
    any decision logic here.
    """
    if not trusted_clean:
        tracked, clean_xor = frames, 0
    elif split is not None:
        tracked, clean_xor = split
    else:
        tracked, clean_xor = array.split_clean(frames)
    words: Dict[int, int] = {}
    uncorrectable: List[int] = []
    outcomes: Dict[int, Outcome] = {}
    for frame in tracked:
        stored = array.read(frame)
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
        clean_xor=clean_xor,
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
    safe.  An untracked (clean) target is tracked first: its stored word
    moves out of ``clean_xor``, so the donor fold excludes it.
    """
    if target_frame not in scan.words:
        if target_frame not in scan.frames:
            raise ValueError("target frame is not a member of the scanned group")
        stored = array.read(target_frame)
        scan.clean_xor ^= stored
        scan.words[target_frame] = stored
    candidate = plt.parity(scan.group) ^ scan.clean_xor ^ xor_reduce(
        word for frame, word in scan.words.items() if frame != target_frame
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
