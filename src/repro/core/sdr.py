"""Sequential Data Resurrection (section IV).

RAID-4 alone cannot recover a group with two or more faulty lines.  SDR
exploits the fact that the "failed units" are lines with only a *few*
faulty bits: the group's parity mismatch enumerates candidate faulty-bit
positions, and a line with two faults becomes ECC-1-correctable the
moment one of its faults is flipped away.  For every uncorrectable line,
SDR flips each mismatch position in turn, applies ECC-1, and accepts the
result iff the line's CRC endorses it.

The loop recomputes the mismatch after every successful resurrection
(each repaired line removes its fault positions from the mismatch,
shrinking the search for the remaining lines) and stops when a pass makes
no progress.  Per the paper, SDR is not attempted when the mismatch has
more than ``max_mismatches`` (default six) candidate positions.

Each trial flips one position and runs the line decode.  For the stock
codec the search runs by linearity instead (:meth:`LineTables.search
<repro.core.linecodec.LineTables.search>`): a line's check vector is
computed once and each candidate costs one XOR and one lookup, with the
same trial count and repaired word as the per-position
:meth:`~repro.core.linecodec.LineCodec.try_flip_and_repair` loop, which
every other codec still takes (:func:`flip_search`).

If SDR leaves exactly one line unrepaired, the caller finishes it with
plain RAID-4 reconstruction -- "if we correct even N-1 faulty lines out
of the N faulty lines ... we correct the final uncorrectable line using
the RAID-4 based correction" (section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.coding.bitvec import bit_positions
from repro.core.linecodec import LineCodec, line_tables
from repro.core.outcomes import Outcome
from repro.core.plt_ import ParityLineTable
from repro.core.raid4 import GroupScan
from repro.sttram.array import STTRAMArray


@dataclass
class SDRReport:
    """Accounting of one SDR invocation (feeds the latency model).

    ``mismatch_positions`` is the *initial* parity-mismatch width -- the
    candidate count that sizes the flip-and-check search and the
    ``max_mismatches`` give-up test.  (It was previously overwritten on
    every while-round, silently recording the final, smallest width
    instead.)  ``peak_mismatch_positions`` is the largest width seen
    across rounds (equal to the initial width unless a CRC-endorsed
    miscorrection *grew* the mismatch), and ``mismatch_history`` records
    the width at the top of each round for diagnostics.
    """

    resurrected_frames: List[int]
    trials: int = 0
    mismatch_positions: int = 0
    peak_mismatch_positions: int = 0
    mismatch_history: List[int] = field(default_factory=list)
    gave_up_too_many_mismatches: bool = False


def resurrect(
    array: STTRAMArray,
    codec: LineCodec,
    plt: ParityLineTable,
    scan: GroupScan,
    max_mismatches: int = 6,
) -> SDRReport:
    """Run SDR over a scanned group, repairing what it can in place.

    Mutates ``scan``: resurrected frames move out of
    ``scan.uncorrectable``, their words are updated, and their outcome is
    recorded as :data:`Outcome.CORRECTED_SDR`.  Whatever remains in
    ``scan.uncorrectable`` is the caller's problem (final RAID-4 pass, the
    second hash, or a DUE).
    """
    report = SDRReport(resurrected_frames=[])
    while scan.uncorrectable:
        mismatch = plt.mismatch(scan.group, scan.parity_terms())
        positions = bit_positions(mismatch)
        width = len(positions)
        report.mismatch_history.append(width)
        if len(report.mismatch_history) == 1:
            report.mismatch_positions = width
        report.peak_mismatch_positions = max(
            report.peak_mismatch_positions, width
        )
        if not positions:
            # Perfectly overlapping faults leave no trace in the parity
            # (Fig. 3c); SDR has nothing to enumerate.
            break
        if len(positions) > max_mismatches:
            report.gave_up_too_many_mismatches = True
            break

        progressed = False
        for frame in list(scan.uncorrectable):
            trials, repaired = flip_search(codec, scan.words[frame], positions)
            report.trials += trials
            if repaired is None:
                continue
            array.restore(frame, repaired)
            scan.words[frame] = repaired
            scan.uncorrectable.remove(frame)
            scan.line_outcomes[frame] = Outcome.CORRECTED_SDR
            report.resurrected_frames.append(frame)
            progressed = True
        if not progressed:
            break
        # A resurrection changes the group XOR; re-derive the mismatch so
        # the next line searches only the still-unexplained positions.
    return report


def flip_search(
    codec: LineCodec, word: int, positions: Sequence[int]
) -> Tuple[int, Optional[int]]:
    """SDR's search of one line: ``(trials, repaired word or None)``.

    ``codec.try_flip_and_repair`` on each position in turn, stopping at
    the first success.  A codec with :func:`line_tables` runs the same
    search on them by linearity, with the same answer.
    """
    tables = line_tables(codec)
    if tables is not None:
        return tables.search(word, positions)
    for trial, position in enumerate(positions, 1):
        repaired = codec.try_flip_and_repair(word, position)
        if repaired is not None:
            return trial, repaired
    return len(positions), None
