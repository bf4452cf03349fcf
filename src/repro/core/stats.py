"""Correction statistics and the latency model of section VII-B.

The engines account every outcome and every group-level mechanism
invocation here.  :class:`LatencyModel` turns those counts into time:
RAID-based correction must read the whole group (512 lines x 9 ns = ~4.6 us
per repair; the paper budgets 16 us per 20 ms for the expected four
repairs), SDR adds a handful of trial decodes, and the second hash of
SuDoku-Z multiplies the group reads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

from repro.core.outcomes import Outcome


@dataclass
class CorrectionStats:
    """Counters maintained by a SuDoku engine: its only tallies.

    Telemetry restates them when a campaign ends
    (:func:`repro.reliability.tallies.publish_tallies`).
    ``ecc1_repairs`` counts lines the scrub repaired by ECC-1 alone (not
    those a group scan fixed); ``metadata_faults`` counts parity entries
    found corrupt, by how: ``crc_fault`` (the entry failed its CRC) or
    ``recompute_mismatch`` (it disagreed with its clean members).
    """

    outcomes: Counter = field(default_factory=Counter)
    ecc1_repairs: int = 0
    raid4_invocations: int = 0
    sdr_invocations: int = 0
    sdr_trials: int = 0
    hash2_invocations: int = 0
    group_scans: int = 0
    lines_scanned: int = 0
    writes: int = 0
    reads: int = 0
    parity_rebuilds: int = 0
    metadata_faults: Counter = field(default_factory=Counter)
    metadata_rebuilds: int = 0
    metadata_quarantines: int = 0

    def record(self, outcome: Outcome) -> None:
        """Count one line outcome."""
        self.outcomes[outcome.value] += 1

    def count(self, outcome: Outcome) -> int:
        """How many lines resolved to ``outcome``."""
        return self.outcomes.get(outcome.value, 0)

    def count_label(self, label: str) -> int:
        """How many lines resolved to the given outcome label."""
        return self.outcomes.get(label, 0)

    @property
    def metadata_faults_detected(self) -> int:
        """Metadata faults detected, of every kind."""
        return sum(self.metadata_faults.values())

    @property
    def failures(self) -> int:
        """Total DUE + METADATA_DUE + SDC lines."""
        return (
            self.count(Outcome.DUE)
            + self.count(Outcome.METADATA_DUE)
            + self.count(Outcome.SDC)
        )

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict snapshot for reports."""
        snapshot = dict(self.outcomes)
        snapshot.update(
            ecc1_repairs=self.ecc1_repairs,
            raid4_invocations=self.raid4_invocations,
            sdr_invocations=self.sdr_invocations,
            sdr_trials=self.sdr_trials,
            hash2_invocations=self.hash2_invocations,
            group_scans=self.group_scans,
            lines_scanned=self.lines_scanned,
            writes=self.writes,
            reads=self.reads,
            parity_rebuilds=self.parity_rebuilds,
            metadata_faults_detected=self.metadata_faults_detected,
            metadata_crc_faults=self.metadata_faults["crc_fault"],
            metadata_recompute_mismatches=self.metadata_faults["recompute_mismatch"],
            metadata_rebuilds=self.metadata_rebuilds,
            metadata_quarantines=self.metadata_quarantines,
        )
        return snapshot


@dataclass(frozen=True)
class LatencyModel:
    """Latency accounting for correction events (paper section VII-B).

    :param read_s: STTRAM line read latency (9 ns).
    :param write_s: STTRAM line write latency (18 ns).
    :param cycle_s: controller cycle for syndrome checks / SDR trials
        (3.2 GHz core clock).
    """

    read_s: float = 9e-9
    write_s: float = 18e-9
    cycle_s: float = 1.0 / 3.2e9

    def syndrome_check(self) -> float:
        """The 1-cycle CRC/ECC syndrome check added to every access."""
        return self.cycle_s

    def ecc1_repair(self) -> float:
        """Single-bit repair: table-lookup decode plus the write-back."""
        return self.cycle_s + self.write_s

    def raid4_repair(self, group_size: int) -> float:
        """Read the whole group, XOR, write one line back.

        ~4.6 us for 512-line groups, matching the paper's "approximately
        4 us per repair" (section III-D).
        """
        return group_size * self.read_s + self.write_s

    def sdr_repair(self, group_size: int, trials: int) -> float:
        """Group read plus the trial-and-error decodes of SDR."""
        return group_size * self.read_s + trials * self.cycle_s + self.write_s

    def hash2_repair(self, group_size: int, groups_read: int) -> float:
        """SuDoku-Z repair reading the Hash-1 group plus extra Hash-2 groups."""
        return (1 + groups_read) * group_size * self.read_s + self.write_s

    def scrub_pass(self, num_lines: int) -> float:
        """Fault-free scrub pass: one read per line."""
        return num_lines * self.read_s
