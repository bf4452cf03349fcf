"""The periodic scrub engine.

Because STTRAM retention failures are memoryless, the only way to bound
the number of accumulated faults is to periodically *scrub*: read every
line, run error correction, and write back the corrected value (paper
section II-D).  The scrub interval (default 20 ms) bounds the per-bit
error probability each correction must face.

:class:`ScrubEngine` coordinates one scrub pass over an array through a
scheme object implementing :class:`LineScrubber` -- the SuDoku engines and
every baseline satisfy this protocol -- and accounts the outcomes plus the
time the scrub kept the cache busy (used by the performance model).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Protocol, Union

from repro.core.outcomes import (
    Outcome,
    is_corrected_label,
    is_due_label,
    is_failure_label,
)
from repro.kernels import KernelBackend
from repro.sttram.array import STTRAMArray


class LineScrubber(Protocol):
    """Protocol for correction schemes driven by the scrub engine.

    ``scrub_line`` must inspect line ``index``, correct it if possible
    (writing the repaired value back into the array) and return an outcome
    label.  The scrub engine treats labels opaquely apart from the
    conventional values listed in :class:`ScrubReport`.
    """

    def scrub_line(self, index: int) -> str:
        """Check and repair one line; return an outcome label."""
        ...


@dataclass
class ScrubReport:
    """Aggregate of one (or more) scrub passes.

    ``outcomes`` counts the labels returned by the scheme.  Conventional
    labels (see :mod:`repro.core.outcomes`): ``clean``, ``corrected_ecc1``,
    ``corrected_raid4``, ``corrected_sdr``, ``corrected_hash2``, ``due``,
    ``sdc``.
    """

    lines_scrubbed: int = 0
    outcomes: Counter = field(default_factory=Counter)
    busy_time_s: float = 0.0

    def merge(self, other: "ScrubReport") -> None:
        """Fold another report into this one."""
        self.lines_scrubbed += other.lines_scrubbed
        self.outcomes.update(other.outcomes)
        self.busy_time_s += other.busy_time_s

    @property
    def uncorrectable(self) -> int:
        """Detected-uncorrectable lines in this report.

        Counts every DUE-class label through the
        :mod:`repro.core.outcomes` taxonomy -- both ``due`` (data-caused)
        and ``metadata_due`` (a quarantined parity entry refused the
        repair).  Reading only ``due`` here was a real undercounting bug:
        a campaign whose only failures were metadata-caused reported
        ``failed == False``.
        """
        return sum(
            count for label, count in self.outcomes.items()
            if is_due_label(label)
        )

    @property
    def silent_corruptions(self) -> int:
        """Silently miscorrected lines (SDC) in this report."""
        return self.outcomes.get(Outcome.SDC.value, 0)

    @property
    def failures(self) -> int:
        """Total failed lines (any DUE-class outcome or SDC)."""
        return sum(
            count for label, count in self.outcomes.items()
            if is_failure_label(label)
        )

    @property
    def failed(self) -> bool:
        """Did the cache fail this scrub (any DUE, metadata-DUE, or SDC)?

        Agrees with the Monte-Carlo interval failure predicate
        (:mod:`repro.reliability.montecarlo`) by construction: both
        delegate to :func:`repro.core.outcomes.is_failure_label`.
        """
        return self.failures > 0


@dataclass(frozen=True)
class ScrubTiming:
    """Latency parameters for accounting scrub busy time.

    :param line_read_s: array read latency per line (9 ns for the paper's
        STTRAM LLC).
    :param line_write_s: array write latency per line (18 ns).
    """

    line_read_s: float = 9e-9
    line_write_s: float = 18e-9

    def pass_time(self, num_lines: int, corrected_lines: int) -> float:
        """Time for one scrub pass: read every line, rewrite corrected ones."""
        return num_lines * self.line_read_s + corrected_lines * self.line_write_s


class ScrubEngine:
    """Walks an array each interval and drives a correction scheme."""

    def __init__(
        self,
        array: STTRAMArray,
        scheme: LineScrubber,
        interval_s: float = 0.020,
        timing: Optional[ScrubTiming] = None,
        backend: Optional[Union[str, KernelBackend]] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("scrub interval must be positive")
        self.array = array
        self.scheme = scheme
        self.interval_s = interval_s
        self.timing = timing if timing is not None else ScrubTiming()
        if backend is not None:
            self.set_backend(backend)

    def set_backend(self, backend: Union[str, KernelBackend]) -> None:
        """Route the scheme's bulk operations through a kernel backend.

        Delegates to the scheme's own ``set_backend`` when it has one
        (SuDoku engines, baselines); plain :class:`LineScrubber` schemes
        without bulk operations are left untouched.
        """
        setter = getattr(self.scheme, "set_backend", None)
        if setter is not None:
            setter(backend)

    def scrub_pass(self, sparse: bool = False) -> ScrubReport:
        """Run one full scrub over the array.

        With ``sparse=True`` the pass consults the array's dirty-frame
        index and only *decodes* frames whose stored word diverged from
        the last scrubbed state; every other line is a valid codeword by
        the dirty-set invariant, so it is bulk-accounted as ``clean``
        without running the correction machinery.  Outcome counters are
        bit-identical to a dense pass.  The timing model is unchanged in
        both modes -- the hardware still reads every line; only the
        simulator skips the redundant decodes -- so ``lines_scrubbed``
        and ``busy_time_s`` always reflect the full array.
        """
        report = ScrubReport()
        corrected = 0
        if sparse:
            dirty = self.array.dirty_frames()
            scrub_frames = getattr(self.scheme, "scrub_frames", None)
            if scrub_frames is not None:
                counts = Counter(scrub_frames(dirty))
            else:
                # Plain LineScrubber schemes: walk the dirty frames only.
                counts = Counter()
                for index in dirty:
                    counts[self.scheme.scrub_line(index)] += 1
            report.outcomes.update(counts)
            for label, count in counts.items():
                if is_corrected_label(label):
                    corrected += count
            # Collateral group repairs only ever touch faulty frames, all
            # of which are in the dirty set, so the remainder is exactly
            # the untouched-clean population.
            bulk_clean = self.array.num_lines - sum(counts.values())
            report.outcomes[Outcome.CLEAN.value] += bulk_clean
            account = getattr(self.scheme, "account_bulk_clean", None)
            if account is not None:
                account(bulk_clean)
        else:
            # The dense reference pass: visiting every line is the
            # point (it is what sparse mode is validated against).
            # repro-lint: disable=RPR009
            for index in range(self.array.num_lines):
                outcome = self.scheme.scrub_line(index)
                report.outcomes[outcome] += 1
                if is_corrected_label(outcome):
                    corrected += 1
        report.lines_scrubbed = self.array.num_lines
        report.busy_time_s = self.timing.pass_time(self.array.num_lines, corrected)
        return report

    def bandwidth_overhead(self) -> float:
        """Fraction of time the cache spends scrubbing (fault-free pass).

        The paper picks 20 ms so this stays at "a few percent" for a 64 MB
        cache (footnote 1).
        """
        return self.timing.pass_time(self.array.num_lines, 0) / self.interval_s
