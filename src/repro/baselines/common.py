"""Shared machinery for the baseline protection schemes.

:class:`BaselineCache` provides the campaign-facing surface (outcome
recording with golden-copy auditing, the ``scrub_frames`` walk and its
pending-outcome bookkeeping) so each concrete baseline only implements
``write_data`` and ``_resolve_line``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Optional, Union

from repro.core.outcomes import Outcome
from repro.kernels import KernelBackend, resolve_backend
from repro.sttram.array import STTRAMArray


class BaselineCache:
    """Base class for campaign-compatible protection schemes."""

    #: Human-readable scheme name; subclasses override.
    name = "baseline"

    def __init__(
        self,
        array: STTRAMArray,
        data_bits: int,
        audit: bool = True,
        backend: Optional[Union[str, KernelBackend]] = None,
    ) -> None:
        if data_bits <= 0:
            raise ValueError("data_bits must be positive")
        self.array = array
        self.data_bits = data_bits
        self.audit = audit
        self.backend = resolve_backend(backend)
        self.outcome_counts: Counter = Counter()
        self._pending: Dict[int, Outcome] = {}

    def set_backend(self, backend: Union[str, KernelBackend]) -> None:
        """Swap the kernel backend (per-line resolution is scheme-opaque,
        so baselines accept it only to share the engines' signature)."""
        self.backend = resolve_backend(backend)

    # -- interface subclasses implement ------------------------------------------

    def write_data(self, frame: int, data: int) -> None:
        """Encode and store a payload."""
        raise NotImplementedError

    def _resolve_line(self, frame: int) -> Outcome:
        """Inspect and (if possible) repair one line."""
        raise NotImplementedError

    # -- campaign surface (mirrors SuDokuEngine) --------------------------------------

    def begin_scrub_pass(self) -> None:
        """Reset per-pass caches."""
        self._pending.clear()

    def scrub_line(self, frame: int) -> str:
        """Resolve one line and return its outcome label."""
        outcome = self._pending.pop(frame, None)
        if outcome is None:
            outcome = self._resolve_line(frame)
        outcome = self._audit(frame, outcome)
        self.outcome_counts[outcome.value] += 1
        return outcome.value

    def scrub_frames(self, frames: Iterable[int]) -> Dict[str, int]:
        """Scrub a set of frames, draining collateral outcomes."""
        self.begin_scrub_pass()
        counts: Counter = Counter()
        for frame in frames:
            counts[self.scrub_line(frame)] += 1
        for frame, outcome in list(self._pending.items()):
            audited = self._audit(frame, outcome)
            self.outcome_counts[audited.value] += 1
            counts[audited.value] += 1
        self._pending.clear()
        return dict(counts)

    def scrub_all(self) -> Dict[str, int]:
        """Scrub every frame."""
        return self.scrub_frames(range(self.array.num_lines))

    def scrub_sparse(self) -> Dict[str, int]:
        """Fault-indexed scrub (mirrors ``SuDokuEngine.scrub_sparse``).

        Decodes only the array's dirty frames and bulk-accounts every
        other line as ``clean``; outcome counters are bit-identical to
        :meth:`scrub_all` because clean frames hold valid codewords and
        resolve to ``clean`` without side effects.
        """
        counts = Counter(self.scrub_frames(self.array.dirty_frames()))
        counts[Outcome.CLEAN.value] += self.account_bulk_clean(
            self.array.num_lines - sum(counts.values())
        )
        return dict(counts)

    def account_bulk_clean(self, count: int) -> int:
        """Record ``count`` known-clean lines without decoding them."""
        if count < 0:
            raise ValueError("bulk clean count cannot be negative")
        self.outcome_counts[Outcome.CLEAN.value] += count
        return count

    def _note(self, frame: int, outcome: Outcome) -> None:
        """Record a collateral outcome for a frame not yet visited."""
        self._pending.setdefault(frame, outcome)

    def _audit(self, frame: int, outcome: Outcome) -> Outcome:
        if not self.audit or outcome is Outcome.DUE:
            return outcome
        if self.array.is_clean(frame):
            return outcome
        return Outcome.SDC
