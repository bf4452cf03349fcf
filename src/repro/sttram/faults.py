"""Fault injection.

Transient thermal flips are the paper's primary fault model: each bit of
the array independently flips with probability BER within a scrub
interval, and -- unlike permanent faults -- *every* bit is at risk every
interval.  Section VI additionally argues SuDoku handles permanent
(stuck-at) and disturb faults; injectors for those live here too so the
section-VI studies can exercise the same correction paths.

The injector exposes two granularities:

* :meth:`TransientFaultInjector.error_vector` -- an error mask for one
  line (used by line-level unit tests and the functional engines), and
* :meth:`TransientFaultInjector.inject_interval` -- a whole-array
  injection that samples the total fault count binomially and scatters
  the faults uniformly (the Monte-Carlo fast path: O(faults), not O(bits)).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.coding.bitvec import bit_positions, flip_bits
from repro.coding.interleave import BitInterleaver
from repro.core.rng import SeedLike, resolve_rng
from repro.kernels import KernelBackend, resolve_backend
from repro.sttram.array import STTRAMArray


class FaultKind(enum.Enum):
    """Taxonomy of injected faults."""

    TRANSIENT = "transient"
    STUCK_AT_ZERO = "stuck-at-0"
    STUCK_AT_ONE = "stuck-at-1"
    DISTURB = "disturb"
    #: A fault in the correction *metadata* (a PLT parity entry or the
    #: group-mapping logic) rather than in the protected data array; the
    #: chaos harness (:mod:`repro.resilience.chaos`) injects these.
    METADATA = "metadata"


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: a specific bit of a specific line flipped/stuck."""

    line_index: int
    bit_position: int
    kind: FaultKind = FaultKind.TRANSIENT


def sample_fault_count(
    num_bits: int,
    ber: float,
    rng: Optional[np.random.Generator] = None,
    *,
    seed: Optional[SeedLike] = None,
) -> int:
    """Binomial draw of how many bits flip in ``num_bits`` at rate ``ber``."""
    if num_bits < 0:
        raise ValueError("num_bits must be non-negative")
    if not 0.0 <= ber <= 1.0:
        raise ValueError("ber must be a probability")
    generator = resolve_rng(rng, seed, owner="sample_fault_count")
    return int(generator.binomial(num_bits, ber))


class TransientFaultInjector:
    """Injects iid transient bit flips at a configured bit error rate.

    :param line_bits: width of each protected line in bits (coded width --
        the paper's thermal flips strike ECC and CRC bits just as readily
        as data bits).
    :param ber: per-bit flip probability per scrub interval.
    :param rng: explicit generator (campaign paths thread this).
    :param seed: derive a generator from this seed instead; omitting
        both warns once (:class:`repro.core.rng.UnseededRNGWarning`).
    """

    def __init__(
        self,
        line_bits: int,
        ber: float,
        rng: Optional[np.random.Generator] = None,
        *,
        seed: Optional[SeedLike] = None,
        backend: Optional[Union[str, KernelBackend]] = None,
    ) -> None:
        if line_bits <= 0:
            raise ValueError("line_bits must be positive")
        if not 0.0 <= ber <= 1.0:
            raise ValueError("ber must be a probability")
        self.line_bits = line_bits
        self.ber = ber
        self.backend = resolve_backend(backend)
        self._rng = resolve_rng(rng, seed, owner="TransientFaultInjector")

    def error_vector(self) -> int:
        """Sample an error mask for a single line (may be zero)."""
        count = int(self._rng.binomial(self.line_bits, self.ber))
        if count == 0:
            return 0
        positions = self._rng.choice(self.line_bits, size=count, replace=False)
        return flip_bits(0, (int(p) for p in positions), width=self.line_bits)

    def error_vector_at(self, positions: Iterable[int]) -> int:
        """Validated error mask for explicit bit positions.

        Targeted studies and tests place faults at chosen positions; a
        position at or beyond ``line_bits`` raises instead of silently
        widening the line (which would corrupt state the golden-copy
        heal invariant cannot restore).
        """
        return flip_bits(0, positions, width=self.line_bits)

    def error_vectors(self, num_lines: int) -> Dict[int, int]:
        """Sample error masks for ``num_lines`` lines; zero masks omitted.

        Equivalent to calling :meth:`error_vector` per line but samples the
        *total* fault count once and scatters, which is O(faults) instead
        of O(lines) -- the difference between hours and seconds for a
        million-line cache at BER ~ 5e-6.
        """
        flat = self.draw_flips(num_lines)
        if not len(flat):
            return {}
        return self.backend.scatter_fault_vectors(flat, self.line_bits)

    def draw_flips(self, num_lines: int) -> np.ndarray:
        """One interval's flips as distinct flat bit indices.

        Index ``i`` flips bit ``i % line_bits`` of line ``i // line_bits``.
        This is the whole draw behind :meth:`error_vectors`, which only
        scatters it into masks, so the two consume the same RNG sequence.
        """
        if num_lines < 0:
            raise ValueError("num_lines must be non-negative")
        total_bits = num_lines * self.line_bits
        count = int(self._rng.binomial(total_bits, self.ber))
        if count == 0:
            return np.empty(0, dtype=np.int64)
        return self._sample_distinct(total_bits, count)

    def inject_frames(self, array: "STTRAMArray") -> List[int]:
        """Inject one interval's faults; return the sorted frames hit.

        The campaign fast path: one binomial draw plus an O(faults)
        scatter, with the array's dirty-frame set maintained by
        ``array.inject_many`` as a side effect.  The returned list equals
        the dirty set delta for a clean array, which is exactly the
        visit list a sparse scrub pass needs.  Consumes the same RNG
        sequence as :meth:`error_vectors`, so campaigns are bit-identical
        whether they use this helper or the manual inject loop.
        """
        vectors = self.error_vectors(array.num_lines)
        array.inject_many(vectors)
        return sorted(vectors)

    def inject_interval(self, array: "STTRAMArray") -> List[FaultEvent]:
        """Inject one scrub interval's worth of faults into an array."""
        vectors = self.error_vectors(array.num_lines)
        events: List[FaultEvent] = []
        for line_index, vector in vectors.items():
            array.inject(line_index, vector)
            events.extend(
                FaultEvent(line_index, position)
                for position in bit_positions(vector)
            )
        return events

    def _sample_distinct(self, population: int, count: int) -> np.ndarray:
        """Distinct uniform indices without materialising the population."""
        return sample_distinct(self._rng, population, count)


def sample_distinct(
    rng: np.random.Generator, population: int, count: int
) -> np.ndarray:
    """Distinct uniform indices without materialising the population.

    Rejection sampling: at realistic fault densities count << population,
    so one round almost always suffices.  Shared by the transient
    injector, the burst injector, and :meth:`PermanentFaultMap.random`
    (whose with-replacement draws used to silently OR duplicate indices
    into the same bit, undercounting the requested density).
    """
    if count > population:
        raise ValueError("cannot sample more faults than bits")
    chosen: set = set()
    while len(chosen) < count:
        draw = rng.integers(0, population, size=count - len(chosen))
        chosen.update(int(v) for v in draw)
    return np.fromiter(chosen, dtype=np.int64, count=count)


@dataclass
class PermanentFaultMap:
    """Stuck-at fault map for the section-VI permanent-fault studies.

    ``stuck_at_one[line]`` / ``stuck_at_zero[line]`` are bit masks; a read
    of that line always sees the stuck bits forced to their stuck value,
    regardless of what was written.
    """

    line_bits: int
    stuck_at_one: Dict[int, int] = field(default_factory=dict)
    stuck_at_zero: Dict[int, int] = field(default_factory=dict)

    def add(self, line_index: int, bit_position: int, kind: FaultKind) -> None:
        """Register a permanent fault.

        A bit cannot be stuck at both polarities; registering the
        opposite polarity on an already-stuck bit raises instead of
        letting :meth:`apply`'s masking order silently pick a winner.
        """
        if not 0 <= bit_position < self.line_bits:
            raise ValueError("bit position out of range")
        mask = 1 << bit_position
        if kind is FaultKind.STUCK_AT_ONE:
            if self.stuck_at_zero.get(line_index, 0) & mask:
                raise ValueError(
                    f"line {line_index} bit {bit_position} is already "
                    "stuck-at-0; a bit cannot be stuck at both polarities"
                )
            self.stuck_at_one[line_index] = self.stuck_at_one.get(line_index, 0) | mask
        elif kind is FaultKind.STUCK_AT_ZERO:
            if self.stuck_at_one.get(line_index, 0) & mask:
                raise ValueError(
                    f"line {line_index} bit {bit_position} is already "
                    "stuck-at-1; a bit cannot be stuck at both polarities"
                )
            self.stuck_at_zero[line_index] = self.stuck_at_zero.get(line_index, 0) | mask
        else:
            raise ValueError(f"not a permanent fault kind: {kind}")

    def apply(self, line_index: int, value: int) -> int:
        """Value as read through the stuck bits."""
        value |= self.stuck_at_one.get(line_index, 0)
        value &= ~self.stuck_at_zero.get(line_index, 0)
        return value

    def error_vector(self, line_index: int, written: int) -> int:
        """Effective error mask for a given written value."""
        return written ^ self.apply(line_index, written)

    @classmethod
    def random(
        cls,
        num_lines: int,
        line_bits: int,
        fault_ppm: float,
        rng: Optional[np.random.Generator] = None,
        *,
        seed: Optional[SeedLike] = None,
    ) -> "PermanentFaultMap":
        """Uniformly random stuck-at faults at a parts-per-million density.

        Samples *distinct* flat bit indices, so the realized stuck-at
        count equals the binomial draw exactly (with-replacement
        sampling used to OR duplicates into the same bit, undercounting
        the requested ppm), and no bit can receive both polarities.
        """
        generator = resolve_rng(rng, seed, owner="PermanentFaultMap.random")
        fault_map = cls(line_bits)
        total_bits = num_lines * line_bits
        count = int(generator.binomial(total_bits, fault_ppm * 1e-6))
        if count == 0:
            return fault_map
        flats = sorted(int(v) for v in sample_distinct(generator, total_bits, count))
        polarities = generator.integers(0, 2, size=count)
        for flat, polarity in zip(flats, polarities):
            line_index, bit_position = divmod(flat, line_bits)
            kind = (
                FaultKind.STUCK_AT_ONE if polarity else FaultKind.STUCK_AT_ZERO
            )
            fault_map.add(line_index, bit_position, kind)
        return fault_map


def burst_error_vector(
    line_bits: int,
    start: int,
    length: int,
) -> int:
    """Contiguous burst of flipped bits (disturb-style fault pattern)."""
    if not 0 <= start < line_bits:
        raise ValueError("burst start out of range")
    if length <= 0 or start + length > line_bits:
        raise ValueError("burst does not fit in the line")
    return ((1 << length) - 1) << start


def burst_line_masks(
    line_bits: int,
    start: int,
    length: int,
    *,
    interleave: int = 1,
) -> List[Tuple[int, int]]:
    """(line offset, error mask) pairs induced by one physical burst.

    With ``interleave == 1`` the burst lands wholly in one line.  With
    ``interleave == D`` the physical row holds ``D`` logical lines
    bit-interleaved (see :class:`repro.coding.interleave.BitInterleaver`),
    so a contiguous physical burst of length ``k`` spreads across
    ``min(k, D)`` logical lines at at most ``ceil(k / D)`` bits each --
    the geometric fact that makes interleaving load-bearing under MBUs.

    Shared by the numpy-generator :class:`BurstFaultInjector` and the
    stdlib-RNG scenario samplers, so both fault paths place identical
    bursts for identical (start, length) draws.
    """
    if interleave <= 0:
        raise ValueError("interleave must be positive")
    if interleave == 1:
        return [(0, burst_error_vector(line_bits, start, length))]
    interleaver = BitInterleaver(line_bits, interleave)
    return interleaver.burst_to_line_errors(start, length)


class BurstFaultInjector:
    """Injects adjacent multi-bit bursts (MBU events) at a per-line rate.

    Each interval, the number of burst *events* is a binomial draw over
    ``num_lines`` at ``rate``; each event picks a distinct base line, a
    burst length from ``length_pmf``, and an aligned start position
    within ``span``:

    :param line_bits: width of each logical line in bits.
    :param rate: per-line probability that a burst event originates at
        that line per interval.
    :param length_pmf: mapping of burst length (bits) to probability;
        normalized internally, every length must fit in ``span``.
    :param span: window of physical positions ``[0, span)`` bursts may
        occupy; defaults to the full row (``line_bits * interleave``).
    :param alignment: burst starts are multiples of this (models column
        granularity in the physical row); default 1 (unaligned).
    :param multiplicity: number of consecutive rows struck by the same
        burst pattern per event (vertical MBU extent); default 1.
    :param interleave: logical lines per physical row.  1 means the
        burst lands contiguously in one line (worst case for per-line
        ECC-1); ``D > 1`` spreads it across ``D`` lines via the block
        bit-interleaver -- the burst-vs-interleave comparison knob.
    :param rng: explicit generator (campaign paths thread this, seeded
        off the campaign SeedSequence tree).
    :param seed: derive a generator from this seed instead.
    """

    def __init__(
        self,
        line_bits: int,
        rate: float,
        length_pmf: Dict[int, float],
        *,
        span: Optional[int] = None,
        alignment: int = 1,
        multiplicity: int = 1,
        interleave: int = 1,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[SeedLike] = None,
        backend: Optional[Union[str, KernelBackend]] = None,
    ) -> None:
        if line_bits <= 0:
            raise ValueError("line_bits must be positive")
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be a probability")
        if alignment <= 0:
            raise ValueError("alignment must be positive")
        if multiplicity <= 0:
            raise ValueError("multiplicity must be positive")
        if interleave <= 0:
            raise ValueError("interleave must be positive")
        row_bits = line_bits * interleave
        if span is None:
            span = row_bits
        if not 0 < span <= row_bits:
            raise ValueError(f"span must be in (0, {row_bits}], got {span}")
        if not length_pmf:
            raise ValueError("length_pmf must not be empty")
        total = 0.0
        for length, probability in length_pmf.items():
            if not isinstance(length, int) or length <= 0:
                raise ValueError(f"burst length must be a positive int: {length}")
            if length > span:
                raise ValueError(
                    f"burst length {length} does not fit in span {span}"
                )
            if probability < 0:
                raise ValueError("length_pmf probabilities must be >= 0")
            total += probability
        if total <= 0:
            raise ValueError("length_pmf probabilities must sum to > 0")
        self.line_bits = line_bits
        self.rate = rate
        self.span = span
        self.alignment = alignment
        self.multiplicity = multiplicity
        self.interleave = interleave
        self._lengths = sorted(length_pmf)
        weights = [length_pmf[length] / total for length in self._lengths]
        self._cumulative = list(np.cumsum(weights))
        self._cumulative[-1] = 1.0  # guard against float drift
        self.backend = resolve_backend(backend)
        self._rng = resolve_rng(rng, seed, owner="BurstFaultInjector")

    def _draw_length(self) -> int:
        """Inverse-CDF draw from the burst-length PMF."""
        u = float(self._rng.random())
        for length, bound in zip(self._lengths, self._cumulative):
            if u <= bound:
                return length
        return self._lengths[-1]

    def _draw_start(self, length: int) -> int:
        """Aligned uniform start so the burst fits inside the span."""
        slots = (self.span - length) // self.alignment + 1
        return int(self._rng.integers(0, slots)) * self.alignment

    def error_vectors(self, num_lines: int) -> Dict[int, int]:
        """Sample one interval's burst events as per-line error masks.

        One binomial draw for the event count, distinct base lines in
        sorted order, then per-event (length, start) draws -- so the
        consumed RNG stream is a pure function of (geometry, num_lines)
        and the generator state, which is what lets sharded campaigns
        replay the same events from the same SeedSequence children.
        Masks from overlapping events OR together; burst cells past the
        last line are clipped (array-edge events).
        """
        if num_lines < 0:
            raise ValueError("num_lines must be non-negative")
        count = int(self._rng.binomial(num_lines, self.rate))
        if count == 0:
            return {}
        bases = sorted(int(v) for v in sample_distinct(self._rng, num_lines, count))
        events: List[Tuple[int, int]] = []
        for base in bases:
            length = self._draw_length()
            start = self._draw_start(length)
            masks = burst_line_masks(
                self.line_bits, start, length, interleave=self.interleave
            )
            for row in range(self.multiplicity):
                row_base = base + row * self.interleave
                for offset, mask in masks:
                    events.append((row_base + offset, mask))
        return self.backend.fold_line_masks(events, num_lines)

    def inject_frames(self, array: "STTRAMArray") -> List[int]:
        """Inject one interval's bursts; return the sorted frames hit."""
        vectors = self.error_vectors(array.num_lines)
        array.inject_many(vectors)
        return sorted(vectors)
