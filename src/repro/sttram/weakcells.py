"""Spatially heterogeneous fault injection: static weak-cell populations.

The analytical chapters follow the paper in treating every bit as
flipping iid at the *variation-averaged* BER.  Physically, process
variation is static: each cell draws its thermal stability Delta once at
manufacture, and the array's fault activity is dominated by a fixed
population of *weak* cells that fail over and over, not by a uniform
rain of flips.  Whether this correlation changes SuDoku's failure rate
is a fair question the paper does not examine -- two weak cells that
happen to share a line make that line multi-bit-faulty *every few
intervals*, not once per blue moon.

:class:`WeakCellMap` samples the static population efficiently: cells
whose flip probability per interval exceeds a floor are materialised
individually (there are few -- the Delta tail is steep), and the rest of
the array contributes a uniform background rate.  The split is exact in
expectation: materialised mass + background mass = the variation-
averaged BER of :mod:`repro.sttram.variation`.

:class:`HeterogeneousFaultInjector` then drives campaigns exactly like
:class:`repro.sttram.faults.TransientFaultInjector`, so the question is
answered by experiment (`bench_heterogeneity.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.rng import SeedLike, resolve_rng
from repro.sttram.device import THERMAL_ATTEMPT_FREQUENCY_HZ
from repro.sttram.variation import effective_ber


@dataclass(frozen=True)
class WeakCell:
    """One materialised weak cell."""

    line_index: int
    bit_position: int
    flip_probability: float


class WeakCellMap:
    """A static weak-cell population plus a uniform background rate.

    :param num_lines: array lines.
    :param line_bits: bits per line.
    :param delta_mean / delta_sigma: the variation model.
    :param interval_s: scrub interval the probabilities refer to.
    :param floor: per-interval flip probability above which a cell is
        materialised individually (default 1e-4: cells failing at least
        ~once per 10^4 intervals).
    """

    def __init__(
        self,
        num_lines: int,
        line_bits: int,
        delta_mean: float = 35.0,
        delta_sigma: float = 3.5,
        interval_s: float = 0.020,
        floor: float = 1e-4,
        rng: Optional[np.random.Generator] = None,
        *,
        seed: Optional[SeedLike] = None,
    ) -> None:
        if num_lines <= 0 or line_bits <= 0:
            raise ValueError("geometry must be positive")
        if not 0.0 < floor < 1.0:
            raise ValueError("floor must be in (0, 1)")
        self.num_lines = num_lines
        self.line_bits = line_bits
        self.interval_s = interval_s
        self.floor = floor
        generator = resolve_rng(rng, seed, owner="WeakCellMap")

        # Deferred, as in repro.sttram.variation: scipy is slow to import.
        from scipy import stats

        # Delta below which a cell's per-interval flip probability
        # exceeds the floor:  1 - exp(-f0 e^-D t) > floor.
        rate_needed = -math.log1p(-floor) / interval_s
        delta_cut = math.log(THERMAL_ATTEMPT_FREQUENCY_HZ / rate_needed)
        distribution = stats.norm(loc=delta_mean, scale=delta_sigma)
        p_weak_cell = float(distribution.cdf(delta_cut))

        total_cells = num_lines * line_bits
        count = int(generator.binomial(total_cells, p_weak_cell))
        self.cells: List[WeakCell] = []
        for _ in range(count):
            flat = int(generator.integers(0, total_cells))
            line_index, bit_position = divmod(flat, line_bits)
            # Delta conditioned on the weak tail (inverse-CDF sampling).
            quantile = generator.uniform(0.0, p_weak_cell)
            delta = float(distribution.ppf(quantile))
            rate = THERMAL_ATTEMPT_FREQUENCY_HZ * math.exp(-delta)
            probability = -math.expm1(-rate * interval_s)
            self.cells.append(
                WeakCell(line_index, bit_position, min(probability, 1.0))
            )

        # Background: the variation-averaged BER minus the materialised
        # tail's mass, spread uniformly over all cells.
        total_ber = effective_ber(delta_mean, delta_sigma, interval_s)
        tail_mass = self._tail_mass(distribution, delta_cut, interval_s)
        self.background_ber = max(total_ber - tail_mass, 0.0)
        self.total_ber = total_ber

    @staticmethod
    def _tail_mass(distribution, delta_cut: float, interval_s: float) -> float:
        """E[p_cell ; Delta < delta_cut]: the materialised share of BER."""
        from scipy import integrate

        def integrand(delta: float) -> float:
            rate = THERMAL_ATTEMPT_FREQUENCY_HZ * math.exp(-delta)
            return -math.expm1(-rate * interval_s) * distribution.pdf(delta)

        low = distribution.mean() - 12.0 * distribution.std()
        value, _ = integrate.quad(integrand, low, delta_cut, limit=200)
        # Everything far below the window flips with certainty.
        value += float(distribution.cdf(low))
        return value

    def expected_flips_per_interval(self) -> float:
        """Mean faulty bits per interval (weak cells + background)."""
        weak = sum(cell.flip_probability for cell in self.cells)
        return weak + self.background_ber * self.num_lines * self.line_bits

    def lines_with_multiple_weak_cells(self) -> Dict[int, int]:
        """line -> materialised weak-cell count, for lines holding >= 2.

        These are the hot spots iid modelling misses: lines that will be
        multi-bit-faulty over and over.
        """
        counts: Dict[int, int] = {}
        for cell in self.cells:
            counts[cell.line_index] = counts.get(cell.line_index, 0) + 1
        return {line: count for line, count in counts.items() if count >= 2}


class HeterogeneousFaultInjector:
    """Campaign-compatible injector driven by a :class:`WeakCellMap`."""

    def __init__(
        self,
        weak_map: WeakCellMap,
        rng: Optional[np.random.Generator] = None,
        *,
        seed: Optional[SeedLike] = None,
    ) -> None:
        self.weak_map = weak_map
        self._rng = resolve_rng(rng, seed, owner="HeterogeneousFaultInjector")

    def error_vectors(self, num_lines: int) -> Dict[int, int]:
        """One interval's faults: weak cells fire + uniform background."""
        if num_lines != self.weak_map.num_lines:
            raise ValueError("injector geometry mismatch")
        vectors: Dict[int, int] = {}
        # Materialised weak cells fire independently.
        draws = self._rng.random(len(self.weak_map.cells))
        for cell, draw in zip(self.weak_map.cells, draws):
            if draw < cell.flip_probability:
                vectors[cell.line_index] = vectors.get(cell.line_index, 0) | (
                    1 << cell.bit_position
                )
        # Uniform background over the whole array.
        total_bits = num_lines * self.weak_map.line_bits
        count = int(self._rng.binomial(total_bits, self.weak_map.background_ber))
        for _ in range(count):
            flat = int(self._rng.integers(0, total_bits))
            line_index, bit_position = divmod(flat, self.weak_map.line_bits)
            vectors[line_index] = vectors.get(line_index, 0) | (1 << bit_position)
        return vectors
