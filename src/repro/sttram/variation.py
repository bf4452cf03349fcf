"""Process variation in thermal stability and the effective bit error rate.

Industry data (paper section I, refs [1], [5], [8]) shows up to 10 %
standard deviation in the thermal stability factor Delta due to process
variation.  Because the flip rate depends *exponentially* on Delta, the
weak tail of the distribution dominates the array's error rate: a nominal
Delta = 35 cell has an 18-day MTTF, but averaging over Delta ~ N(35, 3.5)
drops the mean cell MTTF to about an hour and pushes the 20 ms bit error
rate to the 5.3e-6 the paper designs for (Table I).

The *effective BER* is the variation-averaged Eq. (1):

    BER(t) = E_Delta[ 1 - exp(-f0 * exp(-Delta) * t) ],  Delta ~ N(mu, sigma)

computed here by adaptive quadrature, split at the knee of the integrand
(Delta = ln(f0 * t)) where the exponential transitions from ~1 to ~0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.rng import SeedLike, resolve_rng
from repro.sttram.device import THERMAL_ATTEMPT_FREQUENCY_HZ, flip_probability


@dataclass(frozen=True)
class DeltaDistribution:
    """Gaussian process-variation model for the thermal stability factor.

    :param mean: nominal Delta (35 at the 22 nm node, 60 at 32 nm).
    :param sigma_fraction: normalised standard deviation (0.10 = "10 % sigma").
    """

    mean: float
    sigma_fraction: float = 0.10

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ValueError("mean Delta must be positive")
        if self.sigma_fraction < 0:
            raise ValueError("sigma fraction must be non-negative")

    @property
    def sigma(self) -> float:
        """Absolute standard deviation of Delta."""
        return self.mean * self.sigma_fraction

    def sample(
        self,
        count: int,
        rng: Optional[np.random.Generator] = None,
        *,
        seed: Optional[SeedLike] = None,
    ) -> np.ndarray:
        """Draw per-cell Delta values (truncated at a small positive floor).

        Truncation only matters for sigma fractions far beyond the paper's
        10 %; it guards the physics (Delta must be positive) without
        disturbing the statistics in the studied regime.
        """
        generator = resolve_rng(rng, seed, owner="DeltaDistribution.sample")
        values = generator.normal(self.mean, self.sigma, size=count)
        return np.clip(values, 1e-6, None)

    def effective_ber(
        self,
        interval_s: float,
        attempt_frequency_hz: float = THERMAL_ATTEMPT_FREQUENCY_HZ,
    ) -> float:
        """Variation-averaged flip probability over ``interval_s``."""
        return effective_ber(
            self.mean, self.sigma, interval_s, attempt_frequency_hz
        )

    def mean_cell_mttf_seconds(
        self, attempt_frequency_hz: float = THERMAL_ATTEMPT_FREQUENCY_HZ
    ) -> float:
        """Mean time to failure of a random cell under variation."""
        return mean_cell_mttf_seconds(
            self.mean, self.sigma, attempt_frequency_hz
        )


def effective_ber(
    mean_delta: float,
    sigma_delta: float,
    interval_s: float,
    attempt_frequency_hz: float = THERMAL_ATTEMPT_FREQUENCY_HZ,
) -> float:
    """E_Delta[p_cell(interval)] for Delta ~ N(mean, sigma).

    This is the quantity the paper calls the bit error rate "within the
    scrub interval"; with (35, 3.5, 20 ms) it reproduces Table I's
    5.3e-6 figure (to model precision).
    """
    if sigma_delta < 0:
        raise ValueError("sigma must be non-negative")
    if interval_s < 0:
        raise ValueError("interval must be non-negative")
    if interval_s == 0:
        return 0.0
    if sigma_delta == 0:
        return flip_probability(mean_delta, interval_s, attempt_frequency_hz)
    # Deferred: scipy costs ~1 s to import, and only the analytic models
    # reach this point.
    from scipy import integrate, stats

    pdf = stats.norm(loc=mean_delta, scale=sigma_delta).pdf

    def integrand(delta: float) -> float:
        return flip_probability(delta, interval_s, attempt_frequency_hz) * pdf(delta)

    # The flip probability is ~1 below the knee and decays exponentially
    # above it; split the integral there so quadrature resolves both sides.
    knee = math.log(attempt_frequency_hz * interval_s) if attempt_frequency_hz * interval_s > 0 else 0.0
    low = mean_delta - 12.0 * sigma_delta
    high = mean_delta + 12.0 * sigma_delta
    points = sorted({max(low, min(knee, high)), max(low, min(knee + 3, high))})

    total = 0.0
    segments = [low, *points, high]
    for start, stop in zip(segments, segments[1:]):
        if stop <= start:
            continue
        value, _ = integrate.quad(integrand, start, stop, limit=200)
        total += value
    # Mass below the integration window has flip probability ~1.
    total += stats.norm(loc=mean_delta, scale=sigma_delta).cdf(low)
    return min(total, 1.0)


def mean_cell_mttf_seconds(
    mean_delta: float,
    sigma_delta: float,
    attempt_frequency_hz: float = THERMAL_ATTEMPT_FREQUENCY_HZ,
) -> float:
    """Mean cell failure time under variation, 1 / E[lambda].

    E[lambda] = f0 * E[exp(-Delta)] = f0 * exp(-mu + sigma^2 / 2) by the
    lognormal mean; for (35, 3.5) this is roughly an hour -- the "it takes
    only one hour for a cell to fail" quote from the paper's introduction.
    """
    if sigma_delta < 0:
        raise ValueError("sigma must be non-negative")
    expected_rate = attempt_frequency_hz * math.exp(
        -mean_delta + 0.5 * sigma_delta * sigma_delta
    )
    return 1.0 / expected_rate


def expected_faulty_bits(
    num_bits: int,
    mean_delta: float,
    sigma_delta: float,
    interval_s: float,
    attempt_frequency_hz: float = THERMAL_ATTEMPT_FREQUENCY_HZ,
) -> float:
    """Expected number of flipped bits in an array over one interval.

    The paper's example: a 64 MB cache (2^29 data bits) at Delta = 35,
    sigma = 10 %, 20 ms expects ~2880 flipped bits.
    """
    if num_bits < 0:
        raise ValueError("num_bits must be non-negative")
    return num_bits * effective_ber(
        mean_delta, sigma_delta, interval_s, attempt_frequency_hz
    )
