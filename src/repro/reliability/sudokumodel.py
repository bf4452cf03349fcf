"""Analytical failure models of SuDoku-X, -Y, and -Z.

The models compose per-line binomial fault statistics into group-level
and cache-level failure probabilities following the *functional* engine's
correctability rules (every rule here is validated against Monte-Carlo
fault injection on the real engines in the test suite):

**SuDoku-X** fails a group when two or more lines have multi-bit (2+)
faults -- RAID-4 can rebuild only one.

**SuDoku-Y** (X + SDR) fails a group when:

* two or more *heavy* lines (3+ faults each) coexist -- flipping one
  mismatch bit still leaves 2+ faults, so SDR cannot resurrect either;
* two 2-fault lines have *identical* fault positions (Fig. 3c) -- the
  parity mismatch vanishes;
* a 2-fault line's faults are *contained* in a partner 3-fault line's
  (Fig. 4's failing case);
* the group's mismatch exceeds the SDR cap (more than
  ``sdr_max_mismatches`` candidate positions, e.g. four 2-fault lines).

**SuDoku-Z** fails only when at least two lines are unrepairable under
*both* hashes.  The dominant mode is a pair of heavy lines sharing a
Hash-1 group, each of which also meets another blocker in its (disjoint)
Hash-2 group.

**SDC** (all levels): a line with 7 faults can be "corrected" by ECC-1
into an 8-fault pattern that CRC-31 misdetects with probability 2^-31;
8+-fault lines hit the same misdetection floor directly (Table III).

The paper's own analytical numbers for Y (286M FIT DUE) are more
pessimistic than these first-principles compositions; EXPERIMENTS.md
quantifies the deltas.  The X and Z-without-SDR closed forms land within
~10-20 % of the paper's figures, and the ordering/magnitude structure of
Fig. 7 (X: seconds, Y: hours-days, Z: astronomically beyond ECC-6) is
reproduced throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.reliability.binomial import (
    binomial_pmf,
    binomial_tail,
    complement_power,
)
from repro.reliability.fit import (
    fit_from_interval_probability,
    mttf_seconds_from_interval_probability,
)


@dataclass(frozen=True)
class SuDokuReliabilityModel:
    """Closed-form reliability of a SuDoku-protected cache.

    :param ber: per-bit flip probability within one scrub interval.
    :param line_bits: stored bits per line (553: 512 data + 31 CRC + 10 ECC).
    :param group_size: RAID-Group size in lines.
    :param num_lines: lines in the cache.
    :param interval_s: scrub interval.
    :param crc_misdetect: probability CRC-31 misses an 8+-bit pattern.
    :param sdr_max_mismatches: SDR gives up beyond this many mismatches.
    """

    ber: float
    line_bits: int = 553
    group_size: int = 512
    num_lines: int = 1 << 20
    interval_s: float = 0.020
    crc_misdetect: float = 2.0 ** -31
    sdr_max_mismatches: int = 6
    #: Per-line ECC correction strength: 1 for the paper's ECC-1 design,
    #: 2 for the section VII-G ECC-2 enhancement (pair with
    #: ``line_bits=563``, the ECC-2 stored width).
    ecc_t: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.ber <= 1.0:
            raise ValueError("ber must be a probability")
        if self.num_lines % self.group_size:
            raise ValueError("group size must tile the cache")
        if self.ecc_t < 1:
            raise ValueError("ecc_t must be at least 1")
        if (self.ecc_t + 1) * 2 > self.sdr_max_mismatches:
            raise ValueError(
                "SDR cap too small to ever resurrect a pair of "
                f"{self.ecc_t + 1}-fault lines"
            )

    @classmethod
    def for_ecc2(cls, ber: float, **overrides) -> "SuDokuReliabilityModel":
        """Model of the ECC-2 variant (section VII-G): 563-bit lines,
        light lines = 3 faults, heavy = 4+."""
        overrides.setdefault("line_bits", 563)
        return cls(ber=ber, ecc_t=2, **overrides)

    # -- per-line fault statistics -------------------------------------------------

    def p_exact(self, k: int) -> float:
        """P[line has exactly k faults] in one interval."""
        return binomial_pmf(self.line_bits, k, self.ber)

    def p_at_least(self, k: int) -> float:
        """P[line has k or more faults] in one interval."""
        return binomial_tail(self.line_bits, k, self.ber)

    @property
    def p_multi(self) -> float:
        """P[line beyond per-line ECC] (ecc_t + 1 or more faults)."""
        return self.p_at_least(self.ecc_t + 1)

    @property
    def p_light(self) -> float:
        """P[line with exactly ecc_t + 1 faults] -- SDR-resurrectable."""
        return self.p_exact(self.ecc_t + 1)

    @property
    def p_heavy(self) -> float:
        """P[heavy line] (ecc_t + 2 or more faults) -- beyond SDR."""
        return self.p_at_least(self.ecc_t + 2)

    @property
    def num_groups(self) -> int:
        """RAID-Groups per hash."""
        return self.num_lines // self.group_size

    def expected_multi_lines(self) -> float:
        """Expected multi-bit-faulty lines per interval (paper: ~4)."""
        return self.num_lines * self.p_multi

    # -- overlap geometry -------------------------------------------------------------

    @property
    def q_full_overlap_22(self) -> float:
        """P[two light lines chose identical fault positions] (Fig. 3c).

        For ECC-t, a light line carries t+1 faults; full overlap of two
        independent (t+1)-subsets of the line has probability
        1 / C(line_bits, t+1).
        """
        return 1.0 / _choose(self.line_bits, self.ecc_t + 1)

    @property
    def q_containment_23(self) -> float:
        """P[a light line's faults are contained in a heavy partner's].

        Containment of a (t+1)-fault set within an independent
        (t+2)-fault set: C(t+2, t+1) / C(line_bits, t+1) (Fig. 4's
        failing case at t = 1).
        """
        return (self.ecc_t + 2) / _choose(self.line_bits, self.ecc_t + 1)

    # -- SuDoku-X ----------------------------------------------------------------------

    def group_fail_x(self) -> float:
        """P[group has 2+ multi-bit lines] -- RAID-4 alone defeated."""
        return binomial_tail(self.group_size, 2, self.p_multi)

    def cache_fail_x(self) -> float:
        """Per-interval DUE probability of the whole SuDoku-X cache."""
        return complement_power(self.group_fail_x(), self.num_groups)

    def mttf_x_seconds(self) -> float:
        """MTTF of SuDoku-X (paper: 3.71 s)."""
        return mttf_seconds_from_interval_probability(
            self.cache_fail_x(), self.interval_s
        )

    def fit_x(self) -> float:
        """Total FIT of SuDoku-X (DUE dominated)."""
        return fit_from_interval_probability(
            self.cache_fail_x(), self.interval_s
        ) + self.sdc_fit()

    # -- SuDoku-Y ----------------------------------------------------------------------

    def group_fail_y_components(self) -> Dict[str, float]:
        """Per-mode group failure probabilities of SuDoku-Y.

        Written for general ``ecc_t``: a *light* line carries exactly
        t+1 faults (resurrectable by flip + ECC-t), a *heavy* line t+2
        or more (never resurrectable).  The SDR mismatch cap blocks any
        group whose multi-bit lines' faults sum past
        ``sdr_max_mismatches``.
        """
        G = self.group_size
        cap = self.sdr_max_mismatches
        light = self.ecc_t + 1
        pairs = G * (G - 1) / 2.0
        p_light = self.p_light
        p_heavy_exact = self.p_exact(self.ecc_t + 2)
        components = {
            # two or more heavy lines: SDR cannot resurrect either.
            "heavy_pair": binomial_tail(G, 2, self.p_heavy),
            # two light lines with identical fault positions (Fig. 3c).
            "full_overlap_22": pairs * p_light * p_light * self.q_full_overlap_22,
            # a light line contained within a heavy partner (Fig. 4).
            "containment_23": pairs * 2.0 * p_light * p_heavy_exact
            * self.q_containment_23,
            # all-light mismatch cap: ceil((cap+1)/light_faults) light
            # lines exceed the cap (4 lines at t=1, 3 lines at t=2).
            "mismatch_cap": binomial_tail(
                G, cap // light + 1, self.p_multi
            ),
            # a light line paired with one heavy enough to blow the cap
            # on its own: partner faults > cap - (t+1).
            "pair_light_capping_heavy": pairs * 2.0 * p_light
            * self.p_at_least(max(cap - light + 1, self.ecc_t + 2)),
        }
        # Two light lines plus a heavy third blow the cap whenever three
        # light lines alone would not (otherwise mismatch_cap covers it).
        if 3 * light <= cap < 2 * light + self.ecc_t + 2:
            components["mismatch_cap_with_heavy"] = (
                G * (G - 1) * (G - 2) / 2.0 * p_light * p_light * self.p_heavy
            )
        return components

    def group_fail_y(self) -> float:
        """P[a SuDoku-Y group is left with unrepairable lines]."""
        return min(sum(self.group_fail_y_components().values()), 1.0)

    def cache_fail_y(self) -> float:
        """Per-interval DUE probability of the SuDoku-Y cache."""
        return complement_power(self.group_fail_y(), self.num_groups)

    def mttf_y_seconds(self) -> float:
        """MTTF of SuDoku-Y (paper: 3.49-3.9 hours; our rules give days)."""
        return mttf_seconds_from_interval_probability(
            self.cache_fail_y(), self.interval_s
        )

    def fit_y(self) -> float:
        """Total FIT of SuDoku-Y."""
        return fit_from_interval_probability(
            self.cache_fail_y(), self.interval_s
        ) + self.sdc_fit()

    # -- SuDoku-Z ----------------------------------------------------------------------

    def q_block_heavy(self) -> float:
        """P[a given heavy line is unrepairable within one of its groups].

        Under the peeling repair of SuDoku-Z, light (2-fault) partners
        that inflate the mismatch beyond the SDR cap are themselves
        peeled through *their* other group, so the only durable blocker
        is another heavy line in this group.  (The residual probability
        that a light partner is itself doubly blocked is third-order and
        neglected; the Monte-Carlo validation bounds the error.)
        """
        others = self.group_size - 1
        return min(complement_power(self.p_heavy, others), 1.0)

    def q_block_light(self) -> float:
        """P[a given light line is unrepairable within one of its groups].

        Needs a same-positions partner (full overlap), a containing heavy
        partner, or enough extra multi-bit lines to blow the mismatch cap.
        """
        others = self.group_size - 1
        extra_needed = self.sdr_max_mismatches // (self.ecc_t + 1)
        return min(
            others * self.p_light * self.q_full_overlap_22
            + others * self.p_exact(self.ecc_t + 2) * self.q_containment_23
            + binomial_tail(others, extra_needed, self.p_multi),
            1.0,
        )

    def group_fail_z_components(self) -> Dict[str, float]:
        """Per-mode Hash-1 group failure probabilities of SuDoku-Z."""
        G = self.group_size
        pairs = G * (G - 1) / 2.0
        p2 = self.p_light
        qh = self.q_block_heavy()
        ql = self.q_block_light()
        return {
            # Dominant: two heavy lines share a Hash-1 group and each is
            # *also* blocked in its (disjoint) Hash-2 group.
            "heavy_pair_double_blocked": pairs
            * self.p_heavy
            * self.p_heavy
            * qh
            * qh,
            # Fully-overlapping 2-fault pair, both blocked again under
            # Hash-2 (vanishingly rare; kept for completeness).
            "overlap_pair_double_blocked": pairs
            * p2
            * p2
            * self.q_full_overlap_22
            * ql
            * ql,
        }

    def group_fail_z(self) -> float:
        """P[a Hash-1 group still has 2+ unrepairable lines under SuDoku-Z]."""
        return min(sum(self.group_fail_z_components().values()), 1.0)

    def cache_fail_z(self) -> float:
        """Per-interval DUE probability of the SuDoku-Z cache."""
        return complement_power(self.group_fail_z(), self.num_groups)

    def fit_z_due(self) -> float:
        """DUE FIT of SuDoku-Z (paper: 1.05e-4)."""
        return fit_from_interval_probability(
            self.cache_fail_z(), self.interval_s
        )

    def fit_z(self) -> float:
        """Total FIT of SuDoku-Z: DUE plus the common SDC floor."""
        return self.fit_z_due() + self.sdc_fit()

    def mttf_z_hours(self) -> float:
        """MTTF of SuDoku-Z in hours."""
        p = self.cache_fail_z()
        if p == 0.0:
            return float("inf")
        return mttf_seconds_from_interval_probability(p, self.interval_s) / 3600.0

    # -- SuDoku-Z without SDR (footnote 4) ----------------------------------------------

    def fit_z_without_sdr(self) -> float:
        """FIT of skewed hashing alone, no SDR (paper footnote 4: ~4M)."""
        G = self.group_size
        pairs = G * (G - 1) / 2.0
        q_block = complement_power(self.p_multi, G - 1)
        group_fail = pairs * self.p_multi * self.p_multi * q_block * q_block
        cache_fail = complement_power(min(group_fail, 1.0), self.num_groups)
        return fit_from_interval_probability(cache_fail, self.interval_s)

    # -- SDC (Table III) -------------------------------------------------------------------

    def sdc_components(self) -> Dict[str, float]:
        """Event FIT rates feeding silent corruption (Table III rows)."""
        p7 = self.p_exact(7)
        p8 = self.p_at_least(8)
        fit_7 = fit_from_interval_probability(
            complement_power(p7, self.num_lines), self.interval_s
        )
        fit_8 = fit_from_interval_probability(
            complement_power(p8, self.num_lines), self.interval_s
        )
        return {"events_7_faults": fit_7, "events_8plus_faults": fit_8}

    def sdc_fit(self) -> float:
        """SDC FIT: each vulnerable event escapes CRC-31 with 2^-31."""
        components = self.sdc_components()
        return (
            components["events_7_faults"] + components["events_8plus_faults"]
        ) * self.crc_misdetect

    # -- aggregate views ----------------------------------------------------------------------

    def failure_probability_by(self, level: str, time_s: float) -> float:
        """P[cache has failed by ``time_s``] for a design level (Fig. 7)."""
        per_interval = {
            "X": self.cache_fail_x,
            "Y": self.cache_fail_y,
            "Z": self.cache_fail_z,
        }[level.upper()]()
        intervals = time_s / self.interval_s
        return complement_power(per_interval, int(max(intervals, 0)))

    def summary(self) -> Dict[str, float]:
        """Headline numbers, one call (used by benches and EXPERIMENTS.md)."""
        return {
            "ber": self.ber,
            "p_multi_line": self.p_multi,
            "expected_multi_lines_per_interval": self.expected_multi_lines(),
            "mttf_x_seconds": self.mttf_x_seconds(),
            "mttf_y_hours": self.mttf_y_seconds() / 3600.0,
            "mttf_z_hours": self.mttf_z_hours(),
            "fit_x": self.fit_x(),
            "fit_y": self.fit_y(),
            "fit_z": self.fit_z(),
            "fit_z_without_sdr": self.fit_z_without_sdr(),
            "sdc_fit": self.sdc_fit(),
        }


def _choose(n: int, k: int) -> float:
    """C(n, k) as a float (exact for the small k used here)."""
    result = 1.0
    for index in range(k):
        result = result * (n - index) / (index + 1)
    return result


def scale_with_cache_size(model: SuDokuReliabilityModel, factor: float) -> float:
    """FIT of SuDoku-Z when the cache is scaled by ``factor`` (Table IX).

    With all per-group statistics unchanged, FIT scales linearly in the
    number of groups; this helper makes that derivation explicit (and the
    full model at the scaled size is asserted against it in tests).
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    return model.fit_z_due() * factor + model.sdc_fit() * factor
