"""Conditional (rare-event) Monte-Carlo for group-level failures.

Whole-cache campaigns waste almost every interval at realistic error
rates: a group only *matters* when it holds two or more multi-bit-faulty
lines, which at BER 5.3e-6 happens once per ~400 intervals per cache.
This module samples *directly from the conditional distribution*:

1. condition a RAID-Group on having ``m >= 2`` multi-bit lines
   (``m`` drawn from the conditioned binomial);
2. give each such line a fault count drawn from the conditioned
   per-line tail and uniform fault positions;
3. run the *real* correction machinery (scan -> SDR -> RAID-4, and for
   SuDoku-Z the Hash-2 side-groups with peeling) on a bit-level group;
4. multiply the measured conditional failure probability by the
   analytic probability of the conditioning event.

The unconditional estimate
``P(group DUE) = P(m >= 2) * P(DUE | m >= 2)``
is exact, and the variance reduction vs naive campaigns is the inverse
of the conditioning probability -- three orders of magnitude at
BER 1e-4 for the paper geometry.

Trial ``t`` (a global index) draws only from its own numpy generator,
``interval_generator(seed, t)``: the seed-tree child ``(seed, t)`` that
Monte-Carlo and scenario intervals use too.  So a K-shard run, which
hands each shard a slice of trial indices, equals the serial run at the
same seed, and a checkpoint carries no RNG state.  The faults come from
the campaign samplers (``sample_distinct``, the scenario's stuck-at map
and burst injector) and the repairs from the SuDoku engine; this module
keeps only the conditioning: the multi-bit line count, the choice of
lines, and the per-line fault-count tail.

A trial group stores content only where it can matter.  ECC-1, the
CRC, RAID-4 parity, the SDR flip search and Hash-2 peeling are all
affine over GF(2), so a line's outcome depends on its error vector,
not on its word; every line holds the format fill word.  A stuck cell
is the exception -- it is an error only where it disagrees with the
stored bit -- so under a stuck-at overlay the stuck lines (and a Z side
group's stuck slot 0, which aliases the survivor) hold the random
words the campaign fill rule would have given them.  Results equal an
all-random-content build (``tests/reliability/test_raresim_content.py``),
and a group without stuck lines encodes and writes no line at all.

Single-fault background lines are provably irrelevant (the group scan
repairs them before any parity computation), so they are not sampled.
Hash-2 side-groups sample their own multi-line background at the
unconditioned rate; blockers beyond the first peeling level carry
probability O(p_multi^2) relative and are neglected (documented in
EXPERIMENTS.md).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - cycle: scenario imports repro.parallel
    from repro.reliability.scenario import FaultScenario

from repro.coding.bitvec import flip_bits
from repro.core.engine import SuDokuY
from repro.core.linecodec import LineCodec
# The trials repair through SuDokuY and call none of these; they stay
# module attributes because the end-to-end benchmark harness wraps
# ``repro.reliability.raresim:<name>`` for its layer timings.
from repro.core.raid4 import reconstruct_line, scan_group  # noqa: F401
from repro.core.sdr import resurrect  # noqa: F401
from repro.kernels import resolve_backend
from repro.obs import NULL_PROGRESS, Telemetry, resolve_telemetry
from repro.reliability.binomial import binomial_pmf, binomial_tail, complement_power
from repro.reliability.fit import fit_from_interval_probability
from repro.reliability.tallies import publish_tallies
from repro.resilience.checkpoint import BoundaryLoop, Checkpointer, Deadline
from repro.sttram.array import STTRAMArray
from repro.sttram.faults import sample_distinct

#: Bucket edges for conditioned-trial wall times: a Y trial is one group
#: scan (sub-millisecond at bench geometries); Z trials fan out into
#: side-groups and can take tens of milliseconds.
TRIAL_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0,
)

#: Truncation of the conditioned fault-count distribution; the mass
#: beyond this is ~(n*ber)^k / k! and utterly negligible for every BER
#: this estimator is used at.
MAX_FAULTS_PER_LINE = 16

#: Truncation of the conditioned multi-line-count distribution.
MAX_MULTI_LINES = 12


def _conditional_distribution(probabilities: List[float]) -> List[float]:
    total = sum(probabilities)
    if total <= 0:
        raise ValueError("conditioning event has zero probability")
    return [p / total for p in probabilities]


def conditioned_weights(
    ber: float, group_size: int, line_bits: int
) -> Tuple[float, List[float], List[float]]:
    """The per-line multi-fault probability and the conditioned tails.

    Returns ``(p_multi, fault_weights, multi_weights)``: the probability
    that a line holds >= 2 faults, the conditioned weights of a
    multi-bit line's fault count (2..MAX_FAULTS_PER_LINE), and those of
    the group's multi-bit line count (2..MAX_MULTI_LINES).

    :raises ValueError: when either conditioned distribution has zero
        probability in floating point (``ber`` too close to 0 or 1).
    """
    p_multi = binomial_tail(line_bits, 2, ber)
    fault_weights = _conditional_distribution([
        binomial_pmf(line_bits, k, ber)
        for k in range(2, MAX_FAULTS_PER_LINE + 1)
    ])
    multi_weights = _conditional_distribution([
        binomial_pmf(group_size, m, p_multi)
        for m in range(2, MAX_MULTI_LINES + 1)
    ])
    return p_multi, fault_weights, multi_weights


def _tail(weights: List[float]) -> Tuple[np.ndarray, np.ndarray]:
    """A conditioned tail over 2, 3, ...: its support and normalised CDF.

    A right-sided ``searchsorted`` of uniform draws on the CDF is
    exactly what ``Generator.choice(support, p=weights)`` draws, without
    the per-call checks of ``p`` that cost more than the draw.
    """
    cdf = np.cumsum(weights)
    return np.arange(2, 2 + len(weights)), cdf / cdf[-1]


def _sample_tail(rng: np.random.Generator, tail, size: Optional[int]):
    """``size`` draws (one when None) from a :func:`_tail`."""
    support, cdf = tail
    return support[cdf.searchsorted(rng.random(size), side="right")]


@dataclass
class ConditionalResult:
    """Outcome of a conditional campaign.

    ``truncated`` marks a campaign ended early by interrupt or deadline
    (``stop_reason``); ``trials`` then reflects the trials actually
    completed, keeping every derived estimate valid for the partial run.
    """

    trials: int
    conditional_failures: int
    conditioning_probability: float
    ber: float
    group_size: int
    num_groups: int
    interval_s: float
    truncated: bool = False
    stop_reason: str = ""

    def as_dict(self) -> dict:
        """JSON-ready snapshot (``--result-out``, CI round-trip checks).

        Every derived statistic the CLI prints is present -- including
        the Wilson CI bounds and the per-interval cache failure
        probability, which earlier result files silently dropped -- so
        a stored result (the serve store, ``--result-out``) carries the
        full printed report, and every derived field is recomputed from
        the tallies, never cached.
        """
        ci_low, ci_high = self.conditional_ci()
        return {
            "trials": self.trials,
            "conditional_failures": self.conditional_failures,
            "conditioning_probability": self.conditioning_probability,
            "ber": self.ber,
            "group_size": self.group_size,
            "num_groups": self.num_groups,
            "interval_s": self.interval_s,
            "truncated": self.truncated,
            "stop_reason": self.stop_reason,
            "conditional_failure_probability": (
                self.conditional_failure_probability
            ),
            "conditional_ci_low": ci_low,
            "conditional_ci_high": ci_high,
            "cache_failure_probability": self.cache_failure_probability(),
            "fit": self.fit(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ConditionalResult":
        """Rebuild a result from :meth:`as_dict` output.

        Only the tally/config fields are consumed; derived statistics
        (CI bounds, FIT, failure probabilities) are recomputed from the
        tallies, so a round-trip can never resurrect a stale cached
        value.
        """
        return cls(
            trials=int(payload["trials"]),
            conditional_failures=int(payload["conditional_failures"]),
            conditioning_probability=float(
                payload["conditioning_probability"]
            ),
            ber=float(payload["ber"]),
            group_size=int(payload["group_size"]),
            num_groups=int(payload["num_groups"]),
            interval_s=float(payload["interval_s"]),
            truncated=bool(payload.get("truncated", False)),
            stop_reason=str(payload.get("stop_reason", "")),
        )

    @property
    def conditional_failure_probability(self) -> float:
        """P[group DUE | group has >= 2 multi-bit lines]."""
        if self.trials == 0:
            return 0.0
        return self.conditional_failures / self.trials

    @property
    def group_failure_probability(self) -> float:
        """Unconditional per-group, per-interval DUE probability."""
        return self.conditioning_probability * self.conditional_failure_probability

    def cache_failure_probability(self) -> float:
        """Per-interval cache failure probability."""
        return complement_power(self.group_failure_probability, self.num_groups)

    def fit(self) -> float:
        """Estimated cache FIT."""
        return fit_from_interval_probability(
            self.cache_failure_probability(), self.interval_s
        )

    def conditional_ci(self, z: float = 1.96) -> Tuple[float, float]:
        """Wilson interval on the conditional failure probability.

        The degenerate tallies pin their exact bound: zero failures has
        a lower bound of exactly 0.0 and all-failures an upper bound of
        exactly 1.0 (the float formula can land an ulp off either way).
        """
        n = self.trials
        if n == 0:
            return (0.0, 1.0)
        p = self.conditional_failure_probability
        denominator = 1.0 + z * z / n
        centre = (p + z * z / (2 * n)) / denominator
        margin = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denominator
        low = max(0.0, centre - margin)
        high = min(1.0, centre + margin)
        if self.conditional_failures == 0:
            low = 0.0
        if self.conditional_failures == n:
            high = 1.0
        return (low, high)


class ConditionalGroupSimulator:
    """Samples conditioned fault patterns; the SuDoku engine repairs them."""

    def __init__(
        self,
        ber: float,
        group_size: int = 512,
        num_groups: int = 2048,
        interval_s: float = 0.020,
        codec: Optional[LineCodec] = None,
        sdr_max_mismatches: int = 6,
        seed: int = 0,
        trial_start: int = 0,
        scenario: Optional["FaultScenario"] = None,
        backend: Optional[str] = None,
    ) -> None:
        if not 0.0 < ber < 1.0:
            raise ValueError("ber must be in (0, 1)")
        if trial_start < 0:
            raise ValueError("trial_start must be non-negative")
        if num_groups < 1:
            raise ValueError(f"num_groups must be >= 1, got {num_groups}")
        if not interval_s > 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        if group_size < 2 or group_size & (group_size - 1):
            # Each trial group runs on a SuDoku engine's GroupMapper.
            raise ValueError(
                f"group_size must be a power of two >= 2, got {group_size}"
            )
        self.ber = ber
        self.group_size = group_size
        self.num_groups = num_groups
        self.interval_s = interval_s
        self.codec = codec if codec is not None else LineCodec()
        self.sdr_max_mismatches = sdr_max_mismatches
        #: Optional mixed-fault overlay: each trial group is built with a
        #: freshly sampled stuck-at map (the spec's ppm density) and the
        #: conditioned transient pattern is augmented with one interval's
        #: burst events, drawn by the scenario campaigns' samplers from
        #: the trial's generator, like every other draw of the trial.  The
        #: ``transient_ber`` field is *not* consumed here -- the
        #: conditioned ``ber`` is this estimator's transient model
        #: (:func:`repro.serve.specs.parse_spec` maps a nonzero
        #: ``scenario.transient_ber`` onto it, for the CLI and serve
        #: alike).  Hash-2 side-groups sample their own stuck map but no
        #: bursts: a burst blocking a side-group retry is a second-order
        #: term, neglected like the deeper peeling levels (see
        #: EXPERIMENTS.md).
        self.scenario = scenario
        #: The campaign seed; trial ``t`` draws from child ``(seed, t)``.
        self.seed = seed
        #: Global index of this run's first trial (a shard's slice start).
        self.trial_start = trial_start
        #: Kernel backend of the trial engines and their parity tables.
        #: Bit-identical by contract and fed no RNG, so it is
        #: deliberately absent from the checkpoint fingerprint.
        self.backend = resolve_backend(backend)
        self.line_bits = self.codec.stored_bits
        #: The format fill word every trial line holds unless it is stuck
        #: (see :meth:`_fresh_group`); encoded once, not per trial.
        self._fill = self.codec.encode(0)
        #: Telemetry the trial engines record their repair spans on;
        #: :meth:`run` swaps in the campaign's bundle (RNG-neutral: spans
        #: never touch the trial stream).
        self._telemetry = resolve_telemetry(None)

        self.p_multi, fault_weights, multi_weights = conditioned_weights(
            ber, group_size, self.line_bits
        )
        self._fault_tail = _tail(fault_weights)
        self._multi_tail = _tail(multi_weights)
        #: P[the conditioning event]: >= 2 multi-bit lines in the group.
        self.conditioning_probability = binomial_tail(group_size, 2, self.p_multi)

    # -- group construction ----------------------------------------------------------

    def _fresh_group(
        self, rng: np.random.Generator
    ) -> Tuple[SuDokuY, int]:
        """A SuDoku-Y engine over a G-line array with content and no
        faults, and the seed of its content stream.

        Every line holds the format fill word (G copies have parity
        zero, the table's initial state) except the lines of the
        overlay's stuck-at map (module docstring): line ``i`` holds the
        ``i``-th data word of a stdlib stream seeded by one draw of
        ``rng``, the rule campaigns fill their arrays by.  The map is
        attached before that content is written, so the writes store
        through the stuck bits (golden keeps the intent), and the
        parity covers the golden words: stuck bits appear to the repair
        machinery as what they physically are, pre-existing storage
        faults.  The seed is drawn with or without a map, so every later
        draw of the trial is the same either way.
        """
        array = STTRAMArray(self.group_size, self.line_bits)
        array.fill_word(self._fill)
        stuck_map = None
        if self.scenario is not None:
            stuck_map = self.scenario.build_stuck_map(
                self.group_size, self.line_bits, rng
            )
            if stuck_map is not None:
                array.attach_permanent_faults(stuck_map)
        engine = SuDokuY(
            array, group_size=self.group_size, codec=self.codec,
            format_array=False, telemetry=self._telemetry,
            backend=self.backend, sdr_max_mismatches=self.sdr_max_mismatches,
        )
        content_seed = int(rng.integers(0, 2 ** 63))
        if stuck_map is not None:
            lines = sorted(
                stuck_map.stuck_at_one.keys() | stuck_map.stuck_at_zero.keys()
            )
            if lines:
                self._write_content(
                    engine, lines, self._content(content_seed, lines)
                )
        return engine, content_seed

    def _content(self, seed: int, lines: Sequence[int]) -> List[int]:
        """The encoded words of ascending ``lines`` from content stream
        ``seed``: line ``i`` holds its ``i``-th data word."""
        getrandbits = random.Random(seed).getrandbits
        data_bits = self.codec.layout.data_bits
        data = [getrandbits(data_bits) for _ in range(lines[-1] + 1)]
        return self.codec.encode_many([data[line] for line in lines])

    def _write_content(
        self, engine: SuDokuY, lines: Sequence[int], words: Sequence[int]
    ) -> None:
        """Write ``words`` to ``lines`` and rebuild the golden parity.

        Every line outside the written set holds the fill word, so the
        parity is the XOR of the written goldens with the fill word
        folded in once when the fill lines are odd in number.
        """
        array = engine.array
        array.write_many(lines, words)
        goldens = [array.golden(line) for line in array.written_frames()]
        if (self.group_size - len(goldens)) & 1:
            goldens.append(self._fill)
        engine.plt.rebuild(0, goldens)

    def _side_group(
        self, rng: np.random.Generator, array: STTRAMArray, survivor: int,
        content_seed: int,
    ) -> SuDokuY:
        """``survivor``'s Hash-2 group, the survivor aliased to slot 0.

        Fresh partner lines (disjoint from the Hash-1 group by the
        skewing invariant) with an unconditioned multi-fault background:
        one Bernoulli draw per partner at ``p_multi``.  The parity
        covers the golden words, as in :meth:`_fresh_group`: a side
        line's stuck bits stay faults for the repair to find.  Slot 0
        carries the side group's own stuck map, so where that map
        sticks slot 0 the survivor's content matters even when the
        survivor is not stuck in its Hash-1 group: it is drawn from
        the Hash-1 group's stream, ``content_seed``.
        """
        side, _ = self._fresh_group(rng)
        side_array = side.array
        stuck_map = side_array.permanent_faults
        if stuck_map is not None and (
            0 in stuck_map.stuck_at_one or 0 in stuck_map.stuck_at_zero
        ):
            self._write_content(
                side, [0], self._content(content_seed, [survivor])
            )
        side_array.inject(0, array.error_vector(survivor))
        hits = np.flatnonzero(rng.random(self.group_size - 1) < self.p_multi)
        self._inject_multi_bit(rng, side_array, hits + 1)
        return side

    def _inject_conditioned(
        self, rng: np.random.Generator, array: STTRAMArray
    ) -> List[int]:
        """Inject the conditioned multi-fault pattern; returns hit frames.

        With a scenario overlay, one interval's burst events follow.
        """
        count = int(_sample_tail(rng, self._multi_tail, None))
        frames = sample_distinct(rng, self.group_size, count).tolist()
        self._inject_multi_bit(rng, array, frames)
        if self.scenario is not None:
            bursts = self.scenario.build_burst_injector(
                self.line_bits, rng, backend=self.backend
            )
            if bursts is not None:
                bursts.inject_frames(array)
        return frames

    def _inject_multi_bit(
        self, rng: np.random.Generator, array: STTRAMArray,
        frames: Sequence[int],
    ) -> None:
        """Give each of ``frames`` a fault count from the conditioned
        per-line tail, at distinct uniform bit positions."""
        if not len(frames):
            return
        counts = _sample_tail(rng, self._fault_tail, len(frames))
        for frame, count in zip(frames, counts):
            positions = sample_distinct(rng, self.line_bits, int(count))
            array.inject(
                int(frame),
                flip_bits(0, (int(p) for p in positions), width=self.line_bits),
            )

    # -- trials -----------------------------------------------------------------------

    def _repair(self, engine: SuDokuY) -> List[int]:
        """The engine's repair of its one group; returns surviving frames.

        PLT check, then scan -> SDR -> RAID-4: the Hash-1 group repair
        every SuDoku-Y campaign runs.  Survivors come back in the scan's
        order.
        """
        with self._telemetry.tracer.span("phase_scrub"):
            outcomes = engine._repair_hash1_group(0)
        return [frame for frame, outcome in outcomes.items() if outcome.is_due]

    def _conditioned_group(
        self, trial: int
    ) -> Tuple[np.random.Generator, SuDokuY, int]:
        """Trial ``trial``'s generator, its group with faults injected,
        and the group's content seed."""
        # Imported here, not at the top: repro.parallel imports this module.
        from repro.parallel.sharding import interval_generator

        rng = interval_generator(self.seed, trial)
        with self._telemetry.tracer.span("phase_inject"):
            engine, content_seed = self._fresh_group(rng)
            self._inject_conditioned(rng, engine.array)
        return rng, engine, content_seed

    def trial_y(self, trial: int) -> bool:
        """Conditioned trial ``trial`` of SuDoku-Y; True = the group failed."""
        _, engine, _ = self._conditioned_group(trial)
        return bool(self._repair(engine))

    def trial_z(self, trial: int) -> bool:
        """Conditioned trial ``trial`` of SuDoku-Z (one Hash-2 peeling level)."""
        rng, engine, content_seed = self._conditioned_group(trial)
        array = engine.array
        survivors = self._repair(engine)
        if not survivors:
            return False
        # Each survivor retries in its Hash-2 group.
        for survivor in survivors:
            with self._telemetry.tracer.span("phase_inject"):
                side = self._side_group(rng, array, survivor, content_seed)
            self._repair(side)
            if side.array.is_clean(0):
                array.restore(survivor, array.golden(survivor))
        # Hash-2 fixes feed back into a final Hash-1 attempt.
        return bool(self._repair(engine))

    # -- campaigns ---------------------------------------------------------------------

    def run(
        self,
        level: str,
        trials: int,
        telemetry: Optional[Telemetry] = None,
        progress=NULL_PROGRESS,
        checkpointer: Optional[Checkpointer] = None,
        deadline: Optional[Deadline] = None,
    ) -> ConditionalResult:
        """Run trials ``[trial_start, trial_start + trials)`` for 'Y' or 'Z'.

        :param telemetry: optional :class:`repro.obs.Telemetry` for the
            per-trial timing histogram; the trial, failure and
            checkpoint counters are published from the result when the
            run ends (RNG-neutral).
        :param progress: a :class:`repro.obs.ProgressReporter` fed once
            per conditioned trial.
        :param checkpointer: optional
            :class:`repro.resilience.checkpoint.Checkpointer`; trial
            boundaries are snapshot points, flushed on schedule,
            interrupt, deadline expiry, and completion.  A resumed
            campaign replays the exact trial sequence of an
            uninterrupted same-seed run: every trial draws only from
            its own seed-tree child, so the snapshot needs no RNG
            state.
        :param deadline: optional wall-clock
            :class:`repro.resilience.checkpoint.Deadline`; on expiry the
            campaign ends cleanly with partial results.

        ``KeyboardInterrupt`` is caught at the trial boundary and yields
        the partial result (``truncated=True``) instead of discarding
        completed trials.
        """
        trial = {"Y": self.trial_y, "Z": self.trial_z}.get(level.upper())
        if trial is None:
            raise ValueError("conditional campaigns support levels Y and Z")
        tel = resolve_telemetry(telemetry)
        # Phase spans (inject/scrub) and the trial engines' repair spans
        # record into the campaign's tracer for the duration of the run;
        # a null bundle swaps the no-op tracer back in.
        self._telemetry = tel
        label = level.upper()
        m_trial_time = tel.metrics.histogram(
            "raresim_trial_seconds",
            "Wall-clock time per conditioned trial.",
            labels=("level",),
            buckets=TRIAL_BUCKETS,
        ).labels(level=label)
        config_fingerprint = {
            "kind": "raresim",
            "level": label,
            "ber": self.ber,
            "group_size": self.group_size,
            "num_groups": self.num_groups,
            "interval_s": self.interval_s,
            "line_bits": self.line_bits,
            "sdr_max_mismatches": self.sdr_max_mismatches,
            "seed": self.seed,
            # Always present (None when no overlay): a scenario resume
            # refuses a scenario-free checkpoint.
            "scenario": (
                self.scenario.as_dict() if self.scenario is not None else None
            ),
        }
        failures = 0

        def restore(aggregates) -> None:
            nonlocal failures
            failures = int(aggregates.get("conditional_failures", 0))

        loop = BoundaryLoop(
            "raresim", config_fingerprint, checkpointer,
            first=self.trial_start,
            aggregates=lambda: {"conditional_failures": failures},
            restore=restore,
            tracer=tel.tracer, deadline=deadline, progress=progress,
        )

        def step(unit: int) -> None:
            nonlocal failures
            started = time.perf_counter() if tel.enabled else 0.0
            failed = trial(unit)
            if failed:
                failures += 1
            if tel.enabled:
                m_trial_time.observe(time.perf_counter() - started)

        completed, stop_reason = loop.run(trials, step, tel.tracer.span(
            "raresim_campaign", level=label, trials=trials, ber=self.ber,
            group_size=self.group_size,
        ))
        result = ConditionalResult(
            trials=completed,
            conditional_failures=failures,
            conditioning_probability=self.conditioning_probability,
            ber=self.ber,
            group_size=self.group_size,
            num_groups=self.num_groups,
            interval_s=self.interval_s,
            truncated=bool(stop_reason),
            stop_reason=stop_reason,
        )
        publish_tallies(tel.metrics, result, level=label, checkpointer=checkpointer)
        return result

