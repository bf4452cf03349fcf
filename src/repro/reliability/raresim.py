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

Trial ``t`` (a global index) draws only from its own stream,
``random.Random(interval_python_seed(seed, t))``: the seed-tree child
``(seed, t)`` that Monte-Carlo and scenario intervals use too.  So a
K-shard run, which hands each shard a slice of trial indices, equals
the serial run at the same seed, and a checkpoint carries no RNG state.

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

if TYPE_CHECKING:  # pragma: no cover - cycle: scenario imports repro.parallel
    from repro.reliability.scenario import FaultScenario

from repro.coding.bitvec import random_error_vector
from repro.core.linecodec import LineCodec
from repro.core.plt_ import ParityLineTable
from repro.core.raid4 import reconstruct_line, scan_group
from repro.kernels import resolve_backend
from repro.core.sdr import resurrect
from repro.obs import NULL_PROGRESS, NullTracer, Telemetry, resolve_telemetry
from repro.reliability.binomial import binomial_pmf, binomial_tail, complement_power
from repro.reliability.fit import fit_from_interval_probability
from repro.reliability.tallies import publish_tallies
from repro.resilience.checkpoint import BoundaryLoop, Checkpointer, Deadline
from repro.sttram.array import STTRAMArray

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


def _draw(rng: random.Random, support: List[int], weights: List[float]) -> int:
    point = rng.random()
    cumulative = 0.0
    for value, weight in zip(support, weights):
        cumulative += weight
        if point <= cumulative:
            return value
    return support[-1]


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
    """Samples conditioned fault patterns and runs the real machinery."""

    #: Group scans consult the array's dirty-frame index and skip
    #: decoding known-clean lines -- the scan result is provably
    #: identical (see :func:`repro.core.raid4.scan_group`).  Test oracle
    #: seam: the equivalence tests set it false on an instance to run
    #: the trust-nothing full decode and compare trial outcomes.
    sparse = True

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
        self.ber = ber
        self.group_size = group_size
        self.num_groups = num_groups
        self.interval_s = interval_s
        self.codec = codec if codec is not None else LineCodec()
        self.sdr_max_mismatches = sdr_max_mismatches
        #: Optional mixed-fault overlay: each trial group is built with a
        #: freshly sampled stuck-at map (the spec's ppm density) and the
        #: conditioned transient pattern is augmented with one interval's
        #: burst events.  All extra draws come from the trial's stream,
        #: like every other draw of the trial.  The
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
        #: Kernel backend for bulk operations (parity folds, batched
        #: group decodes).  Bit-identical by contract and fed no RNG, so
        #: it is deliberately absent from the checkpoint fingerprint.
        self.backend = resolve_backend(backend)
        self.line_bits = self.codec.stored_bits
        #: Phase-span tracer; :meth:`run` swaps in the campaign's live
        #: tracer (RNG-neutral: spans never touch the trial stream).
        self._tracer = NullTracer()

        self.p_multi, self._fault_weights, self._multi_weights = (
            conditioned_weights(ber, group_size, self.line_bits)
        )
        self._fault_support = list(range(2, MAX_FAULTS_PER_LINE + 1))
        self._multi_support = list(range(2, MAX_MULTI_LINES + 1))
        #: P[the conditioning event]: >= 2 multi-bit lines in the group.
        self.conditioning_probability = binomial_tail(group_size, 2, self.p_multi)

    # -- group construction ----------------------------------------------------------

    def _trial_rng(self, trial: int) -> random.Random:
        """Trial ``trial``'s one stream: seed-tree child ``(seed, trial)``."""
        # Imported here, not at the top: repro.parallel imports this module.
        from repro.parallel.sharding import interval_python_seed

        return random.Random(interval_python_seed(self.seed, trial))

    def _fresh_group(
        self, rng: random.Random
    ) -> Tuple[STTRAMArray, ParityLineTable]:
        """A formatted G-line array with content, parity, and no faults.

        With a scenario overlay the group gets its stuck-at map attached
        *before* content is written, so the fill stores through the
        stuck bits (golden keeps the intent) -- the same setup order as
        scenario campaigns.  The parity is rebuilt over the golden
        words, so stuck bits appear to the repair machinery as what they
        physically are: pre-existing storage faults.  The content is
        drawn, encoded and written as one batch each: the same draws,
        codewords and stored words as one ``encode`` and ``write`` per
        line.
        """
        array = STTRAMArray(self.group_size, self.line_bits)
        if self.scenario is not None:
            stuck_map = self.scenario.sample_stuck_map_py(
                rng, self.group_size, self.line_bits
            )
            if stuck_map is not None:
                array.attach_permanent_faults(stuck_map)
        plt = ParityLineTable(1, self.line_bits, backend=self.backend)
        data_bits = self.codec.layout.data_bits
        getrandbits = rng.getrandbits
        words = self.codec.encode_many(
            [getrandbits(data_bits) for _ in range(self.group_size)]
        )
        array.write_many(range(self.group_size), words)
        plt.rebuild(0, words)
        return array, plt

    def _side_group(
        self, rng: random.Random, array: STTRAMArray, survivor: int
    ) -> Tuple[STTRAMArray, ParityLineTable]:
        """``survivor``'s Hash-2 group, the survivor aliased to slot 0.

        Fresh partner lines (disjoint from the Hash-1 group by the
        skewing invariant) with an unconditioned multi-fault background.
        The parity covers the golden words, as in :meth:`_fresh_group`:
        a side line's stuck bits stay faults for the repair to find.
        """
        side_array, side_plt = self._fresh_group(rng)
        side_array.write(0, array.golden(survivor))
        side_plt.rebuild(
            0, [side_array.golden(f) for f in range(self.group_size)]
        )
        side_array.inject(0, array.error_vector(survivor))
        self._inject_background(rng, side_array, exclude=0)
        return side_array, side_plt

    def _inject_conditioned(
        self, rng: random.Random, array: STTRAMArray
    ) -> List[int]:
        """Inject the conditioned multi-fault pattern; returns hit frames."""
        count = _draw(rng, self._multi_support, self._multi_weights)
        frames = rng.sample(range(self.group_size), count)
        for frame in frames:
            faults = _draw(rng, self._fault_support, self._fault_weights)
            array.inject(
                frame, random_error_vector(self.line_bits, faults, rng)
            )
        self._inject_scenario_bursts(rng, array)
        return frames

    def _inject_scenario_bursts(
        self, rng: random.Random, array: STTRAMArray
    ) -> None:
        """Overlay one interval's burst events onto the trial group."""
        if self.scenario is None:
            return
        vectors = self.scenario.sample_burst_vectors_py(
            rng, self.group_size, self.line_bits
        )
        for frame in sorted(vectors):
            array.inject(frame, vectors[frame])

    def _inject_background(
        self, rng: random.Random, array: STTRAMArray, exclude: int
    ) -> None:
        """Unconditioned multi-fault background for a Hash-2 side-group."""
        for frame in range(self.group_size):
            if frame == exclude:
                continue
            if rng.random() < self.p_multi:
                faults = _draw(rng, self._fault_support, self._fault_weights)
                array.inject(
                    frame, random_error_vector(self.line_bits, faults, rng)
                )

    # -- repair drivers ---------------------------------------------------------------

    def _batched_decoder(self, array: STTRAMArray, frames: Sequence[int]):
        """A scan decoder backed by one batched decode of ``frames``.

        ``frames`` are exactly the members the scan will decode (all of
        them, or only the dirty ones under ``sparse``); each is served
        from the memo while the stored word is unchanged, and anything
        rewritten mid-scan falls through to the scalar decode.  ``None``
        for non-batched backends -- the scan then uses ``codec.decode``
        directly, as before.
        """
        if not self.backend.batched:
            return None
        words = [array.read(frame) for frame in frames]
        decodes = self.backend.batch_decode(self.codec, words)
        memo = {
            frame: (stored, decode)
            for frame, stored, decode in zip(frames, words, decodes)
        }

        def decoder(frame: int, stored: int):
            entry = memo.get(frame)
            if entry is not None and entry[0] == stored:
                return entry[1]
            return self.codec.decode(stored)

        return decoder

    def _repair_y(self, array: STTRAMArray, plt: ParityLineTable) -> List[int]:
        """Full SuDoku-Y repair of one group; returns surviving frames."""
        with self._tracer.span("phase_scrub"):
            frames = range(self.group_size)
            split = array.split_clean(frames) if self.sparse else None
            scan = scan_group(
                array, self.codec, 0, frames,
                trusted_clean=self.sparse,
                decoder=self._batched_decoder(
                    array, frames if split is None else split[0]
                ),
                split=split,
            )
        with self._tracer.span("phase_correct"):
            if len(scan.uncorrectable) > 1:
                resurrect(
                    array, self.codec, plt, scan, self.sdr_max_mismatches
                )
            if len(scan.uncorrectable) == 1:
                reconstruct_line(
                    array, self.codec, plt, scan, scan.uncorrectable[0]
                )
        return list(scan.uncorrectable)

    def trial_y(self, trial: int) -> bool:
        """Conditioned trial ``trial`` of SuDoku-Y; True = the group failed."""
        rng = self._trial_rng(trial)
        with self._tracer.span("phase_inject"):
            array, plt = self._fresh_group(rng)
            self._inject_conditioned(rng, array)
        return bool(self._repair_y(array, plt))

    def trial_z(self, trial: int) -> bool:
        """Conditioned trial ``trial`` of SuDoku-Z (one Hash-2 peeling level)."""
        rng = self._trial_rng(trial)
        with self._tracer.span("phase_inject"):
            array, plt = self._fresh_group(rng)
            self._inject_conditioned(rng, array)
        survivors = self._repair_y(array, plt)
        if not survivors:
            return False
        # Each survivor retries in its Hash-2 group.
        for survivor in survivors:
            with self._tracer.span("phase_inject"):
                side_array, side_plt = self._side_group(rng, array, survivor)
            self._repair_y(side_array, side_plt)
            if side_array.is_clean(0):
                array.restore(survivor, array.golden(survivor))
        # Hash-2 fixes feed back into a final Hash-1 attempt.
        remaining = self._repair_y(array, plt)
        return bool(remaining)

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
        # Phase spans (inject/scrub/correct) record into the campaign's
        # tracer for the duration of the run; a null bundle swaps the
        # no-op tracer back in.
        self._tracer = tel.tracer
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
            "trials": trials,
            "group_size": self.group_size,
            "num_groups": self.num_groups,
            "interval_s": self.interval_s,
            "line_bits": self.line_bits,
            "sdr_max_mismatches": self.sdr_max_mismatches,
            "seed": self.seed,
            "trial_start": self.trial_start,
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
            aggregates=lambda: {"conditional_failures": failures},
            restore=restore,
            tracer=tel.tracer, deadline=deadline, progress=progress,
        )

        def step(relative: int) -> None:
            nonlocal failures
            started = time.perf_counter() if tel.enabled else 0.0
            failed = trial(self.trial_start + relative)
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

