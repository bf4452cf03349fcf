"""Monte-Carlo fault-injection campaigns over the functional engines.

The paper's FIT targets (1e-4 and below) are unobservable by direct
simulation -- that would need ~1e18 simulated intervals.  The reproduction
strategy, mirroring section VII-A, is:

1. run campaigns at *accelerated* BERs (1e-4 .. 1e-2) where failures are
   common enough to measure, using the real bit-level engines; and
2. verify that the analytical models of
   :mod:`repro.reliability.sudokumodel` predict the measured failure
   frequencies at those BERs, which licenses quoting the analytical
   model at the paper's operating point.

Each campaign interval is independent: faults are injected, the engine
scrubs, outcomes are recorded, and all surviving corruption is healed
before the next interval (the golden copies make this exact).  That
interval-boundary invariant is also what makes campaigns *resumable*:
a checkpoint captured between intervals (RNG states + aggregates; see
:mod:`repro.resilience.checkpoint`) plus a deterministic re-fill fully
determines the rest of the run, so a killed-and-resumed campaign is
bit-identical to an uninterrupted one.

Chaos campaigns (:mod:`repro.resilience.chaos`) additionally corrupt
the correction metadata each interval and perturb the scrub schedule;
the boundary invariant is preserved by healing the array and running the
engine's metadata scrub (``audit_metadata``) at every interval end.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.engine import SuDokuEngine, build_engine
from repro.core.outcomes import Outcome, is_failure_label
from repro.core.rng import SeedLike, resolve_rng
from repro.obs import NULL_PROGRESS, Telemetry, resolve_telemetry
from repro.reliability.fit import (
    fit_from_interval_probability,
    mttf_seconds_from_interval_probability,
)
from repro.resilience.checkpoint import (
    BoundaryLoop,
    Checkpointer,
    CheckpointError,
    Deadline,
    numpy_rng_state,
    restore_numpy_rng_state,
)
from repro.resilience.chaos import ChaosInjector
from repro.sttram.array import STTRAMArray
from repro.sttram.faults import TransientFaultInjector

#: Bucket edges for per-interval wall-clock times: small validation
#: campaigns clear an interval in microseconds, paper-geometry ones take
#: seconds.
INTERVAL_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
)


@dataclass
class CampaignResult:
    """Aggregate of a fault-injection campaign.

    ``interval_failures`` counts intervals with at least one DUE (data-
    or metadata-caused) or SDC; the per-interval failure probability
    estimate and its Wilson interval follow from it.

    ``truncated`` marks a campaign that ended early (``stop_reason`` is
    ``"interrupted"`` or ``"deadline"``); ``intervals`` then reflects the
    intervals actually *completed*, so every derived estimate remains
    valid for the partial run.  ``metadata`` counts chaos events applied
    and residual metadata faults detected/rebuilt by the interval-end
    metadata scrub (empty for non-chaos campaigns).
    """

    intervals: int
    ber: float
    interval_s: float
    outcomes: Counter = field(default_factory=Counter)
    interval_failures: int = 0
    lines: int = 0
    truncated: bool = False
    stop_reason: str = ""
    metadata: Counter = field(default_factory=Counter)

    @property
    def failure_probability(self) -> float:
        """Point estimate of per-interval cache failure probability."""
        if self.intervals == 0:
            return 0.0
        return self.interval_failures / self.intervals

    def wilson_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Wilson score interval for the failure probability."""
        n = self.intervals
        if n == 0:
            return (0.0, 1.0)
        p = self.failure_probability
        denominator = 1.0 + z * z / n
        centre = (p + z * z / (2 * n)) / denominator
        margin = (
            z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denominator
        )
        return (max(0.0, centre - margin), min(1.0, centre + margin))

    def fit(self) -> float:
        """Measured FIT rate (infinite when every interval failed)."""
        return fit_from_interval_probability(
            min(self.failure_probability, 1.0 - 1e-15), self.interval_s
        )

    def mttf_seconds(self) -> float:
        """Measured MTTF."""
        return mttf_seconds_from_interval_probability(
            max(self.failure_probability, 1e-300), self.interval_s
        )

    def outcome_rate(self, label: str) -> float:
        """Mean occurrences of an outcome label per interval."""
        if self.intervals == 0:
            return 0.0
        return self.outcomes.get(label, 0) / self.intervals

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (``--result-out``, CI round-trip checks)."""
        return {
            "intervals": self.intervals,
            "ber": self.ber,
            "interval_s": self.interval_s,
            "outcomes": dict(self.outcomes),
            "interval_failures": self.interval_failures,
            "lines": self.lines,
            "truncated": self.truncated,
            "stop_reason": self.stop_reason,
            "metadata": dict(self.metadata),
            "failure_probability": self.failure_probability,
        }


def heal(array: STTRAMArray) -> None:
    """Restore every corrupted line to its golden value (between trials).

    O(dirty) via the array's dirty-frame set, not O(lines).
    """
    for frame in array.faulty_lines():
        array.restore(frame, array.golden(frame))


#: Valid values for the campaign ``scrub_mode`` knob.
SCRUB_MODES = ("sparse", "dense")


def require_scrub_mode(scrub_mode: str) -> None:
    """The one ``scrub_mode`` check every campaign entry point runs.

    :raises ValueError: for anything outside :data:`SCRUB_MODES`.
    """
    if scrub_mode not in SCRUB_MODES:
        raise ValueError(
            f"scrub_mode must be one of {SCRUB_MODES}, got {scrub_mode!r}"
        )


def _dense_walk(num_lines: int, dirty, visits) -> list:
    """Full-pass visit order for dense-mode scrubs.

    Every line is visited in index order; the faulty frames follow their
    (possibly chaos-perturbed) schedule -- a dropped visit is omitted, a
    duplicated one repeated -- so the sequence of non-trivial decodes is
    identical to what the sparse path replays.
    """
    multiplicity = Counter(visits)
    dirty_set = set(dirty)
    walk = []
    # A dense pass is defined as visiting every line in index order;
    # O(lines) is the semantics here, not an accident (sparse mode is
    # the fast path that skips this entirely).
    # repro-lint: disable=RPR009
    for frame in range(num_lines):
        if frame in dirty_set:
            walk.extend([frame] * multiplicity.get(frame, 0))
        else:
            walk.append(frame)
    return walk


def _aggregates(result: CampaignResult) -> Dict[str, object]:
    """The running tallies a campaign checkpoint carries."""
    return {
        "outcomes": dict(result.outcomes),
        "interval_failures": result.interval_failures,
        "metadata": dict(result.metadata),
    }


def _restore_aggregates(
    result: CampaignResult, aggregates: Dict[str, object]
) -> None:
    result.outcomes = Counter(aggregates.get("outcomes", {}))
    result.interval_failures = int(aggregates.get("interval_failures", 0))
    result.metadata = Counter(aggregates.get("metadata", {}))


def _finish(result: CampaignResult, completed: int, stop_reason: str) -> None:
    result.intervals = completed
    result.truncated = bool(stop_reason)
    result.stop_reason = stop_reason


def _run_interval(
    engine,
    inject: Callable[[], List[int]],
    result: CampaignResult,
    *,
    chaos: Optional[ChaosInjector],
    scrub_mode: str,
    heal: Callable[[STTRAMArray], None],
    tracer,
    canonical: bool,
    chaos_events=None,
) -> Tuple[Dict[str, int], bool, List[int]]:
    """One inject -> scrub -> failure check -> heal interval.

    ``inject()`` applies the interval's faults and returns the
    (pre-perturbation) dirty frames; outcomes, failures, and chaos
    events accumulate on ``result``.  ``heal`` is each loop's own module
    attribute.  Returns ``(counts, failed, dirty)``.

    The interval ends in the boundary state the next one (and any
    checkpoint) assumes.  A failure heals the array and restores
    ground-truth parities: a DUE may have triggered a parity rebuild
    over still-corrupt words (write-path poisoning semantics).  Chaos
    heals the array and runs the engine's metadata scrub, so dropped
    visits and undetected metadata corruption cannot leak across the
    boundary.  ``canonical`` runs (scenarios) also heal every interval
    and re-initialise parities after chaos, so each interval starts
    from a pure function of the config.
    """
    array = engine.array
    with tracer.span("phase_inject"):
        events = []
        if chaos is not None and hasattr(engine, "_tables"):
            # Metadata chaos needs a parity-table surface; schemes
            # without one (plain per-line ECC) still see the schedule
            # chaos below.
            events.append(chaos.corrupt_metadata(engine))
        dirty = inject()
        visits = dirty
        if chaos is not None:
            visits, applied = chaos.perturb_visits(visits)
            events.append(applied)
        for applied in events:
            result.metadata.update(applied)
            if chaos_events is not None:
                for event, count in applied.items():
                    chaos_events.labels(event=event).inc(count)
    with tracer.span("phase_scrub"):
        if scrub_mode == "dense":
            counts = engine.scrub_frames(
                _dense_walk(array.num_lines, dirty, visits)
            )
        else:
            # Sparse fast path: decode the scheduled dirty visits only;
            # every frame outside the (pre-perturbation) dirty set is a
            # valid codeword and bulk-accounts as clean -- exactly the
            # outcomes a dense walk records for those lines.
            sparse_counts = Counter(engine.scrub_frames(visits))
            bulk_clean = array.num_lines - len(dirty)
            account = getattr(engine, "account_bulk_clean", None)
            if account is not None:
                account(bulk_clean)
            sparse_counts[Outcome.CLEAN.value] += bulk_clean
            counts = dict(sparse_counts)
    result.outcomes.update(counts)
    failed = any(
        count and is_failure_label(label) for label, count in counts.items()
    )
    with tracer.span("phase_correct"):
        if failed:
            result.interval_failures += 1
        if failed or chaos is not None or canonical:
            heal(array)
        if failed or (canonical and chaos is not None):
            initialize = getattr(engine, "initialize_parities", None)
            if initialize is not None:
                initialize()
        if chaos is not None:
            audit = getattr(engine, "audit_metadata", None)
            if audit is not None:
                audit_report = audit(repair=True)
                for key in ("crc_faults", "recompute_faults", "rebuilt"):
                    if audit_report.get(key):
                        result.metadata["residual_" + key] += audit_report[key]
    return counts, failed, dirty


def run_engine_campaign(
    engine: SuDokuEngine,
    ber: float,
    intervals: int,
    interval_s: float = 0.020,
    rng: Optional[np.random.Generator] = None,
    randomize_content: bool = True,
    telemetry: Optional[Telemetry] = None,
    progress=NULL_PROGRESS,
    chaos: Optional[ChaosInjector] = None,
    checkpointer: Optional[Checkpointer] = None,
    deadline: Optional[Deadline] = None,
    scrub_mode: str = "sparse",
    seed: Optional[SeedLike] = None,
    backend: Optional[str] = None,
) -> CampaignResult:
    """Inject-scrub-heal for ``intervals`` independent intervals.

    :param engine: a formatted SuDoku engine (or any object with the same
        array / scrub_frames / write_data interface, e.g. the baselines).
    :param ber: accelerated per-bit flip probability per interval.
    :param backend: optional kernel backend name (``"reference"`` or
        ``"numpy"``); when given, the engine and the fault injector route
        their bulk operations through it.  Backends are bit-identical by
        contract, so checkpoints deliberately omit the choice -- a
        reference run may be resumed on numpy and vice versa.
    :param scrub_mode: ``"sparse"`` (default) scrubs only the frames the
        array's dirty index reports and bulk-accounts the rest as
        ``clean``; ``"dense"`` decodes every line of the array each
        interval.  The two modes draw the identical RNG sequence and
        produce bit-identical outcome counters per seed (the golden
        equivalence tests pin this, including under chaos), so
        checkpoints deliberately omit the mode -- a dense run may be
        resumed sparse and vice versa.  ``"dense"`` exists as the
        trust-nothing audit mode; see docs/performance.md.
    :param randomize_content: write random data once before the campaign
        (recommended; all-zero content makes overlap pathologies invisible
        to content-sensitive bugs the campaign exists to catch).
    :param telemetry: optional :class:`repro.obs.Telemetry`; when given it
        is also attached to the engine, so per-mechanism counters and
        repair spans are recorded alongside the campaign-level series.
        Telemetry never touches the RNG stream: results are bit-identical
        with it on or off.
    :param progress: a :class:`repro.obs.ProgressReporter` (default: the
        shared no-op) fed once per interval.
    :param chaos: optional :class:`repro.resilience.chaos.ChaosInjector`;
        each interval it corrupts the engine's parity metadata and
        perturbs the scrub visit list.  It draws from its *own* RNG, so
        ``chaos=None`` and an all-zero policy are bit-identical.
    :param checkpointer: optional
        :class:`repro.resilience.checkpoint.Checkpointer`; snapshots are
        taken at interval boundaries and flushed on schedule, interrupt,
        deadline expiry, and completion.  When its ``resume`` payload is
        set, the campaign validates it against the current parameters and
        continues where the snapshot left off (pass a *freshly built*
        engine -- content is re-derived deterministically).
    :param deadline: optional wall-clock
        :class:`repro.resilience.checkpoint.Deadline`; on expiry the
        campaign ends cleanly with partial results
        (``truncated=True, stop_reason="deadline"``).

    ``KeyboardInterrupt`` mid-campaign is caught at the interval
    boundary: the partial result is returned (``truncated=True,
    stop_reason="interrupted"``) with the last boundary snapshot flushed,
    instead of discarding completed intervals.
    """
    require_scrub_mode(scrub_mode)
    if backend is not None:
        setter = getattr(engine, "set_backend", None)
        if setter is not None:
            setter(backend)
    generator = resolve_rng(rng, seed, owner="run_engine_campaign")
    tel = resolve_telemetry(telemetry)
    if telemetry is not None:
        attach = getattr(engine, "attach_telemetry", None)
        if attach is not None:
            attach(telemetry)
    metrics = tel.metrics
    m_interval = metrics.histogram(
        "campaign_interval_seconds",
        "Wall-clock time per campaign interval (inject + scrub + heal).",
        buckets=INTERVAL_BUCKETS,
    )
    m_intervals = metrics.counter(
        "campaign_intervals_total", "Campaign intervals completed."
    )
    m_failures = metrics.counter(
        "campaign_interval_failures_total",
        "Intervals with at least one DUE or SDC.",
    )
    m_outcomes = metrics.counter(
        "campaign_outcomes_total",
        "Line outcomes accumulated across campaign intervals.",
        labels=("outcome",),
    )
    m_faulty = metrics.histogram(
        "campaign_faulty_lines_per_interval",
        "Lines hit by at least one injected fault, per interval.",
        buckets=(0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 10000),
    )
    m_chaos = metrics.counter(
        "chaos_events_total",
        "Metadata chaos events applied to the engine.",
        labels=("event",),
    )
    m_checkpoints = metrics.counter(
        "campaign_checkpoint_writes_total", "Campaign checkpoints flushed."
    )

    array = engine.array
    level = getattr(engine, "level", "?")
    config_fingerprint: Dict[str, object] = {
        "kind": "montecarlo",
        "level": str(level),
        "ber": ber,
        "intervals": intervals,
        "interval_s": interval_s,
        "lines": array.num_lines,
        "line_bits": array.line_bits,
        "group_size": getattr(engine, "group_size", None),
        "randomize_content": bool(randomize_content),
        "chaos": chaos.policy.as_dict() if chaos is not None else None,
    }
    result = CampaignResult(
        intervals=intervals, ber=ber, interval_s=interval_s, lines=array.num_lines
    )
    fill_seed: Optional[int] = None

    def restore(aggregates: Dict[str, object]) -> None:
        nonlocal fill_seed
        _restore_aggregates(result, aggregates)
        raw_fill_seed = aggregates.get("fill_seed")
        fill_seed = int(raw_fill_seed) if raw_fill_seed is not None else None
        if randomize_content and fill_seed is None:
            raise CheckpointError(
                "checkpoint is missing the content fill seed; cannot "
                "re-derive the campaign's array content"
            )

    def rng_state() -> Dict[str, object]:
        block: Dict[str, object] = {"numpy": numpy_rng_state(generator)}
        if chaos is not None:
            block["chaos"] = chaos.rng_state()
        return block

    def restore_rng(block: Dict[str, object]) -> None:
        # RNG states are captured at interval boundaries, and the
        # content re-fill below draws from its own seeded stream, so
        # the restored streams replay the exact random sequence the
        # uninterrupted run would have seen.
        restore_numpy_rng_state(generator, block["numpy"])
        if chaos is not None and "chaos" in block:
            chaos.restore_rng_state(block["chaos"])

    loop = BoundaryLoop(
        "montecarlo", config_fingerprint, checkpointer,
        aggregates=lambda: {**_aggregates(result), "fill_seed": fill_seed},
        restore=restore, rng_state=rng_state, restore_rng=restore_rng,
        telemetry=tel, flushes=m_checkpoints, deadline=deadline,
        progress=progress,
    )
    if randomize_content:
        if fill_seed is None:  # a fresh run; a resume restored the seed
            fill_seed = int(generator.integers(0, 2 ** 63))
        _fill_random_through_engine(engine, fill_seed)
    injector = TransientFaultInjector(
        array.line_bits, ber, generator,
        backend=getattr(engine, "backend", None),
    )

    def inject() -> List[int]:
        dirty = injector.inject_frames(array)
        if array.has_permanent_faults:
            # Stuck-conflicting lines are permanently dirty even when no
            # transient landed on them this interval; the sparse pass
            # must keep visiting them to stay bit-identical to dense.
            dirty = array.dirty_frames()
        return dirty

    # Per-phase spans are attribute-free: a live tracer pays two clock
    # reads per span, the NullTracer pays one no-op call, and either way
    # the RNG stream is untouched.
    tracer = tel.tracer

    def step(_unit: int) -> None:
        started = time.perf_counter() if tel.enabled else 0.0
        counts, failed, dirty = _run_interval(
            engine, inject, result, chaos=chaos, scrub_mode=scrub_mode,
            heal=heal, tracer=tracer, canonical=False,
            chaos_events=m_chaos if tel.enabled else None,
        )
        if tel.enabled:
            m_intervals.inc()
            if failed:
                m_failures.inc()
            m_faulty.observe(len(dirty))
            for label, count in counts.items():
                m_outcomes.labels(outcome=label).inc(count)
            m_interval.observe(time.perf_counter() - started)

    completed, stop_reason = loop.run(intervals, step, tracer.span(
        "campaign", level=level, ber=ber, intervals=intervals,
        lines=array.num_lines,
    ))
    _finish(result, completed, stop_reason)
    if telemetry is not None:
        stats = getattr(engine, "stats", None)
        if stats is not None:
            stats.publish_to(metrics, level=str(level))
    return result


def run_group_campaign(
    level: str,
    ber: float,
    trials: int,
    group_size: int = 64,
    interval_s: float = 0.020,
    rng: Optional[np.random.Generator] = None,
    telemetry: Optional[Telemetry] = None,
    progress=NULL_PROGRESS,
    chaos: Optional[ChaosInjector] = None,
    checkpointer: Optional[Checkpointer] = None,
    deadline: Optional[Deadline] = None,
    scrub_mode: str = "sparse",
    seed: Optional[SeedLike] = None,
    backend: Optional[str] = None,
) -> CampaignResult:
    """Single-cache campaign sized for group-level statistics.

    Builds a compact engine (``group_size^2`` lines so SuDoku-Z's skewed
    hash is valid) and runs :func:`run_engine_campaign` -- the analytical
    model evaluated at the same geometry is the comparison target.  The
    resilience knobs (``chaos``, ``checkpointer``, ``deadline``),
    ``scrub_mode``, and ``backend`` pass straight through.
    """
    from repro.core.linecodec import LineCodec

    codec = LineCodec()
    num_lines = group_size * group_size
    array = STTRAMArray(num_lines, codec.stored_bits)
    engine = build_engine(
        level, array, group_size=group_size, codec=codec, backend=backend
    )
    return run_engine_campaign(
        engine, ber, trials, interval_s=interval_s, rng=rng,
        randomize_content=False, telemetry=telemetry, progress=progress,
        chaos=chaos, checkpointer=checkpointer, deadline=deadline,
        scrub_mode=scrub_mode, seed=seed,
    )


def _fill_random_through_engine(engine: SuDokuEngine, seed: int) -> None:
    """Write random content via the engine so parities stay consistent.

    The content stream is a ``random.Random(seed)`` so a resumed
    campaign can re-derive the identical array from the checkpointed
    seed without consuming the campaign generator.
    """
    import random as _random

    local = _random.Random(seed)
    data_bits = engine.data_bits
    # Each write must go through engine.write_data so the parity tables
    # track the content; there is no bulk engine write to route to.
    # repro-lint: disable=RPR009
    for frame in range(engine.array.num_lines):
        engine.write_data(frame, local.getrandbits(data_bits))


def agreement_ratio(measured: float, predicted: float) -> float:
    """measured/predicted, guarding zeros (used by validation tests)."""
    if predicted <= 0.0:
        return float("inf") if measured > 0 else 1.0
    return measured / predicted
