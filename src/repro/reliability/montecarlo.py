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

Determinism model
-----------------

Each campaign interval is independent: faults are injected, the engine
scrubs, outcomes are recorded, and all surviving corruption is healed
before the next interval (the golden copies make this exact).  Every
random quantity derives from one root seed -- drawn once from the
caller's ``rng`` (or ``seed``) -- through a ``SeedSequence`` tree keyed
by **global interval index**:

* child ``(0,)`` -- the content fill, when content is randomized;
* child ``(1,)`` -- the stuck-at fault map (scenario campaigns only);
* child ``(2 + i,)`` -- interval ``i``'s transient (and burst) draws;
* ``interval_python_seed(chaos_seed, i)`` -- interval ``i``'s chaos
  injector, built fresh each interval.

Because ``SeedSequence(seed, spawn_key=(k,))`` is a pure function of
``(seed, k)``, a shard that owns intervals ``[a, b)`` consumes exactly
the randomness the serial run consumes for those intervals, and a
checkpoint captured between intervals needs **no RNG state**: resuming
at interval ``i`` re-derives child ``(2 + i,)``.  Serial, K-shard,
and resumed runs of one seed are therefore bit-identical, and so is the
dense audit walk the tests run through :data:`_DENSE`.
:mod:`repro.reliability.scenario` runs its mixed-fault campaigns
through the same interval loop.

Chaos campaigns (:mod:`repro.resilience.chaos`) additionally corrupt
the correction metadata each interval and perturb the scrub schedule;
the boundary invariant is preserved by healing the array and
re-deriving every parity entry from it at every chaos interval's end.
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
from repro.reliability.tallies import publish_tallies
from repro.resilience.checkpoint import BoundaryLoop, Checkpointer, Deadline
from repro.resilience.chaos import ChaosInjector, ChaosPolicy
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
    (empty for non-chaos campaigns).
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


#: Test oracle seam: when true, :func:`_run_intervals` stores every
#: drawn flip and scrubs every line in index order (:func:`_dense_walk`)
#: instead of only the dirty frames.  Read at call time; no entry point
#: sets it -- the equivalence tests patch it to check that the sparse
#: scrub and the ECC-1-only split equal the dense audit walk.
_DENSE = False


def _dense_walk(num_lines: int, dirty, visits) -> list:
    """Full-pass visit order for the dense audit walk.

    Every line is visited in index order; the faulty frames follow their
    (possibly chaos-perturbed) schedule -- a dropped visit is omitted, a
    duplicated one repeated -- so the sequence of non-trivial decodes is
    identical to what the sparse path replays.
    """
    multiplicity = Counter(visits)
    dirty_set = set(dirty)
    walk = []
    # A dense pass is defined as visiting every line in index order;
    # O(lines) is the semantics here, not an accident (the sparse scrub
    # is the production path that skips this entirely).
    # repro-lint: disable=RPR009
    for frame in range(num_lines):
        if frame in dirty_set:
            walk.extend([frame] * multiplicity.get(frame, 0))
        else:
            walk.append(frame)
    return walk


#: An interval with no transient flips.
_NO_FLIPS = np.empty(0, dtype=np.int64)


def _split_ecc1_only(
    flips: np.ndarray, line_bits: int, mappers, anchors: List[int]
) -> Tuple[np.ndarray, Dict[int, int]]:
    """Split drawn flips into those the array stores and ECC-1-only frames.

    ``flips`` are distinct flat bit indices (index ``i`` flips bit
    ``i % line_bits`` of line ``i // line_bits``); ``anchors`` are the
    frames already dirty, stuck or burst-hit.  A frame is ECC-1-only
    when its one flip is the only one drawn on it, it is not an anchor,
    and no mapper puts it in a group with an anchor or a multi-flip
    line.  Group scans start only from uncorrectable frames, which are
    all anchors or multi-flip lines, so no scan can read such a frame
    (see ``SuDokuEngine.scrub_frames``).  ``mappers`` is never empty:
    an anchor shares every group it is in, itself included, so the
    group check alone drops a flip on an anchor.

    Returns the flips to store and ``{frame: bit}`` of the ECC-1-only
    frames, ascending by frame.
    """
    flips = np.sort(flips)
    lines = flips // line_bits
    # Sorted flat indices are sorted by line: a flip is its line's only
    # one when neither neighbour is on the same line.
    lone = np.ones(len(lines), dtype=bool)
    shared = lines[1:] == lines[:-1]
    lone[1:] &= ~shared
    lone[:-1] &= ~shared
    blocked = np.concatenate(
        [lines[~lone], np.asarray(anchors, dtype=np.int64)]
    )
    if blocked.size:
        for mapper in mappers:
            hit = np.zeros(mapper.num_groups, dtype=bool)
            hit[mapper.groups_of(blocked)] = True
            lone &= ~hit[mapper.groups_of(lines)]
    ecc1_only = dict(
        zip(lines[lone].tolist(), (flips[lone] % line_bits).tolist())
    )
    return flips[~lone], ecc1_only


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


def run_engine_campaign(
    engine: SuDokuEngine,
    ber: float,
    intervals: int,
    interval_s: float = 0.020,
    rng: Optional[np.random.Generator] = None,
    randomize_content: bool = True,
    telemetry: Optional[Telemetry] = None,
    progress=NULL_PROGRESS,
    chaos_policy: Optional[ChaosPolicy] = None,
    checkpointer: Optional[Checkpointer] = None,
    deadline: Optional[Deadline] = None,
    seed: Optional[SeedLike] = None,
    backend: Optional[str] = None,
    *,
    chaos_seed: int = 0,
    interval_start: int = 0,
) -> CampaignResult:
    """Inject-scrub-heal for ``intervals`` independent intervals.

    Runs global intervals ``[interval_start, interval_start +
    intervals)`` of the campaign rooted at one seed drawn from ``rng``
    (or from ``seed``); a shard passes its slice via ``interval_start``,
    the serial run passes 0.  See the module docstring for the seed
    tree, which is what makes a K-shard or resumed run equal the serial
    run.

    Each interval scrubs only the frames the array's dirty index
    reports and bulk-accounts the rest as ``clean``: every other line
    holds a valid codeword, so a dense walk over the whole array
    records the same outcomes (the equivalence tests pin this through
    :data:`_DENSE`, chaos included).  On a batched backend the scrub
    also never stores an *ECC-1-only* flip: one flip on an otherwise
    clean, unstuck line that shares no Hash-1 or Hash-2 group with a
    multi-bit, dirty, stuck or burst-hit line.  Group scans start only
    from uncorrectable frames and their groups, so no scan can reach
    such a line, and ECC-1 repairs it when it is visited; the engine
    counts that repair without storing the flip.  Results are
    bit-identical.

    :param engine: a formatted SuDoku engine (or any object with the same
        array / scrub_frames / write_data interface, e.g. the baselines).
    :param ber: accelerated per-bit flip probability per interval.
    :param rng: the source of the campaign's root seed, taken in one
        draw; ``seed=s`` is the same as ``rng=default_rng(s)``.
    :param backend: optional kernel backend name (``"reference"`` or
        ``"numpy"``); when given, the engine and the fault injector route
        their bulk operations through it.  Backends are bit-identical by
        contract, so checkpoints deliberately omit the choice -- a
        reference run may be resumed on numpy and vice versa.
    :param randomize_content: write random data once before the campaign,
        from seed-tree child ``(0,)`` (recommended; all-zero content
        makes overlap pathologies invisible to content-sensitive bugs
        the campaign exists to catch).
    :param telemetry: optional :class:`repro.obs.Telemetry`; when given it
        is also attached to the engine, so repair spans are recorded
        alongside the campaign-level series, and the engine's and the
        campaign's tallies are published when the campaign ends
        (:func:`repro.reliability.tallies.publish_tallies`).  Telemetry
        never touches the RNG stream: results are bit-identical with it
        on or off.
    :param progress: a :class:`repro.obs.ProgressReporter` (default: the
        shared no-op) fed once per interval.
    :param chaos_policy: optional
        :class:`repro.resilience.chaos.ChaosPolicy`; each interval a fresh
        :class:`ChaosInjector` seeded from ``(chaos_seed, index)``
        corrupts the engine's parity metadata and perturbs the scrub
        visit list.  A disabled (all-zero) policy is the same as none.
    :param checkpointer: optional
        :class:`repro.resilience.checkpoint.Checkpointer`; snapshots are
        taken at interval boundaries and flushed on schedule, interrupt,
        deadline expiry, and completion.  When its ``resume`` payload is
        set, the campaign validates it against the current parameters
        (root seed included) and runs only the intervals its ``done``
        ranges leave out (pass a *freshly built* engine -- content is
        re-derived from the seed).
    :param deadline: optional wall-clock
        :class:`repro.resilience.checkpoint.Deadline`; on expiry the
        campaign ends cleanly with partial results
        (``truncated=True, stop_reason="deadline"``).

    ``KeyboardInterrupt`` mid-campaign is caught at the interval
    boundary: the partial result is returned (``truncated=True,
    stop_reason="interrupted"``) with the last boundary snapshot flushed,
    instead of discarding completed intervals.
    """
    if backend is not None:
        setter = getattr(engine, "set_backend", None)
        if setter is not None:
            setter(backend)
    root = int(
        resolve_rng(rng, seed, owner="run_engine_campaign").integers(0, 2 ** 63)
    )
    array = engine.array
    level = str(getattr(engine, "level", "?"))
    config: Dict[str, object] = {
        "kind": "montecarlo",
        "level": level,
        "ber": ber,
        "interval_s": interval_s,
        "lines": array.num_lines,
        "line_bits": array.line_bits,
        "group_size": getattr(engine, "group_size", None),
        "randomize_content": bool(randomize_content),
        "seed": root,
        "chaos": chaos_policy.as_dict() if chaos_policy is not None else None,
        "chaos_seed": chaos_seed if chaos_policy is not None else None,
    }
    if randomize_content:
        _fill_random_through_engine(engine, root)
    return _run_intervals(
        engine, ber, intervals, interval_s, config, level=level, seed=root,
        interval_start=interval_start, burst=None, chaos_policy=chaos_policy,
        chaos_seed=chaos_seed, telemetry=telemetry, progress=progress,
        checkpointer=checkpointer, deadline=deadline,
    )


def _run_intervals(
    engine,
    ber: float,
    intervals: int,
    interval_s: float,
    config: Dict[str, object],
    *,
    level: str,
    seed: int,
    interval_start: int,
    burst: Optional[Callable[[np.random.Generator], object]],
    chaos_policy: Optional[ChaosPolicy],
    chaos_seed: int,
    telemetry: Optional[Telemetry],
    progress,
    checkpointer: Optional[Checkpointer],
    deadline: Optional[Deadline],
) -> CampaignResult:
    """The one interval loop behind Monte-Carlo and scenario campaigns.

    Interval ``i`` (global index) draws its transient faults, then its
    bursts (``burst(stream)`` returns an injector, or ``None``), from
    ``interval_generator(seed, 2 + i)``; with a live chaos policy a
    fresh injector seeded from ``(chaos_seed, i)`` corrupts the parity
    metadata first and perturbs the visit list after.  ``config`` is the
    checkpoint fingerprint; its ``"kind"`` names the snapshot kind.

    Every interval ends in the same boundary state, whatever ran: the
    array is healed (``heal`` is looked up on this module each time, so
    a wrapper installed on it sees every call), and parities are
    re-initialised after a failure or chaos (a DUE may have triggered a
    parity rebuild over still-corrupt words, write-path poisoning
    semantics; chaos corrupted entries).  So the state entering
    interval ``i`` is a pure function of the config, and a checkpoint
    needs no RNG state.

    Where the engine resolves ECC-1-only frames
    (:attr:`SuDokuEngine.resolves_single_flips`), the flips are drawn as
    before but only those a group repair can see are stored
    (:func:`_split_ecc1_only`); the rest stay in the visit list, where
    chaos can drop or duplicate them, and in the faulty-line count.
    With :data:`_DENSE` set, every flip is stored and every line is
    scrubbed: the oracle both shortcuts are tested against.
    """
    # Imported here, not at the top: repro.parallel imports this module.
    from repro.parallel.sharding import interval_generator, interval_python_seed

    if intervals < 0:
        raise ValueError("intervals must be non-negative")
    if interval_start < 0:
        raise ValueError("interval_start must be non-negative")
    if chaos_policy is not None and not chaos_policy.enabled:
        chaos_policy = None
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
    m_faulty = metrics.histogram(
        "campaign_faulty_lines_per_interval",
        "Lines hit by at least one injected fault, per interval.",
        buckets=(0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 10000),
    )

    array = engine.array
    kernels = getattr(engine, "backend", None)
    result = CampaignResult(
        intervals=intervals, ber=ber, interval_s=interval_s, lines=array.num_lines
    )
    loop = BoundaryLoop(
        str(config["kind"]), config, checkpointer, first=interval_start,
        aggregates=lambda: _aggregates(result),
        restore=lambda aggregates: _restore_aggregates(result, aggregates),
        tracer=tel.tracer, deadline=deadline, progress=progress,
    )
    metadata_chaos = hasattr(engine, "_tables")
    initialize = getattr(engine, "initialize_parities", None)
    # The reference backend and the dense walk store every flip: they
    # are the oracles the split is tested against.
    dense = _DENSE
    split = not dense and getattr(engine, "resolves_single_flips", False)
    mappers = [mapper for _, mapper in engine._tables()] if split else []
    # The array absorbs a flip on a stuck cell, so every stuck line
    # stores its flips, dirty or not.
    fault_map = array.permanent_faults
    stuck = (
        sorted(set(fault_map.stuck_at_one) | set(fault_map.stuck_at_zero))
        if fault_map is not None
        else []
    )
    # Per-phase spans are attribute-free: a live tracer pays two clock
    # reads per span, the NullTracer pays one no-op call, and either way
    # the RNG stream is untouched.
    tracer = tel.tracer

    def step(index: int) -> None:
        started = time.perf_counter() if tel.enabled else 0.0
        stream = interval_generator(seed, 2 + index)
        chaos = (
            ChaosInjector(
                chaos_policy, seed=interval_python_seed(chaos_seed, index)
            )
            if chaos_policy is not None
            else None
        )
        with tracer.span("phase_inject"):
            events = []
            if chaos is not None and metadata_chaos:
                # Metadata chaos needs a parity-table surface; schemes
                # without one (plain per-line ECC) still see the schedule
                # chaos below.
                events.append(chaos.corrupt_metadata(engine))
            flips = _NO_FLIPS
            if ber > 0:
                transient = TransientFaultInjector(
                    array.line_bits, ber, stream, backend=kernels
                )
                if split:
                    flips = transient.draw_flips(array.num_lines)
                else:
                    transient.inject_frames(array)
            injector = burst(stream) if burst is not None else None
            if injector is not None:
                injector.inject_frames(array)
            ecc1_only: Dict[int, int] = {}
            if len(flips):
                # Store only the flips a group repair can see; the rest
                # are ECC-1-only frames, resolved without the array.
                stored, ecc1_only = _split_ecc1_only(
                    flips, array.line_bits, mappers,
                    array.dirty_frames() + stuck,
                )
                if len(stored):
                    array.inject_many(
                        kernels.scatter_fault_vectors(stored, array.line_bits)
                    )
            # This interval's hits plus any permanently-dirty stuck
            # lines: the sparse pass must visit both to match dense.
            dirty = array.dirty_frames()
            faulty = sorted(dirty + list(ecc1_only)) if ecc1_only else dirty
            visits = faulty
            if chaos is not None:
                visits, applied = chaos.perturb_visits(visits)
                events.append(applied)
            for applied in events:
                result.metadata.update(applied)
        with tracer.span("phase_scrub"):
            if dense:
                counts = engine.scrub_frames(
                    _dense_walk(array.num_lines, dirty, visits)
                )
            else:
                # Decode the scheduled dirty visits only; every frame
                # outside the (pre-perturbation) dirty set is a valid
                # codeword and bulk-accounts as clean -- exactly the
                # outcomes a dense walk records for them.
                sparse_counts = Counter(
                    engine.scrub_frames(visits, ecc1_only)
                    if ecc1_only
                    else engine.scrub_frames(visits)
                )
                bulk_clean = array.num_lines - len(faulty)
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
            heal(array)
            if (failed or chaos is not None) and initialize is not None:
                initialize()
        if tel.enabled:
            m_faulty.observe(len(faulty))
            m_interval.observe(time.perf_counter() - started)

    completed, stop_reason = loop.run(intervals, step, tracer.span(
        "campaign", level=level, ber=ber, intervals=intervals,
        lines=array.num_lines,
    ))
    result.intervals = completed
    result.truncated = bool(stop_reason)
    result.stop_reason = stop_reason
    publish_tallies(
        metrics, result, level=level, checkpointer=checkpointer,
        stats=getattr(engine, "stats", None),
    )
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
    chaos_policy: Optional[ChaosPolicy] = None,
    checkpointer: Optional[Checkpointer] = None,
    deadline: Optional[Deadline] = None,
    seed: Optional[SeedLike] = None,
    backend: Optional[str] = None,
    *,
    chaos_seed: int = 0,
    interval_start: int = 0,
) -> CampaignResult:
    """Single-cache campaign sized for group-level statistics.

    Builds a compact engine (``group_size^2`` lines so SuDoku-Z's skewed
    hash is valid) and runs :func:`run_engine_campaign` -- the analytical
    model evaluated at the same geometry is the comparison target.  The
    resilience knobs (``chaos_policy``/``chaos_seed``, ``checkpointer``,
    ``deadline``), ``backend`` and ``interval_start`` pass straight
    through.
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
        chaos_policy=chaos_policy, checkpointer=checkpointer,
        deadline=deadline, seed=seed,
        chaos_seed=chaos_seed, interval_start=interval_start,
    )


def _fill_random_through_engine(engine: SuDokuEngine, seed: int) -> None:
    """Write random content via the engine so parities stay consistent.

    The content stream is a ``random.Random`` seeded from child ``(0,)``
    of the campaign seed, so a resumed campaign or a shard re-derives
    the identical array from the seed alone.
    """
    import random as _random

    # Imported here, not at the top: repro.parallel imports this module.
    from repro.parallel.sharding import interval_generator

    local = _random.Random(int(interval_generator(seed, 0).integers(0, 2 ** 63)))
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
