"""Composable fault scenarios: transient + burst + stuck-at campaigns.

The i.i.d. thermal-flip model of :mod:`repro.reliability.montecarlo` is
the paper's primary workload, but real memories also see *bursts*
(multi-bit upsets along physically adjacent cells) and *permanent*
stuck-at faults -- the transient/permanent mixes where per-line ECC
schemes diverge sharply.  This module defines:

* :class:`FaultScenario` -- a declarative, JSON-serializable mix of the
  three fault sources (transient BER, a :class:`BurstSpec`, a
  :class:`StuckSpec`), the single unit that flows through the CLI,
  checkpoints, and the sharded runner;
* :func:`build_scheme` -- one factory for every protection scheme the
  repo models (SuDoku-X/Y/Z and the five baselines), at a compact
  shared geometry so degradation numbers are comparable;
* :func:`run_scenario_campaign` -- the inject-scrub-heal loop under a
  mixed scenario.

Determinism model
-----------------

Unlike the Monte-Carlo loop (one sequential RNG stream, whose *state*
must be checkpointed), scenario campaigns derive every random quantity
from a ``SeedSequence`` tree keyed by **global interval index**:

* child ``(0,)`` -- the content fill seed;
* child ``(1,)`` -- the stuck-at fault map;
* child ``(2 + i,)`` -- interval ``i``'s transient + burst draws (and,
  via :func:`repro.parallel.sharding.interval_python_seed`, interval
  ``i``'s chaos injector).

Because ``SeedSequence(seed, spawn_key=(k,))`` is a pure function of
``(seed, k)``, a shard that owns intervals ``[a, b)`` consumes exactly
the randomness the serial run consumes for those intervals, and a
checkpoint needs **no RNG state at all** -- resuming at interval ``i``
just re-derives child ``(2 + i,)``.  That is what makes the sharded,
resumed, and sparse-scrub variants of a scenario campaign bit-identical
to the serial dense run (the acceptance property
``tests/reliability/test_scenario.py`` pins down).

The interval-boundary invariant extends to permanent faults: after each
interval's heal, every stored word equals its golden value *as read
through the stuck bits* (``array.residual_vector == 0``), and parity
metadata is re-canonicalized on failure/chaos intervals -- so the state
entering interval ``i`` is a pure function of the scenario config, not
of execution history.

See docs/faultmodels.md for the spec format and semantics.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.engine import build_engine
from repro.obs import NULL_PROGRESS, Telemetry, resolve_telemetry
from repro.parallel.sharding import interval_generator, interval_python_seed
from repro.reliability.montecarlo import (
    INTERVAL_BUCKETS,
    CampaignResult,
    _aggregates,
    _fill_random_through_engine,
    _finish,
    _restore_aggregates,
    _run_interval,
    heal,
    require_scrub_mode,
)
from repro.resilience.chaos import ChaosInjector, ChaosPolicy
from repro.resilience.checkpoint import BoundaryLoop, Checkpointer, Deadline
from repro.sttram.array import STTRAMArray
from repro.sttram.faults import (
    BurstFaultInjector,
    PermanentFaultMap,
    TransientFaultInjector,
    burst_line_masks,
)

#: Every scheme name :func:`build_scheme` accepts: the three SuDoku
#: levels plus the five baseline protection schemes.
SCHEMES: Tuple[str, ...] = (
    "X", "Y", "Z", "eccline", "cppc", "raid6", "twodp", "hiecc",
)

_CODE_CACHE: Dict[str, object] = {}


def _line_code():
    """Shared small BCH line code (building the generator poly is slow)."""
    if "line" not in _CODE_CACHE:
        from repro.coding.bch import BCH

        _CODE_CACHE["line"] = BCH(64, 3, m=8)
    return _CODE_CACHE["line"]


def _region_code():
    """Shared small BCH region code for the Hi-ECC geometry."""
    if "region" not in _CODE_CACHE:
        from repro.coding.bch import BCH

        _CODE_CACHE["region"] = BCH(256, 3, m=9)
    return _CODE_CACHE["region"]


@dataclass(frozen=True)
class BurstSpec:
    """Geometry of the burst/MBU fault source (see ``BurstFaultInjector``).

    ``length_pmf`` maps burst length (bits) to probability; ``span``,
    ``alignment`` and ``multiplicity`` shape where events land;
    ``interleave`` is the logical-lines-per-physical-row degree (1 =
    no interleaving, the per-line-ECC worst case).
    """

    rate: float
    length_pmf: Tuple[Tuple[int, float], ...]
    span: Optional[int] = None
    alignment: int = 1
    multiplicity: int = 1
    interleave: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("burst rate must be a probability")
        if not self.length_pmf:
            raise ValueError("length_pmf must not be empty")
        for length, probability in self.length_pmf:
            if not isinstance(length, int) or length <= 0:
                raise ValueError(f"burst length must be a positive int: {length}")
            if probability < 0:
                raise ValueError("length_pmf probabilities must be >= 0")
        if sum(p for _, p in self.length_pmf) <= 0:
            raise ValueError("length_pmf probabilities must sum to > 0")
        for name in ("alignment", "multiplicity", "interleave"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.span is not None and self.span <= 0:
            raise ValueError("span must be positive")

    @classmethod
    def fixed_length(cls, rate: float, length: int, **kwargs) -> "BurstSpec":
        """Degenerate PMF: every burst has the same length."""
        return cls(rate=rate, length_pmf=((length, 1.0),), **kwargs)

    def pmf_dict(self) -> Dict[int, float]:
        return dict(self.length_pmf)

    def as_dict(self) -> Dict[str, object]:
        return {
            "rate": self.rate,
            "length_pmf": {str(k): v for k, v in self.length_pmf},
            "span": self.span,
            "alignment": self.alignment,
            "multiplicity": self.multiplicity,
            "interleave": self.interleave,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "BurstSpec":
        pmf = payload.get("length_pmf")
        if not isinstance(pmf, dict):
            raise ValueError("burst spec needs a length_pmf mapping")
        length_pmf = tuple(
            sorted((int(k), float(v)) for k, v in pmf.items())
        )
        span = payload.get("span")
        return cls(
            rate=float(payload.get("rate", 0.0)),
            length_pmf=length_pmf,
            span=int(span) if span is not None else None,
            alignment=int(payload.get("alignment", 1)),
            multiplicity=int(payload.get("multiplicity", 1)),
            interleave=int(payload.get("interleave", 1)),
        )


@dataclass(frozen=True)
class StuckSpec:
    """Stuck-at permanent-fault source: a parts-per-million bit density.

    The map itself is re-derived from the campaign seed (SeedSequence
    child ``(1,)``), never serialized -- the density *is* the spec.
    Polarity is uniform over stuck-at-0/stuck-at-1.  A line collecting
    two or more stuck bits overwhelms ECC-1 permanently; at realistic
    ppm densities this is vanishingly rare, and when it happens it is
    an honest (deterministic) uncorrectable, not an artifact.
    """

    ppm: float

    def __post_init__(self) -> None:
        if self.ppm < 0:
            raise ValueError("stuck-at ppm must be non-negative")
        if self.ppm * 1e-6 > 1.0:
            raise ValueError("stuck-at ppm exceeds one fault per bit")

    def as_dict(self) -> Dict[str, object]:
        return {"ppm": self.ppm}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "StuckSpec":
        return cls(ppm=float(payload.get("ppm", 0.0)))


@dataclass(frozen=True)
class FaultScenario:
    """A mixed fault profile: transient + burst + stuck-at sources.

    Any source may be absent (``transient_ber=0``, ``burst=None``,
    ``stuck=None``); the all-absent scenario is legal and injects
    nothing.  Serializes to/from plain JSON for ``--scenario`` files,
    checkpoint config fingerprints, and the sharded runner.
    """

    transient_ber: float = 0.0
    burst: Optional[BurstSpec] = None
    stuck: Optional[StuckSpec] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.transient_ber <= 1.0:
            raise ValueError("transient_ber must be a probability")

    @property
    def active(self) -> bool:
        """Does this scenario inject anything at all?"""
        return (
            self.transient_ber > 0
            or (self.burst is not None and self.burst.rate > 0)
            or (self.stuck is not None and self.stuck.ppm > 0)
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "transient_ber": self.transient_ber,
            "burst": self.burst.as_dict() if self.burst else None,
            "stuck": self.stuck.as_dict() if self.stuck else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultScenario":
        if not isinstance(payload, dict):
            raise ValueError("scenario payload must be a JSON object")
        burst = payload.get("burst")
        stuck = payload.get("stuck")
        return cls(
            transient_ber=float(payload.get("transient_ber", 0.0)),
            burst=BurstSpec.from_dict(burst) if burst else None,
            stuck=StuckSpec.from_dict(stuck) if stuck else None,
        )

    @classmethod
    def load(cls, path: str) -> "FaultScenario":
        """Parse a ``--scenario`` JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    # -- seeded samplers (numpy, campaign path) --------------------------------

    def build_stuck_map(
        self, num_lines: int, line_bits: int, rng
    ) -> Optional[PermanentFaultMap]:
        """Sample the stuck-at map from a numpy generator (child ``(1,)``)."""
        if self.stuck is None or self.stuck.ppm <= 0:
            return None
        return PermanentFaultMap.random(
            num_lines, line_bits, self.stuck.ppm, rng
        )

    def build_burst_injector(
        self, line_bits: int, rng, backend=None
    ) -> Optional[BurstFaultInjector]:
        """Burst injector on a per-interval numpy generator."""
        if self.burst is None or self.burst.rate <= 0:
            return None
        return BurstFaultInjector(
            line_bits,
            self.burst.rate,
            self.burst.pmf_dict(),
            span=self.burst.span,
            alignment=self.burst.alignment,
            multiplicity=self.burst.multiplicity,
            interleave=self.burst.interleave,
            rng=rng,
            backend=backend,
        )

    # -- seeded samplers (stdlib Random, raresim path) -------------------------

    def sample_stuck_map_py(
        self, rng, num_lines: int, line_bits: int
    ) -> Optional[PermanentFaultMap]:
        """Stuck-at map drawn from a stdlib ``random.Random``.

        The rare-event simulator keeps *all* its randomness on one
        python stream so its checkpoints stay a single RNG state; this
        sampler lives on that stream rather than the numpy tree.
        """
        if self.stuck is None or self.stuck.ppm <= 0:
            return None
        from repro.sttram.faults import FaultKind

        total_bits = num_lines * line_bits
        count = _binomial_draw_py(rng, total_bits, self.stuck.ppm * 1e-6)
        fault_map = PermanentFaultMap(line_bits)
        if count == 0:
            return fault_map
        for flat in sorted(rng.sample(range(total_bits), count)):
            line_index, bit_position = divmod(flat, line_bits)
            kind = (
                FaultKind.STUCK_AT_ONE
                if rng.getrandbits(1)
                else FaultKind.STUCK_AT_ZERO
            )
            fault_map.add(line_index, bit_position, kind)
        return fault_map

    def sample_burst_vectors_py(
        self, rng, num_lines: int, line_bits: int
    ) -> Dict[int, int]:
        """One interval's burst masks drawn from a stdlib ``random.Random``."""
        if self.burst is None or self.burst.rate <= 0:
            return {}
        spec = self.burst
        count = _binomial_draw_py(rng, num_lines, spec.rate)
        vectors: Dict[int, int] = {}
        if count == 0:
            return vectors
        span = (
            spec.span
            if spec.span is not None
            else line_bits * spec.interleave
        )
        lengths = [length for length, _ in spec.length_pmf]
        total = sum(p for _, p in spec.length_pmf)
        cumulative: List[float] = []
        running = 0.0
        for _, probability in spec.length_pmf:
            running += probability / total
            cumulative.append(running)
        cumulative[-1] = 1.0
        for base in sorted(rng.sample(range(num_lines), count)):
            u = rng.random()
            length = lengths[-1]
            for candidate, bound in zip(lengths, cumulative):
                if u <= bound:
                    length = candidate
                    break
            slots = (span - length) // spec.alignment + 1
            start = rng.randrange(slots) * spec.alignment
            masks = burst_line_masks(
                line_bits, start, length, interleave=spec.interleave
            )
            for row in range(spec.multiplicity):
                row_base = base + row * spec.interleave
                for offset, mask in masks:
                    line_index = row_base + offset
                    if line_index >= num_lines:
                        continue
                    vectors[line_index] = vectors.get(line_index, 0) | mask
        return vectors


def _binomial_draw_py(rng, n: int, p: float) -> int:
    """Exact inverse-CDF binomial draw from a stdlib ``random.Random``.

    The stdlib RNG has no binomial sampler; this walks the CDF with the
    stable term recurrence, which is O(draw) -- fine for the small
    ``n * p`` regimes the scenario samplers operate in (a few faults
    per group/interval).  ``(1-p)^n`` underflowing to zero would need
    ``n * p`` in the thousands, far outside those regimes.
    """
    if n <= 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    u = rng.random()
    term = (1.0 - p) ** n
    cdf = term
    k = 0
    ratio = p / (1.0 - p)
    while u > cdf and k < n:
        term *= (n - k) / (k + 1) * ratio
        k += 1
        cdf += term
    return k


def build_scheme(name: str, group_size: int = 8, backend: Optional[str] = None):
    """Build any protection scheme at a compact comparable geometry.

    SuDoku-X/Y/Z, 2DP and RAID-6 use ``group_size**2`` lines of the
    SuDoku line format (``group_size**2`` is required for SuDoku-Z's
    skewed second hash); ECC-line and CPPC use ``group_size**2`` lines
    of a 64-bit-payload BCH / CRC format (the narrow width keeps the
    per-line decoders fast enough for campaign loops); Hi-ECC covers
    the same payload volume with ``group_size**2`` 32-byte regions.
    Every scheme exposes the campaign surface (``array``,
    ``write_data``, ``scrub_frames``, ``account_bulk_clean``), so
    :func:`run_scenario_campaign` treats them uniformly.  ``backend``
    routes bulk operations through a kernel backend where the scheme
    supports one (bit-identical by contract).
    """
    if group_size < 2:
        raise ValueError("group_size must be >= 2")
    num_lines = group_size * group_size
    scheme = _build_scheme_inner(name, group_size, num_lines)
    if backend is not None:
        setter = getattr(scheme, "set_backend", None)
        if setter is not None:
            setter(backend)
    return scheme


def _build_scheme_inner(name: str, group_size: int, num_lines: int):
    if name in ("X", "Y", "Z"):
        from repro.core.linecodec import LineCodec

        codec = LineCodec()
        array = STTRAMArray(num_lines, codec.stored_bits)
        return build_engine(name, array, group_size=group_size, codec=codec)
    if name == "twodp":
        from repro.baselines.twodp import TwoDPCache
        from repro.core.linecodec import LineCodec

        codec = LineCodec()
        array = STTRAMArray(num_lines, codec.stored_bits)
        return TwoDPCache(array, group_size=group_size, codec=codec)
    if name == "raid6":
        from repro.baselines.raid6 import RAID6Cache

        return RAID6Cache(num_lines, group_size=group_size)
    if name == "eccline":
        from repro.baselines.eccline import ECCLineCache

        code = _line_code()
        return ECCLineCache(
            num_lines, t=code.t, data_bits=code.k, code=code
        )
    if name == "cppc":
        from repro.baselines.cppc import CPPCCache

        return CPPCCache(num_lines, data_bits=64)
    if name == "hiecc":
        from repro.baselines.hiecc import HiECCCache

        code = _region_code()
        return HiECCCache(
            num_lines, region_bytes=32, t=code.t, code=code
        )
    raise ValueError(f"unknown scheme {name!r}; expected one of {SCHEMES}")


def _setup_scheme(
    scheme: str,
    group_size: int,
    scenario: FaultScenario,
    seed: int,
    backend: Optional[str] = None,
):
    """Build + stuck-attach + fill + canonicalize: pure in (config, seed).

    Order matters: the stuck map attaches *before* content fill so the
    fill writes store through the stuck bits (golden keeps the intent),
    and parities are canonicalized last from ECC-corrected words --
    giving the reference boundary state every interval returns to.
    """
    engine = build_scheme(scheme, group_size, backend=backend)
    array = engine.array
    stuck_map = scenario.build_stuck_map(
        array.num_lines, array.line_bits, interval_generator(seed, 1)
    )
    if stuck_map is not None:
        array.attach_permanent_faults(stuck_map)
    fill_seed = int(interval_generator(seed, 0).integers(0, 2 ** 63))
    _fill_random_through_engine(engine, fill_seed)
    initialize = getattr(engine, "initialize_parities", None)
    if initialize is not None:
        initialize()
    return engine


def run_scenario_campaign(
    scheme: str,
    scenario: FaultScenario,
    intervals: int,
    group_size: int = 8,
    interval_s: float = 0.020,
    *,
    seed: int = 0,
    interval_start: int = 0,
    telemetry: Optional[Telemetry] = None,
    progress=NULL_PROGRESS,
    chaos_policy: Optional[ChaosPolicy] = None,
    chaos_seed: int = 0,
    checkpointer: Optional[Checkpointer] = None,
    deadline: Optional[Deadline] = None,
    scrub_mode: str = "sparse",
    backend: Optional[str] = None,
) -> CampaignResult:
    """Inject-scrub-heal under a mixed fault scenario.

    Runs global intervals ``[interval_start, interval_start + intervals)``
    of the campaign defined by ``(scheme, group_size, scenario, seed)``;
    a shard passes its slice via ``interval_start``, the serial run
    passes 0.  Each interval derives its own randomness from SeedSequence
    child ``(2 + global_index,)`` (see the module docstring), so results
    are invariant under sharding and checkpoints carry no RNG state.

    ``chaos_policy`` composes: interval ``i`` gets a fresh
    :class:`ChaosInjector` seeded from ``(chaos_seed, i)``, so chaos
    events are also shard- and resume-invariant.  ``scrub_mode`` selects
    the sparse fast path (default) or the dense audit walk; outcome
    counters are bit-identical between them -- permanently-dirty
    stuck lines stay in the dirty set, which is what keeps the sparse
    visit schedule complete.
    """
    require_scrub_mode(scrub_mode)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if intervals < 0:
        raise ValueError("intervals must be non-negative")
    if interval_start < 0:
        raise ValueError("interval_start must be non-negative")
    tel = resolve_telemetry(telemetry)
    engine = _setup_scheme(scheme, group_size, scenario, seed, backend)
    kernels = getattr(engine, "backend", None)
    if telemetry is not None:
        attach = getattr(engine, "attach_telemetry", None)
        if attach is not None:
            attach(telemetry)
    array = engine.array
    m_intervals = tel.metrics.counter(
        "scenario_intervals_total", "Scenario campaign intervals completed."
    )
    m_outcomes = tel.metrics.counter(
        "scenario_outcomes_total",
        "Line outcomes accumulated across scenario intervals.",
        labels=("outcome",),
    )
    m_interval_time = tel.metrics.histogram(
        "scenario_interval_seconds",
        "Wall-clock time per scenario interval (inject + scrub + heal).",
        buckets=INTERVAL_BUCKETS,
    )
    m_checkpoints = tel.metrics.counter(
        "scenario_checkpoint_writes_total", "Scenario checkpoints flushed."
    )
    config_fingerprint: Dict[str, object] = {
        "kind": "scenario",
        "scheme": scheme,
        "group_size": group_size,
        "interval_s": interval_s,
        "seed": seed,
        "interval_start": interval_start,
        "intervals": intervals,
        "lines": array.num_lines,
        "line_bits": array.line_bits,
        "scenario": scenario.as_dict(),
        "chaos": chaos_policy.as_dict() if chaos_policy is not None else None,
        "chaos_seed": chaos_seed if chaos_policy is not None else None,
    }
    result = CampaignResult(
        intervals=intervals,
        ber=scenario.transient_ber,
        interval_s=interval_s,
        lines=array.num_lines,
    )
    # No RNG block: every stream re-derives from (seed, index).
    loop = BoundaryLoop(
        "scenario", config_fingerprint, checkpointer,
        aggregates=lambda: _aggregates(result),
        restore=lambda aggregates: _restore_aggregates(result, aggregates),
        telemetry=tel, flushes=m_checkpoints, deadline=deadline,
        progress=progress,
    )
    tracer = tel.tracer

    def step(relative: int) -> None:
        started = time.perf_counter() if tel.enabled else 0.0
        index = interval_start + relative
        stream = interval_generator(seed, 2 + index)
        chaos = (
            ChaosInjector(
                chaos_policy, seed=interval_python_seed(chaos_seed, index)
            )
            if chaos_policy is not None
            else None
        )

        def inject() -> List[int]:
            if scenario.transient_ber > 0:
                TransientFaultInjector(
                    array.line_bits, scenario.transient_ber, stream,
                    backend=kernels,
                ).inject_frames(array)
            burst = scenario.build_burst_injector(
                array.line_bits, stream, backend=kernels
            )
            if burst is not None:
                burst.inject_frames(array)
            # The dirty set is the union of this interval's hits and the
            # permanently-dirty stuck lines.
            return array.dirty_frames()

        counts, _, _ = _run_interval(
            engine, inject, result, chaos=chaos, scrub_mode=scrub_mode,
            heal=heal, tracer=tracer, canonical=True,
        )
        if tel.enabled:
            m_intervals.inc()
            for label, count in counts.items():
                m_outcomes.labels(outcome=label).inc(count)
            m_interval_time.observe(time.perf_counter() - started)

    completed, stop_reason = loop.run(intervals, step, tracer.span(
        "scenario_campaign", scheme=scheme, intervals=intervals,
        lines=array.num_lines,
    ))
    _finish(result, completed, stop_reason)
    return result
