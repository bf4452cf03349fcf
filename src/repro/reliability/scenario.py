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

A scenario campaign runs the Monte-Carlo interval loop of
:mod:`repro.reliability.montecarlo` and shares its seed tree, keyed by
**global interval index**: child ``(0,)`` seeds the content fill, child
``(1,)`` the stuck-at fault map, and child ``(2 + i,)`` interval
``i``'s transient then burst draws.  Serial, sharded and resumed runs
are therefore bit-identical, and equal the dense audit walk (the
acceptance property ``tests/reliability/test_scenario.py`` pins down);
checkpoints carry no RNG state.

The interval-boundary invariant extends to permanent faults: after each
interval's heal, every stored word equals its golden value *as read
through the stuck bits* (``array.residual_vector == 0``), and parity
metadata is re-canonicalized on failure/chaos intervals -- so the state
entering interval ``i`` is a pure function of the scenario config, not
of execution history.

See docs/faultmodels.md for the spec format and semantics.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.engine import build_engine
from repro.obs import NULL_PROGRESS, Telemetry
from repro.parallel.sharding import interval_generator
from repro.reliability.montecarlo import (
    CampaignResult,
    _fill_random_through_engine,
    _run_intervals,
)
# Re-exported for callers that wrap ``heal`` by module; the interval
# loop calls montecarlo's own module attribute.
from repro.reliability.montecarlo import heal  # noqa: F401
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.checkpoint import Checkpointer, Deadline
from repro.sttram.array import STTRAMArray
from repro.sttram.faults import BurstFaultInjector, PermanentFaultMap

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
        longest = max(length for length, _ in self.length_pmf)
        if self.span is not None and longest > self.span:
            raise ValueError(f"'length_pmf' length {longest} exceeds 'span' {self.span}")

    def check_row(self, line_bits: int) -> None:
        """Refuse a span or length wider than a row of ``line_bits``-bit lines.

        A row is ``line_bits * interleave`` bits (``BurstFaultInjector``).
        """
        row = line_bits * self.interleave
        longest = max(length for length, _ in self.length_pmf)
        for field, width in (("'span'", self.span), ("'length_pmf' length", longest)):
            if width is not None and width > row:
                raise ValueError(
                    f"{field} {width} exceeds the {row}-bit row "
                    f"({line_bits}-bit lines x interleave {self.interleave})"
                )

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

    # -- seeded samplers ------------------------------------------------------
    #
    # The one place a scenario's stuck-at and burst sources are sampled:
    # scenario campaigns draw from their seed-tree children, rare-event
    # trials from the trial's generator.

    def build_stuck_map(
        self, num_lines: int, line_bits: int, rng
    ) -> Optional[PermanentFaultMap]:
        """Sample the stuck-at map from a numpy generator.

        Scenario campaigns pass child ``(1,)``; a rare-event trial
        passes its own generator.
        """
        if self.stuck is None or self.stuck.ppm <= 0:
            return None
        return PermanentFaultMap.random(
            num_lines, line_bits, self.stuck.ppm, rng
        )

    def build_burst_injector(
        self, line_bits: int, rng, backend=None
    ) -> Optional[BurstFaultInjector]:
        """Burst injector on a numpy generator (an interval's or a trial's).

        :raises ValueError: naming the field when the span or a burst
            length is wider than a row of ``line_bits``-bit lines.
        """
        if self.burst is None or self.burst.rate <= 0:
            return None
        self.burst.check_row(line_bits)
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


@functools.lru_cache(maxsize=None)
def scheme_line_bits(name: str) -> int:
    """Stored bits per line of scheme ``name``, at every group size."""
    return build_scheme(name, 2).array.line_bits


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
    _fill_random_through_engine(engine, seed)
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
    events are also shard- and resume-invariant.  Permanently-dirty
    stuck lines stay in the dirty set, which keeps the sparse visit
    schedule complete: outcome counters equal the dense audit walk's.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    engine = _setup_scheme(scheme, group_size, scenario, seed, backend)
    array = engine.array
    kernels = getattr(engine, "backend", None)
    config: Dict[str, object] = {
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
    return _run_intervals(
        engine, scenario.transient_ber, intervals, interval_s, config,
        level=scheme, seed=seed, interval_start=interval_start,
        burst=lambda stream: scenario.build_burst_injector(
            array.line_bits, stream, backend=kernels
        ),
        chaos_policy=chaos_policy, chaos_seed=chaos_seed,
        telemetry=telemetry, progress=progress, checkpointer=checkpointer,
        deadline=deadline,
    )
