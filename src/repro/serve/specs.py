"""Job specs: validation, normalization, and content digests.

A submission names one of the three campaign kinds and its parameters;
this module validates the payload against the same constraints the CLI
enforces, normalizes it to a canonical parameter dict (defaults applied,
scenario round-tripped through :class:`FaultScenario`), and derives the
content digest that keys the result store.

The digest covers exactly what determines the result *bits*: the kind,
the normalized semantic parameters (including seed and shard count --
a K-shard Monte-Carlo result is a different quantity than serial), and
:data:`RESULT_VERSION`.  Execution hints that are bit-identical by
construction (``scrub_mode``, kernel ``backend``) and submission
envelope fields (tenant, priority) are deliberately excluded, so
equivalent work dedups across tenants and backends.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.kernels import BACKEND_NAMES
from repro.reliability.montecarlo import SCRUB_MODES
from repro.reliability.scenario import SCHEMES, FaultScenario

#: Bump when a code change alters campaign results at a fixed spec;
#: stored results from older versions then simply stop matching.
RESULT_VERSION = 1

#: Campaign kinds the service schedules.
KINDS: Tuple[str, ...] = ("campaign", "raresim", "scenario")

_CAMPAIGN_LEVELS = ("X", "Y", "Z")
_RARESIM_LEVELS = ("Y", "Z")

_MAX_SHARDS = 64


class SpecError(ValueError):
    """A submitted spec failed validation (HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _get_int(payload: Dict, key: str, default: int, minimum: int) -> int:
    value = payload.get(key, default)
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{key!r} must be an integer",
    )
    _require(value >= minimum, f"{key!r} must be >= {minimum}, got {value}")
    return value


def _get_float(
    payload: Dict, key: str, default: float, low: float, high: float
) -> float:
    value = payload.get(key, default)
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{key!r} must be a number",
    )
    value = float(value)
    _require(
        low <= value <= high,
        f"{key!r} must be within [{low}, {high}], got {value}",
    )
    return value


def _get_choice(payload: Dict, key: str, default: str, choices) -> str:
    value = payload.get(key, default)
    _require(
        isinstance(value, str) and value in choices,
        f"{key!r} must be one of {sorted(choices)}, got {value!r}",
    )
    return value


@dataclass(frozen=True)
class JobSpec:
    """A validated, normalized campaign submission.

    ``params`` is the canonical semantic parameter dict (digest-
    relevant); ``execution`` carries bit-identical execution hints that
    stay out of the digest.
    """

    kind: str
    params: Dict[str, object]
    execution: Dict[str, str] = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return int(self.params["seed"])  # always present post-parse

    @property
    def total_units(self) -> int:
        """Work units (intervals or trials) the job simulates."""
        key = "trials" if self.kind == "raresim" else "intervals"
        return int(self.params[key])

    def digest_payload(self) -> Dict[str, object]:
        """The exact structure hashed into the content digest."""
        return {
            "kind": self.kind,
            "params": self.params,
            "version": RESULT_VERSION,
        }

    def digest(self) -> str:
        canonical = json.dumps(
            self.digest_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "execution": dict(self.execution),
        }


def _parse_common(payload: Dict) -> Tuple[int, int, float, Dict[str, str]]:
    seed = _get_int(payload, "seed", 0, 0)
    shards = _get_int(payload, "shards", 1, 1)
    _require(shards <= _MAX_SHARDS, f"'shards' must be <= {_MAX_SHARDS}")
    interval_s = _get_float(payload, "interval_s", 0.020, 1e-9, 3600.0)
    execution = {
        "scrub_mode": _get_choice(payload, "scrub_mode", "sparse", SCRUB_MODES),
        "backend": _get_choice(
            payload, "backend", "reference", tuple(BACKEND_NAMES)
        ),
    }
    return seed, shards, interval_s, execution


def _parse_scenario_field(payload: Dict) -> Optional[Dict[str, object]]:
    """Validate + normalize an optional inline FaultScenario object."""
    raw = payload.get("scenario")
    if raw is None:
        return None
    _require(isinstance(raw, dict), "'scenario' must be a JSON object")
    try:
        scenario = FaultScenario.from_dict(raw)
    except (ValueError, TypeError, KeyError) as error:
        raise SpecError(f"invalid scenario: {error}")
    # Round-trip so equivalent submissions (e.g. omitted-vs-null burst)
    # normalize to one canonical form and share a digest.
    return scenario.as_dict()


def parse_spec(payload: object) -> JobSpec:
    """Validate a spec payload and normalize it to a :class:`JobSpec`.

    :raises SpecError: naming the first offending field.
    """
    _require(isinstance(payload, dict), "spec must be a JSON object")
    assert isinstance(payload, dict)
    kind = _get_choice(payload, "kind", "", KINDS)
    seed, shards, interval_s, execution = _parse_common(payload)
    if kind == "campaign":
        params: Dict[str, object] = {
            "level": _get_choice(payload, "level", "Z", _CAMPAIGN_LEVELS),
            "ber": _get_float(payload, "ber", 8e-4, 0.0, 1.0),
            "intervals": _get_int(payload, "intervals", 100, 1),
            "group_size": _get_int(payload, "group_size", 32, 2),
        }
    elif kind == "raresim":
        params = {
            "level": _get_choice(payload, "level", "Z", _RARESIM_LEVELS),
            "ber": _get_float(payload, "ber", 1e-4, 0.0, 1.0),
            "trials": _get_int(payload, "trials", 2000, 1),
            "group_size": _get_int(payload, "group_size", 64, 2),
            "num_groups": _get_int(payload, "num_groups", 2048, 1),
            "scenario": _parse_scenario_field(payload),
        }
    else:  # scenario
        scenario = _parse_scenario_field(payload)
        _require(
            scenario is not None, "'scenario' is required for kind=scenario"
        )
        params = {
            "scheme": _get_choice(payload, "scheme", "Z", SCHEMES),
            "scenario": scenario,
            "intervals": _get_int(payload, "intervals", 100, 1),
            "group_size": _get_int(payload, "group_size", 8, 2),
        }
    params["seed"] = seed
    params["shards"] = shards
    params["interval_s"] = interval_s
    return JobSpec(kind=kind, params=params, execution=execution)


def parse_submission(payload: object) -> Tuple[JobSpec, str, int]:
    """Parse a POST /v1/jobs body into (spec, tenant, priority).

    Accepts either an envelope ``{"spec": {...}, "tenant": ..,
    "priority": ..}`` or a bare spec object carrying the optional
    ``tenant``/``priority`` keys inline.  Tenant and priority are
    scheduling inputs only -- they never reach the digest.
    """
    _require(isinstance(payload, dict), "request body must be a JSON object")
    assert isinstance(payload, dict)
    if "spec" in payload:
        envelope, spec_payload = payload, payload["spec"]
    else:
        envelope = payload
        spec_payload = {
            key: value
            for key, value in payload.items()
            if key not in ("tenant", "priority")
        }
    tenant = envelope.get("tenant", "default")
    _require(
        isinstance(tenant, str) and 0 < len(tenant) <= 64,
        "'tenant' must be a non-empty string (<= 64 chars)",
    )
    priority = envelope.get("priority", 0)
    _require(
        isinstance(priority, int) and not isinstance(priority, bool)
        and -100 <= priority <= 100,
        "'priority' must be an integer in [-100, 100]",
    )
    return parse_spec(spec_payload), tenant, priority
