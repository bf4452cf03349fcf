"""Job specs: validation, normalization, and content digests.

A spec names one of the three campaign kinds and its parameters.  It
is the one campaign description from every entry point to the shards:
serve takes it from a request body, the CLI builds it from its flags,
and both hand the normalized result to
:func:`repro.parallel.runner.run_spec`.  :func:`parse_spec` validates
the payload against the library's own constraints, so a value the run
would reject is a :class:`SpecError` naming the field (HTTP 400, or a
one-line CLI error) rather than a job that fails later.  It normalizes
the payload to a canonical parameter dict (defaults applied, scenario
round-tripped through :class:`FaultScenario`) and derives the content
digest that keys the result store.

One normalization is a rule, not a default: the rare-event estimator's
transient model is its conditioned ``ber``, so a raresim scenario with
``transient_ber > 0`` sets ``ber`` (docs/faultmodels.md).

The digest covers exactly what determines the result *bits*: the kind,
the normalized semantic parameters (seed included) and
:data:`RESULT_VERSION`.  The shard count is an execution choice, not a
parameter: every campaign kind draws unit ``i`` from seed-tree child
``(seed, i)``, so a K-shard result equals the serial one and specs
that differ only in ``shards`` share a digest.  Submission envelope
fields (tenant, priority) are deliberately excluded too, so equivalent
work dedups across tenants.  A key a spec does not define is a
:class:`SpecError` naming it, so a misspelt parameter cannot silently
run its default; only the retired scrub-mode and kernel-backend hints,
which never changed a result, are still accepted and ignored.  Every
job runs the numpy kernels and the sparse scrub.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.layout import LineLayout
from repro.parallel.runner import KINDS, spec_units
from repro.reliability.raresim import conditioned_weights
from repro.reliability.scenario import SCHEMES, FaultScenario, scheme_line_bits

#: Bump when a code change alters campaign results at a fixed spec;
#: stored results from older versions then simply stop matching.
RESULT_VERSION = 3

_CAMPAIGN_LEVELS = ("X", "Y", "Z")
_RARESIM_LEVELS = ("Y", "Z")

_MAX_SHARDS = 64

#: Schemes whose RAID groups a :class:`repro.core.grouping.GroupMapper`
#: partitions, which needs a power-of-two group size.  The ECC-line,
#: CPPC and Hi-ECC baselines and the rare-event group take any size >= 2.
_POWER_OF_TWO_SCHEMES = frozenset({"X", "Y", "Z", "raid6", "twodp"})

#: Keys every kind accepts besides its own parameters.
_COMMON_KEYS = frozenset({"kind", "seed", "shards", "interval_s"})

#: Accepted and ignored: the retired execution hints, and the envelope
#: fields a bare submission carries inline.
_IGNORED_KEYS = frozenset({"scrub_mode", "backend", "tenant", "priority"})


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
    relevant); ``shards`` is how many processes run it, which never
    changes the result and so stays out of the digest.
    """

    kind: str
    params: Dict[str, object]
    shards: int = 1

    @property
    def seed(self) -> int:
        return int(self.params["seed"])  # always present post-parse

    @property
    def total_units(self) -> int:
        """Work units (intervals or trials) the job simulates."""
        return spec_units(self.kind, self.params)

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


def _parse_common(payload: Dict) -> Tuple[int, int, float]:
    seed = _get_int(payload, "seed", 0, 0)
    shards = _get_int(payload, "shards", 1, 1)
    _require(shards <= _MAX_SHARDS, f"'shards' must be <= {_MAX_SHARDS}")
    interval_s = _get_float(payload, "interval_s", 0.020, 1e-9, 3600.0)
    return seed, shards, interval_s


def _reject_unknown_keys(payload: Dict, params: Dict[str, object]) -> None:
    """Refuse a key the kind does not define (a typo must not run defaults)."""
    known = _COMMON_KEYS | _IGNORED_KEYS | set(params)
    for key in payload:
        _require(key in known, f"unknown spec key {key!r}")


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


def _check_burst_row(params: Dict, scheme: str) -> None:
    """Refuse a burst that does not fit in a row of ``scheme``'s lines."""
    scenario = params["scenario"]
    if scenario and scenario["burst"]:
        try:
            FaultScenario.from_dict(scenario).burst.check_row(scheme_line_bits(scheme))
        except ValueError as error:
            raise SpecError(f"invalid scenario burst for {scheme}: {error}")


def _check_group_size(group_size, scheme) -> None:
    if scheme in _POWER_OF_TWO_SCHEMES:
        _require(
            group_size & (group_size - 1) == 0,
            f"'group_size' must be a power of two for {scheme}, "
            f"got {group_size}",
        )


def _raresim_ber(params: Dict) -> float:
    """The conditioned BER a raresim spec runs at, checked.

    A scenario with ``transient_ber > 0`` sets it: the estimator's
    transient model is ``ber``, not the scenario's field.
    """
    scenario, ber = params["scenario"], params["ber"]
    if scenario and scenario["transient_ber"] > 0:
        ber = scenario["transient_ber"]
    _require(
        0.0 < ber < 1.0,
        f"'ber' must be within (0, 1) for kind=raresim, got {ber}",
    )
    try:
        conditioned_weights(
            ber, params["group_size"], LineLayout().stored_bits
        )
    except ValueError as error:
        raise SpecError(f"'ber' {ber} is out of the estimator's range: {error}")
    return ber


def parse_spec(payload: object) -> JobSpec:
    """Validate a spec payload and normalize it to a :class:`JobSpec`.

    :raises SpecError: naming the first offending field.
    """
    _require(isinstance(payload, dict), "spec must be a JSON object")
    assert isinstance(payload, dict)
    kind = _get_choice(payload, "kind", "", KINDS)
    seed, shards, interval_s = _parse_common(payload)
    if kind == "campaign":
        params: Dict[str, object] = {
            "level": _get_choice(payload, "level", "Z", _CAMPAIGN_LEVELS),
            "ber": _get_float(payload, "ber", 8e-4, 0.0, 1.0),
            "intervals": _get_int(payload, "intervals", 100, 1),
            "group_size": _get_int(payload, "group_size", 32, 2),
        }
        _check_group_size(params["group_size"], params["level"])
    elif kind == "raresim":
        params = {
            "level": _get_choice(payload, "level", "Z", _RARESIM_LEVELS),
            "ber": _get_float(payload, "ber", 1e-4, 0.0, 1.0),
            "trials": _get_int(payload, "trials", 2000, 1),
            "group_size": _get_int(payload, "group_size", 64, 2),
            "num_groups": _get_int(payload, "num_groups", 2048, 1),
            "scenario": _parse_scenario_field(payload),
        }
        params["ber"] = _raresim_ber(params)
        _check_burst_row(params, params["level"])
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
        _check_group_size(params["group_size"], params["scheme"])
        _check_burst_row(params, params["scheme"])
    _reject_unknown_keys(payload, params)
    params["seed"] = seed
    params["interval_s"] = interval_s
    return JobSpec(kind=kind, params=params, shards=shards)


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
