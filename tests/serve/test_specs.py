"""Spec validation, normalization, and digest semantics."""

import pytest

from repro.serve.specs import (
    RESULT_VERSION,
    SpecError,
    parse_spec,
    parse_submission,
)

CAMPAIGN = {
    "kind": "campaign", "level": "Z", "ber": 2e-3,
    "intervals": 8, "group_size": 8, "seed": 3,
}


class TestParseSpec:
    def test_campaign_normalizes_with_defaults(self):
        spec = parse_spec(dict(CAMPAIGN))
        assert spec.kind == "campaign"
        assert spec.params["seed"] == 3
        assert spec.shards == 1
        assert "shards" not in spec.params
        assert spec.params["interval_s"] == pytest.approx(0.020)
        assert spec.total_units == 8

    def test_raresim_counts_trials(self):
        spec = parse_spec(
            {"kind": "raresim", "level": "Y", "ber": 1e-3, "trials": 50,
             "group_size": 16, "num_groups": 8}
        )
        assert spec.total_units == 50
        assert spec.params["scenario"] is None

    def test_scenario_requires_scenario_object(self):
        with pytest.raises(SpecError, match="scenario.*required"):
            parse_spec({"kind": "scenario", "scheme": "Z"})

    def test_scenario_round_trips_to_canonical_form(self):
        spec = parse_spec(
            {"kind": "scenario", "scheme": "Z", "intervals": 4,
             "group_size": 8,
             "scenario": {"transient_ber": 1e-3}}
        )
        # Normalization fills the optional burst/stuck fields, so two
        # ways of writing the same scenario share one digest.
        explicit = parse_spec(
            {"kind": "scenario", "scheme": "Z", "intervals": 4,
             "group_size": 8, "scenario": spec.params["scenario"]}
        )
        assert explicit.digest() == spec.digest()

    @pytest.mark.parametrize("mutation, match", [
        ({"kind": "nope"}, "kind"),
        ({"ber": 1.5}, "ber"),
        ({"ber": True}, "ber"),
        ({"intervals": 0}, "intervals"),
        ({"intervals": "8"}, "intervals"),
        ({"seed": -1}, "seed"),
        ({"shards": 100_000}, "shards"),
        ({"level": "Q"}, "level"),
    ])
    def test_invalid_fields_rejected(self, mutation, match):
        payload = dict(CAMPAIGN)
        payload.update(mutation)
        with pytest.raises(SpecError, match=match):
            parse_spec(payload)

    def test_non_object_rejected(self):
        with pytest.raises(SpecError):
            parse_spec([1, 2, 3])


RARESIM = {
    "kind": "raresim", "level": "Z", "ber": 1e-3, "trials": 20,
    "group_size": 16, "num_groups": 8, "seed": 5,
}
SCENARIO = {
    "kind": "scenario", "scheme": "Z", "intervals": 4, "group_size": 8,
    "scenario": {"transient_ber": 1e-3},
}


class TestRunConstraints:
    """Every value the run would reject is a 400 naming its field."""

    @pytest.mark.parametrize("payload, match", [
        # GroupMapper (X/Y/Z, RAID-6, 2DP) needs a power-of-two group.
        (dict(CAMPAIGN, group_size=3), "'group_size' must be a power of two"),
        (dict(CAMPAIGN, level="X", group_size=12), "'group_size'"),
        (dict(SCENARIO, scheme="raid6", group_size=6), "'group_size'"),
        (dict(SCENARIO, scheme="twodp", group_size=6), "'group_size'"),
        # The conditioned estimator needs 0 < ber < 1 and a conditioning
        # event of nonzero probability.
        (dict(RARESIM, ber=0.0), "'ber' must be within \\(0, 1\\)"),
        (dict(RARESIM, ber=1.0), "'ber'"),
        (dict(RARESIM, ber=1e-300), "'ber'.*zero probability"),
        (dict(RARESIM, ber=0.999), "'ber'.*zero probability"),
    ])
    def test_rejected(self, payload, match):
        with pytest.raises(SpecError, match=match):
            parse_spec(payload)

    @pytest.mark.parametrize("payload", [
        dict(SCENARIO, scheme="eccline", group_size=6),
        dict(SCENARIO, scheme="cppc", group_size=3),
        dict(SCENARIO, scheme="hiecc", group_size=5),
        dict(RARESIM, group_size=12),
    ], ids=["eccline", "cppc", "hiecc", "raresim"])
    def test_schemes_without_group_mapper_take_any_size(self, payload):
        assert parse_spec(payload).params["group_size"] == payload["group_size"]


class TestRaresimBerRule:
    """A raresim scenario with ``transient_ber > 0`` sets ``ber``."""

    def test_scenario_transient_ber_sets_ber(self):
        spec = parse_spec(dict(
            RARESIM, ber=1e-4, scenario={"transient_ber": 2e-3}
        ))
        assert spec.params["ber"] == 2e-3

    def test_rule_applies_before_the_range_check(self):
        spec = parse_spec(dict(
            RARESIM, ber=0.0, scenario={"transient_ber": 2e-3}
        ))
        assert spec.params["ber"] == 2e-3

    def test_zero_transient_ber_keeps_ber(self):
        spec = parse_spec(dict(
            RARESIM, scenario={"transient_ber": 0.0, "stuck": {"ppm": 50}}
        ))
        assert spec.params["ber"] == RARESIM["ber"]

    def test_submissions_differing_only_in_overridden_ber_share_a_digest(self):
        scenario = {"transient_ber": 2e-3}
        low = parse_spec(dict(RARESIM, ber=1e-4, scenario=scenario))
        high = parse_spec(dict(RARESIM, ber=2e-3, scenario=scenario))
        assert low.digest() == high.digest()


class TestDigest:
    def test_digest_is_stable_and_version_pinned(self):
        spec = parse_spec(dict(CAMPAIGN))
        assert spec.digest() == parse_spec(dict(CAMPAIGN)).digest()
        assert spec.digest_payload()["version"] == RESULT_VERSION

    def test_semantic_params_change_digest(self):
        base = parse_spec(dict(CAMPAIGN)).digest()
        for key, value in [("seed", 4), ("intervals", 9), ("ber", 3e-3)]:
            payload = dict(CAMPAIGN)
            payload[key] = value
            assert parse_spec(payload).digest() != base, key

    def test_execution_hints_do_not_change_digest(self):
        """The retired ``backend``/``scrub_mode`` hints are ignored, with
        any value: every job runs numpy kernels and the sparse scrub."""
        base = parse_spec(dict(CAMPAIGN))
        for key, value in [("backend", "numpy"), ("backend", "reference"),
                           ("scrub_mode", "dense"), ("backend", "torch")]:
            payload = dict(CAMPAIGN)
            payload[key] = value
            spec = parse_spec(payload)
            assert spec.digest() == base.digest(), (key, value)
            assert spec == base, (key, value)


    @pytest.mark.parametrize("kind_spec", [
        CAMPAIGN,
        {"kind": "raresim", "level": "Z", "ber": 1e-3, "trials": 50,
         "group_size": 16, "num_groups": 8, "seed": 5},
        {"kind": "scenario", "scheme": "Z", "intervals": 4,
         "group_size": 8, "scenario": {"transient_ber": 1e-3}},
    ], ids=["campaign", "raresim", "scenario"])
    def test_shards_do_not_change_digest(self, kind_spec):
        """Every kind draws unit i from seed-tree child (seed, i), so a
        K-shard result equals the serial one: ``shards`` is an
        execution choice, carried beside the digest, not in it."""
        serial = parse_spec(dict(kind_spec))
        for shards in (2, 7):
            sharded = parse_spec(dict(kind_spec, shards=shards))
            assert sharded.digest() == serial.digest(), shards
            assert sharded.params == serial.params
            assert sharded.shards == shards


class TestUnknownKeys:
    def test_misspelt_key_is_rejected_by_name(self):
        payload = dict(CAMPAIGN)
        payload["intervls"] = payload.pop("intervals")
        with pytest.raises(SpecError, match="unknown spec key 'intervls'"):
            parse_spec(payload)

    def test_another_kinds_parameter_is_unknown(self):
        with pytest.raises(SpecError, match="'trials'"):
            parse_spec(dict(CAMPAIGN, trials=50))

    def test_retired_hints_and_inline_envelope_keys_accepted(self):
        base = parse_spec(dict(CAMPAIGN))
        hinted = parse_spec(dict(
            CAMPAIGN, backend="reference", scrub_mode="dense",
            tenant="team-a", priority=3,
        ))
        assert hinted == base
        assert hinted.digest() == base.digest()


class TestParseSubmission:
    def test_bare_spec_with_inline_tenant(self):
        payload = dict(CAMPAIGN)
        payload.update({"tenant": "team-a", "priority": 7})
        spec, tenant, priority = parse_submission(payload)
        assert (tenant, priority) == ("team-a", 7)
        # Envelope fields never reach the digest.
        assert spec.digest() == parse_spec(dict(CAMPAIGN)).digest()

    def test_envelope_form(self):
        spec, tenant, priority = parse_submission(
            {"spec": dict(CAMPAIGN), "tenant": "team-b", "priority": -2}
        )
        assert (tenant, priority) == ("team-b", -2)
        assert spec.digest() == parse_spec(dict(CAMPAIGN)).digest()

    def test_defaults(self):
        _, tenant, priority = parse_submission(dict(CAMPAIGN))
        assert (tenant, priority) == ("default", 0)

    @pytest.mark.parametrize("envelope", [
        {"tenant": ""}, {"tenant": "x" * 65}, {"tenant": 7},
        {"priority": 101}, {"priority": -101}, {"priority": "high"},
        {"priority": True},
    ])
    def test_bad_envelope_rejected(self, envelope):
        payload = {"spec": dict(CAMPAIGN)}
        payload.update(envelope)
        with pytest.raises(SpecError):
            parse_submission(payload)
