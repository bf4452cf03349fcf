"""Tests for the conditional rare-event simulator."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.reliability.raresim import (
    ConditionalGroupSimulator,
    ConditionalResult,
    estimate_fit,
)
from repro.reliability.sudokumodel import SuDokuReliabilityModel

GROUP = 16
BER = 4e-4


def make_simulator(ber=BER, group=GROUP, seed=3):
    return ConditionalGroupSimulator(
        ber=ber, group_size=group, num_groups=group, rng=random.Random(seed)
    )


class TestConditionalDistributions:
    def test_conditioning_probability_matches_model(self):
        simulator = make_simulator()
        model = SuDokuReliabilityModel(
            ber=BER, group_size=GROUP, num_lines=GROUP * GROUP, line_bits=553
        )
        assert simulator.conditioning_probability == pytest.approx(
            model.group_fail_x(), rel=1e-9
        )

    def test_injected_patterns_are_conditioned(self):
        simulator = make_simulator()
        for _ in range(20):
            array, _ = simulator._fresh_group()
            frames = simulator._inject_conditioned(array)
            assert len(frames) >= 2
            for frame in frames:
                faults = bin(array.error_vector(frame)).count("1")
                assert faults >= 2

    def test_fresh_group_parity_consistent(self):
        simulator = make_simulator()
        array, plt = simulator._fresh_group()
        from repro.coding.parity import xor_reduce

        assert plt.parity(0) == xor_reduce(
            array.read(f) for f in range(GROUP)
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ConditionalGroupSimulator(ber=0.0)
        with pytest.raises(ValueError):
            make_simulator().run("X", 10)


class TestTrials:
    def test_y_trial_runs_and_repairs_common_case(self):
        # At a mild BER most conditioned patterns are two 2-fault lines,
        # which Y repairs; failures must be the rare exception.
        simulator = make_simulator(seed=5)
        failures = sum(simulator.trial_y() for _ in range(60))
        assert failures < 15

    def test_z_trial_no_worse_than_y(self):
        simulator_y = make_simulator(ber=1.5e-3, seed=6)
        failures_y = sum(simulator_y.trial_y() for _ in range(60))
        simulator_z = make_simulator(ber=1.5e-3, seed=6)
        failures_z = sum(simulator_z.trial_z() for _ in range(60))
        assert failures_z <= failures_y

    def test_y_estimate_brackets_model(self):
        result = estimate_fit("Y", 6e-4, trials=400, group_size=GROUP, seed=9)
        model = SuDokuReliabilityModel(
            ber=6e-4, group_size=GROUP, num_lines=GROUP * GROUP
        )
        conditional_model = model.group_fail_y() / result.conditioning_probability
        low, high = result.conditional_ci(z=2.8)
        # The model is a (mild) upper bound built from the same rules.
        assert result.conditional_failure_probability <= conditional_model * 2.0
        assert high >= conditional_model * 0.2


class TestBatchedGroupBuild:
    def test_warmed_y_trial_encodes_no_line_on_its_own(self, monkeypatch):
        """A G=512 group is encoded in one ``encode_many`` batch: once
        its tables exist, no trial calls the scalar ``encode``."""
        from repro.core.linecodec import LineCodec

        calls = []
        scalar = LineCodec.encode

        def spy(self, data):
            calls.append(data)
            return scalar(self, data)

        monkeypatch.setattr(LineCodec, "encode", spy)
        simulator = make_simulator(ber=5.3e-6, group=512)
        simulator.trial_y()
        calls.clear()
        simulator.trial_y()
        assert calls == []

    def test_fresh_group_matches_per_line_build(self):
        """The batched build stores what one ``encode`` and ``write`` per
        line stored, from the same draws."""
        batched, by_line = make_simulator(seed=9), make_simulator(seed=9)
        array, plt = batched._fresh_group()
        data = [
            by_line._rng.getrandbits(by_line.codec.layout.data_bits)
            for _ in range(GROUP)
        ]
        words = [by_line.codec.encode(value) for value in data]
        assert list(array) == words
        assert [array.golden(f) for f in range(GROUP)] == words
        assert array.dirty_count == 0
        assert batched._rng.getstate() == by_line._rng.getstate()


class TestResultArithmetic:
    def test_composition(self):
        result = ConditionalResult(
            trials=100, conditional_failures=10,
            conditioning_probability=1e-3, ber=1e-4,
            group_size=16, num_groups=1000, interval_s=0.020,
        )
        assert result.conditional_failure_probability == pytest.approx(0.1)
        assert result.group_failure_probability == pytest.approx(1e-4)
        assert result.cache_failure_probability() == pytest.approx(
            1 - (1 - 1e-4) ** 1000
        )
        assert result.fit() > 0

    def test_ci_bounds(self):
        result = ConditionalResult(
            trials=0, conditional_failures=0, conditioning_probability=1e-3,
            ber=1e-4, group_size=16, num_groups=10, interval_s=0.02,
        )
        assert result.conditional_ci() == (0.0, 1.0)
        assert result.conditional_failure_probability == 0.0


class TestResultSchema:
    def make(self, trials=200, failures=7):
        return ConditionalResult(
            trials=trials, conditional_failures=failures,
            conditioning_probability=1e-3, ber=1e-4,
            group_size=16, num_groups=1000, interval_s=0.020,
            truncated=True, stop_reason="deadline",
        )

    def test_as_dict_includes_derived_statistics(self):
        result = self.make()
        payload = result.as_dict()
        low, high = result.conditional_ci()
        assert payload["conditional_ci_low"] == low
        assert payload["conditional_ci_high"] == high
        assert payload["cache_failure_probability"] == (
            result.cache_failure_probability()
        )
        assert payload["fit"] == result.fit()

    def test_round_trip(self):
        result = self.make()
        clone = ConditionalResult.from_dict(result.as_dict())
        assert clone.as_dict() == result.as_dict()

    def test_round_trip_through_json(self):
        result = self.make()
        payload = json.loads(json.dumps(result.as_dict()))
        clone = ConditionalResult.from_dict(payload)
        assert clone.as_dict() == result.as_dict()

    def test_from_dict_ignores_stale_derived_fields(self):
        payload = self.make().as_dict()
        payload["conditional_ci_low"] = 0.9  # corrupt a derived field
        payload["fit"] = -1.0
        clone = ConditionalResult.from_dict(payload)
        assert clone.as_dict() == self.make().as_dict()


class TestConditionalCiProperties:
    @staticmethod
    def make(trials, failures):
        return ConditionalResult(
            trials=trials, conditional_failures=failures,
            conditioning_probability=1e-3, ber=1e-4,
            group_size=16, num_groups=1000, interval_s=0.020,
        )

    @given(trials=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_zero_failures_lower_bound_is_exactly_zero(self, trials):
        low, high = self.make(trials, 0).conditional_ci()
        assert low == 0.0
        assert 0.0 <= high <= 1.0

    @given(trials=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_all_failures_upper_bound_is_exactly_one(self, trials):
        low, high = self.make(trials, trials).conditional_ci()
        assert high == 1.0
        assert 0.0 <= low <= 1.0

    @given(
        trials=st.integers(min_value=1, max_value=10**6),
        rate=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_bounds_within_unit_interval_and_bracket_estimate(
        self, trials, rate
    ):
        failures = min(trials, int(rate * trials))
        result = self.make(trials, failures)
        low, high = result.conditional_ci()
        assert 0.0 <= low <= high <= 1.0
        assert low <= result.conditional_failure_probability <= high

    @given(
        trials=st.integers(min_value=10, max_value=10**6),
        factor=st.integers(min_value=2, max_value=50),
    )
    @settings(max_examples=80, deadline=None)
    def test_width_shrinks_as_trials_grow(self, trials, factor):
        # Same observed failure rate, more trials -> narrower interval.
        failures = trials // 5
        low_a, high_a = self.make(trials, failures).conditional_ci()
        low_b, high_b = self.make(
            trials * factor, failures * factor
        ).conditional_ci()
        assert (high_b - low_b) <= (high_a - low_a)


class TestEstimateFitSeedResolution:
    def test_seeded_stream_matches_inline_random(self):
        # resolve_pyrandom(seed=s) must be bit-identical to the
        # historical inline random.Random(s) construction.
        via_api = estimate_fit("Y", BER, trials=40, group_size=GROUP, seed=11)
        simulator = ConditionalGroupSimulator(
            ber=BER, group_size=GROUP, num_groups=2048,
            rng=random.Random(11),
        )
        direct = simulator.run("Y", 40)
        assert via_api.as_dict() == direct.as_dict()

    def test_injected_rng_unsupported_seed_still_deterministic(self):
        first = estimate_fit("Z", BER, trials=30, group_size=GROUP, seed=4)
        second = estimate_fit("Z", BER, trials=30, group_size=GROUP, seed=4)
        assert first.as_dict() == second.as_dict()
