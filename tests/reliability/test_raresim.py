"""Tests for the conditional rare-event simulator."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.parity import xor_reduce
from repro.parallel import interval_generator, run_sharded_raresim
from repro.reliability.raresim import (
    ConditionalGroupSimulator,
    ConditionalResult,
)
from repro.reliability.scenario import FaultScenario, StuckSpec
from repro.reliability.sudokumodel import SuDokuReliabilityModel

GROUP = 16
BER = 4e-4


def make_simulator(ber=BER, group=GROUP, seed=3, **kwargs):
    return ConditionalGroupSimulator(
        ber=ber, group_size=group, num_groups=group, seed=seed, **kwargs
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
        for trial in range(20):
            rng = interval_generator(3, trial)
            array = simulator._fresh_group(rng).array
            frames = simulator._inject_conditioned(rng, array)
            assert len(frames) >= 2
            for frame in frames:
                faults = bin(array.error_vector(frame)).count("1")
                assert faults >= 2

    def test_fresh_group_parity_consistent(self):
        simulator = make_simulator()
        engine = simulator._fresh_group(interval_generator(3, 0))
        assert engine.plt.parity(0) == xor_reduce(
            engine.array.read(f) for f in range(GROUP)
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ConditionalGroupSimulator(ber=0.0)
        with pytest.raises(ValueError):
            make_simulator().run("X", 10)
        with pytest.raises(ValueError, match="group_size"):
            make_simulator(group=12)


class TestTrials:
    def test_y_trial_runs_and_repairs_common_case(self):
        # At a mild BER most conditioned patterns are two 2-fault lines,
        # which Y repairs; failures must be the rare exception.
        simulator = make_simulator(seed=5)
        failures = sum(simulator.trial_y(trial) for trial in range(60))
        assert failures < 15

    def test_z_trial_no_worse_than_y(self):
        simulator_y = make_simulator(ber=1.5e-3, seed=6)
        failures_y = sum(simulator_y.trial_y(trial) for trial in range(60))
        simulator_z = make_simulator(ber=1.5e-3, seed=6)
        failures_z = sum(simulator_z.trial_z(trial) for trial in range(60))
        assert failures_z <= failures_y

    def test_y_estimate_brackets_model(self):
        result = run_sharded_raresim("Y", 6e-4, 400, GROUP, seed=9)
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
        simulator.trial_y(0)
        calls.clear()
        simulator.trial_y(1)
        assert calls == []

    def test_fresh_group_matches_per_line_build(self):
        """The batched build stores what one ``encode`` and ``write`` per
        line stored, from the campaign fill rule's content stream: a
        ``random.Random`` seeded by one draw of the trial generator."""
        simulator = make_simulator(seed=9)
        batched, by_line = interval_generator(9, 0), interval_generator(9, 0)
        array = simulator._fresh_group(batched).array
        content = random.Random(int(by_line.integers(0, 2 ** 63)))
        data = [
            content.getrandbits(simulator.codec.layout.data_bits)
            for _ in range(GROUP)
        ]
        words = [simulator.codec.encode(value) for value in data]
        assert list(array) == words
        assert [array.golden(f) for f in range(GROUP)] == words
        assert array.dirty_count == 0
        assert batched.bit_generator.state == by_line.bit_generator.state


class TestSideGroupParity:
    def test_side_group_parity_covers_golden_words(self):
        """A Hash-2 side group's parity is the XOR of its golden words,
        so its own stuck bits stay faults for the repair to find
        instead of being folded into the parity."""
        group = 64
        simulator = make_simulator(
            ber=1e-3, group=group, seed=5,
            scenario=FaultScenario(
                transient_ber=1e-3, stuck=StuckSpec(ppm=2000.0)
            ),
        )
        rng = interval_generator(5, 0)
        array = simulator._fresh_group(rng).array
        survivor = simulator._inject_conditioned(rng, array)[0]
        side = simulator._side_group(rng, array, survivor)
        side_array, side_plt = side.array, side.plt
        golden = [side_array.golden(f) for f in range(group)]
        assert side_plt.parity(0) == xor_reduce(golden)
        # The stuck bits do conflict with the content here, so a parity
        # over the stored words would differ.
        stuck = side_array.permanent_faults
        assert xor_reduce(
            stuck.apply(f, word) for f, word in enumerate(golden)
        ) != side_plt.parity(0)


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


class TestTrialStreams:
    def test_trial_draws_only_from_its_seed_tree_child(self, monkeypatch):
        """Trial ``t`` draws from ``interval_generator(seed, t)`` alone, so
        its outcome does not depend on which trials ran before it: the
        trials in reverse order give the serial run."""
        import repro.parallel.sharding as sharding

        children = []

        def recording(seed, index):
            children.append((seed, index))
            return interval_generator(seed, index)

        with monkeypatch.context() as patch:
            patch.setattr(sharding, "interval_generator", recording)
            make_simulator(seed=11).trial_z(7)
        assert children == [(11, 7)]
        simulator = make_simulator(seed=11)
        serial = simulator.run("Y", 40)
        reverse = sum(
            make_simulator(seed=11).trial_y(trial)
            for trial in reversed(range(40))
        )
        assert serial.conditional_failures == reverse

    def test_trial_start_slices_add_up_to_the_serial_run(self):
        whole = make_simulator(seed=4).run("Z", 30)
        head = make_simulator(seed=4).run("Z", 12)
        tail = make_simulator(seed=4, trial_start=12).run("Z", 18)
        assert (head.conditional_failures + tail.conditional_failures
                == whole.conditional_failures)

    def test_same_seed_reproduces(self):
        first = run_sharded_raresim("Z", BER, 30, GROUP, seed=4)
        second = run_sharded_raresim("Z", BER, 30, GROUP, seed=4)
        assert first.as_dict() == second.as_dict()

    def test_negative_trial_start_rejected(self):
        with pytest.raises(ValueError, match="trial_start"):
            make_simulator(trial_start=-1)
