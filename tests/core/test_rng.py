"""The rng/seed resolution policy behind every stochastic constructor."""

import warnings

import numpy as np
import pytest

from repro.core.rng import (
    UnseededRNGWarning,
    reset_unseeded_warnings,
    resolve_rng,
)


@pytest.fixture(autouse=True)
def fresh_warning_state():
    reset_unseeded_warnings()
    yield
    reset_unseeded_warnings()


class TestResolveRng:
    def test_explicit_rng_wins(self):
        generator = np.random.default_rng(1)
        assert resolve_rng(rng=generator) is generator

    def test_seed_is_deterministic(self):
        a = resolve_rng(seed=42)
        b = resolve_rng(seed=42)
        assert a.integers(0, 2**32, 16).tolist() == \
            b.integers(0, 2**32, 16).tolist()

    def test_seed_sequence_accepted(self):
        sequence = np.random.SeedSequence(7)
        a = resolve_rng(seed=sequence)
        b = resolve_rng(seed=np.random.SeedSequence(7))
        assert a.integers(0, 2**32, 4).tolist() == \
            b.integers(0, 2**32, 4).tolist()

    def test_both_rng_and_seed_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            resolve_rng(rng=np.random.default_rng(1), seed=2, owner="thing")

    def test_unseeded_warns_once_per_owner(self):
        with pytest.warns(UnseededRNGWarning, match="widget"):
            resolve_rng(owner="widget")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolve_rng(owner="widget")  # second call: silent
        with pytest.warns(UnseededRNGWarning, match="gadget"):
            resolve_rng(owner="gadget")  # new owner warns again


class TestConstructorsAcceptSeed:
    """The threaded seed= path is equivalent to passing the rng by hand."""

    def test_transient_injector_seed_equals_rng(self):
        from repro.sttram.faults import TransientFaultInjector

        by_seed = TransientFaultInjector(line_bits=64, ber=0.05, seed=9)
        by_rng = TransientFaultInjector(
            line_bits=64, ber=0.05, rng=np.random.default_rng(9)
        )
        for _ in range(20):
            assert by_seed.error_vector() == by_rng.error_vector()

    def test_campaign_seed_param_matches_rng_param(self):
        from repro.reliability.montecarlo import run_group_campaign

        kwargs = dict(ber=5e-3, trials=3, group_size=8, interval_s=0.02)
        by_seed = run_group_campaign("Z", seed=11, **kwargs)
        by_rng = run_group_campaign(
            "Z", rng=np.random.default_rng(11), **kwargs
        )
        assert by_seed.as_dict() == by_rng.as_dict()
