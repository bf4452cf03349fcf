"""Tests for the Monte-Carlo campaign harness (fast configurations)."""

import numpy as np
import pytest

from repro.baselines.cppc import CPPCCache
from repro.core.engine import SuDokuX
from repro.core.linecodec import LineCodec
from repro.parallel import merge_campaign_results, run_sharded_campaign
from repro.reliability import montecarlo
from repro.reliability.montecarlo import (
    CampaignResult,
    agreement_ratio,
    heal,
    run_engine_campaign,
    run_group_campaign,
)
from repro.reliability.sudokumodel import SuDokuReliabilityModel
from repro.resilience import ChaosPolicy
from repro.sttram.array import STTRAMArray


class TestCampaignResult:
    def test_failure_probability(self):
        result = CampaignResult(intervals=100, ber=1e-3, interval_s=0.02)
        result.interval_failures = 25
        assert result.failure_probability == pytest.approx(0.25)

    def test_wilson_interval_contains_point(self):
        result = CampaignResult(intervals=200, ber=1e-3, interval_s=0.02)
        result.interval_failures = 20
        low, high = result.wilson_interval()
        assert low < 0.1 < high
        assert 0.0 <= low < high <= 1.0

    def test_wilson_empty(self):
        result = CampaignResult(intervals=0, ber=1e-3, interval_s=0.02)
        assert result.wilson_interval() == (0.0, 1.0)

    def test_fit_and_mttf(self):
        result = CampaignResult(intervals=100, ber=1e-3, interval_s=0.02)
        result.interval_failures = 1
        assert result.fit() > 0
        assert result.mttf_seconds() == pytest.approx(2.0)

    def test_outcome_rate(self):
        result = CampaignResult(intervals=10, ber=1e-3, interval_s=0.02)
        result.outcomes["corrected_ecc1"] = 50
        assert result.outcome_rate("corrected_ecc1") == pytest.approx(5.0)
        assert result.outcome_rate("missing") == 0.0


class TestHeal:
    def test_restores_golden(self):
        array = STTRAMArray(8, 64)
        array.write(0, 0xAA)
        array.inject(0, 0x0F)
        heal(array)
        assert array.is_clean(0)
        assert array.read(0) == 0xAA


class TestEngineCampaign:
    def test_small_campaign_runs_and_counts(self):
        codec = LineCodec()
        array = STTRAMArray(64, codec.stored_bits)
        engine = SuDokuX(array, group_size=8, codec=codec)
        result = run_engine_campaign(
            engine, ber=2e-4, intervals=30,
            rng=np.random.default_rng(7), randomize_content=True,
        )
        assert result.intervals == 30
        total_outcomes = sum(result.outcomes.values())
        assert total_outcomes > 0
        assert result.outcomes.get("sdc", 0) == 0
        # Campaign healed everything between intervals.
        assert array.faulty_lines() == []

    def test_campaign_with_baseline_scheme(self):
        cache = CPPCCache(num_lines=32)
        result = run_engine_campaign(
            cache, ber=1e-4, intervals=20, rng=np.random.default_rng(8)
        )
        assert result.intervals == 20

    def test_zero_ber_never_fails(self):
        codec = LineCodec()
        array = STTRAMArray(64, codec.stored_bits)
        engine = SuDokuX(array, group_size=8, codec=codec)
        result = run_engine_campaign(
            engine, ber=0.0, intervals=10, rng=np.random.default_rng(9),
            randomize_content=False,
        )
        assert result.interval_failures == 0
        # The sparse scrub bulk-accounts every untouched line as clean:
        # with zero BER that is all 64 lines in each of the 10 intervals.
        assert result.outcomes == {"clean": 640}

    def test_zero_ber_dense_decodes_everything(self, monkeypatch):
        codec = LineCodec()
        array = STTRAMArray(64, codec.stored_bits)
        engine = SuDokuX(array, group_size=8, codec=codec)
        scrubbed = []
        scrub_frames = engine.scrub_frames
        monkeypatch.setattr(
            engine, "scrub_frames",
            lambda frames: scrubbed.append(len(frames)) or scrub_frames(frames),
        )
        monkeypatch.setattr(montecarlo, "_DENSE", True)
        result = run_engine_campaign(
            engine, ber=0.0, intervals=10, rng=np.random.default_rng(9),
            randomize_content=False,
        )
        assert result.interval_failures == 0
        assert result.outcomes == {"clean": 640}
        assert scrubbed == [64] * 10

    def test_rejects_unknown_scrub_mode(self):
        """Every campaign scrubs sparse: the retired knob is refused,
        not silently ignored."""
        codec = LineCodec()
        array = STTRAMArray(16, codec.stored_bits)
        engine = SuDokuX(array, group_size=4, codec=codec)
        with pytest.raises(TypeError, match="scrub_mode"):
            run_engine_campaign(
                engine, ber=0.0, intervals=1,
                rng=np.random.default_rng(0), scrub_mode="dense",
            )


class TestGroupCampaignValidation:
    def test_x_measurement_brackets_model(self):
        """The headline validation: functional X vs analytical X."""
        ber = 3e-4
        group = 16
        result = run_group_campaign(
            "X", ber, trials=250, group_size=group,
            rng=np.random.default_rng(10),
        )
        model = SuDokuReliabilityModel(
            ber=ber, group_size=group, num_lines=group * group
        )
        low, high = result.wilson_interval(z=2.6)
        predicted = model.cache_fail_x()
        assert low <= predicted <= high, (
            f"model {predicted:.4f} outside CI ({low:.4f}, {high:.4f})"
        )

    def test_agreement_ratio_helper(self):
        assert agreement_ratio(2.0, 1.0) == 2.0
        assert agreement_ratio(0.0, 0.0) == 1.0
        assert agreement_ratio(1.0, 0.0) == float("inf")


class TestSeedTreeInvariance:
    """Monte-Carlo campaigns run on the per-interval seed tree: serial,
    K-shard and resumed runs of one seed, and the dense audit walk, are
    one result."""

    LEVEL, BER, INTERVALS, GROUP, SEED = "Z", 2e-3, 7, 8, 13
    CHAOS = ChaosPolicy(
        plt_flip_rate=0.05, map_swap_rate=0.02,
        visit_drop_rate=0.05, visit_duplicate_rate=0.05,
    )

    def _run(self, **kwargs):
        return run_sharded_campaign(
            self.LEVEL, self.BER, self.INTERVALS, self.GROUP,
            seed=self.SEED, **kwargs,
        ).as_dict()

    @pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
    def test_serial_equals_sharded_in_both_scrub_modes(self, chaos, monkeypatch):
        extra = dict(chaos_policy=self.CHAOS, chaos_seed=4) if chaos else {}
        serial = self._run(shards=1, **extra)
        assert sum(serial["outcomes"].values()) >= self.INTERVALS * self.GROUP ** 2
        # Forked shards inherit the dense seam from this process.
        for dense in (False, True):
            monkeypatch.setattr(montecarlo, "_DENSE", dense)
            for shards in (1, 2, 3):
                assert self._run(shards=shards, **extra) == serial

    def test_interval_start_slices_compose_to_the_serial_run(self):
        def part(start, count):
            return run_group_campaign(
                self.LEVEL, self.BER, trials=count, group_size=self.GROUP,
                seed=self.SEED, interval_start=start,
            )

        serial = part(0, self.INTERVALS)
        merged = merge_campaign_results([part(0, 3), part(3, 2), part(5, 2)])
        assert merged.as_dict() == serial.as_dict()

    def test_mid_run_checkpoint_is_rng_free_and_resumes(self, tmp_path):
        from repro.resilience import Checkpointer, load_checkpoint

        class InterruptAfter:
            def __init__(self, updates):
                self.remaining = updates

            def update(self, n=1):
                self.remaining -= 1
                if self.remaining <= 0:
                    raise KeyboardInterrupt

            def finish(self):
                pass

        def campaign(**kwargs):
            return run_group_campaign(
                self.LEVEL, self.BER, trials=self.INTERVALS,
                group_size=self.GROUP, seed=self.SEED,
                chaos_policy=self.CHAOS, chaos_seed=4, **kwargs,
            )

        path = str(tmp_path / "ck.json")
        partial = campaign(
            checkpointer=Checkpointer(path=path), progress=InterruptAfter(3)
        )
        assert partial.truncated and partial.intervals == 3
        payload = load_checkpoint(path, "montecarlo")
        assert payload["done"] == [[0, 3]]
        assert "rng" not in payload
        assert "fill_seed" not in payload["aggregates"]
        resumed = campaign(
            checkpointer=Checkpointer(path=path, resume=payload)
        )
        assert resumed.as_dict() == campaign().as_dict()

    def test_resume_refuses_another_root_seed(self, tmp_path):
        from repro.resilience import Checkpointer, CheckpointError, load_checkpoint

        path = str(tmp_path / "ck.json")
        run_group_campaign(
            self.LEVEL, self.BER, trials=2, group_size=self.GROUP,
            seed=self.SEED, checkpointer=Checkpointer(path=path),
        )
        with pytest.raises(CheckpointError, match="seed"):
            run_group_campaign(
                self.LEVEL, self.BER, trials=2, group_size=self.GROUP,
                seed=self.SEED + 1,
                checkpointer=Checkpointer(
                    path=path, resume=load_checkpoint(path, "montecarlo")
                ),
            )
