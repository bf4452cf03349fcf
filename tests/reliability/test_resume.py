"""Kill-and-resume acceptance tests: resumed == uninterrupted, bit for bit."""

import random

import numpy as np
import pytest

from repro.reliability.montecarlo import run_group_campaign
from repro.reliability.raresim import ConditionalGroupSimulator
from repro.resilience import (
    ChaosInjector,
    ChaosPolicy,
    Checkpointer,
    Deadline,
    load_checkpoint,
)

LEVEL = "Y"
BER = 5e-3
GROUP_SIZE = 16
INTERVALS = 8


class InterruptAfter:
    """Progress reporter that raises KeyboardInterrupt after N updates."""

    def __init__(self, updates: int) -> None:
        self.remaining = updates

    def update(self, n: int = 1) -> None:
        self.remaining -= 1
        if self.remaining <= 0:
            raise KeyboardInterrupt

    def finish(self) -> None:
        pass


def mc_campaign(seed=0, **kwargs):
    return run_group_campaign(
        LEVEL, BER, trials=INTERVALS, group_size=GROUP_SIZE,
        rng=np.random.default_rng(seed), **kwargs,
    )


class TestMonteCarloResume:
    def test_interrupted_then_resumed_equals_uninterrupted(self, tmp_path):
        path = str(tmp_path / "ck.json")
        partial = mc_campaign(
            checkpointer=Checkpointer(path=path),
            progress=InterruptAfter(3),
        )
        assert partial.truncated
        assert partial.stop_reason == "interrupted"
        assert partial.intervals == 3
        resumed = mc_campaign(
            checkpointer=Checkpointer(
                path=path, resume=load_checkpoint(path, "montecarlo")
            ),
        )
        baseline = mc_campaign()
        assert not resumed.truncated
        assert resumed.as_dict() == baseline.as_dict()

    def test_deadline_then_resumed_equals_uninterrupted(self, tmp_path):
        path = str(tmp_path / "ck.json")
        now = [0.0]

        def clock():
            now[0] += 1.0
            return now[0]

        partial = mc_campaign(
            checkpointer=Checkpointer(path=path),
            deadline=Deadline(1.5, clock=clock),
        )
        assert partial.truncated
        assert partial.stop_reason == "deadline"
        assert 0 < partial.intervals < INTERVALS
        resumed = mc_campaign(
            checkpointer=Checkpointer(
                path=path, resume=load_checkpoint(path, "montecarlo")
            ),
        )
        assert resumed.as_dict() == mc_campaign().as_dict()

    def test_periodic_checkpoints_flush_on_schedule(self, tmp_path):
        path = str(tmp_path / "ck.json")
        ck = Checkpointer(path=path, every=2)
        mc_campaign(checkpointer=ck)
        # INTERVALS/2 periodic writes plus the final completion flush.
        assert ck.writes == INTERVALS // 2 + 1
        final = load_checkpoint(path, "montecarlo")
        assert final["completed"] == INTERVALS

    def test_chaos_campaign_resumes_bit_identically(self, tmp_path):
        path = str(tmp_path / "ck.json")
        policy = ChaosPolicy(plt_flip_rate=0.05, visit_drop_rate=0.05)
        partial = mc_campaign(
            chaos=ChaosInjector(policy, seed=5),
            checkpointer=Checkpointer(path=path),
            progress=InterruptAfter(4),
        )
        assert partial.truncated
        resumed = mc_campaign(
            chaos=ChaosInjector(policy, seed=5),
            checkpointer=Checkpointer(
                path=path, resume=load_checkpoint(path, "montecarlo")
            ),
        )
        baseline = mc_campaign(chaos=ChaosInjector(policy, seed=5))
        assert resumed.as_dict() == baseline.as_dict()

    def test_resume_refuses_different_config(self, tmp_path):
        from repro.resilience import CheckpointError

        path = str(tmp_path / "ck.json")
        mc_campaign(checkpointer=Checkpointer(path=path))
        with pytest.raises(CheckpointError, match="ber"):
            run_group_campaign(
                LEVEL, 2 * BER, trials=INTERVALS, group_size=GROUP_SIZE,
                rng=np.random.default_rng(0),
                checkpointer=Checkpointer(
                    path=path, resume=load_checkpoint(path, "montecarlo")
                ),
            )

    def test_chaos_off_bit_identical_to_no_chaos_argument(self):
        zero = ChaosInjector(ChaosPolicy(), seed=9)
        with_knob = mc_campaign(chaos=zero)
        without = mc_campaign()
        assert with_knob.as_dict() == without.as_dict()

    def test_randomized_content_resume(self, tmp_path):
        from repro.core.engine import build_engine
        from repro.core.linecodec import LineCodec
        from repro.reliability.montecarlo import run_engine_campaign
        from repro.sttram.array import STTRAMArray

        def engine():
            codec = LineCodec()
            array = STTRAMArray(GROUP_SIZE * GROUP_SIZE, codec.stored_bits)
            return build_engine(
                LEVEL, array, group_size=GROUP_SIZE, codec=codec
            )

        def campaign(**kwargs):
            return run_engine_campaign(
                engine(), BER, INTERVALS, rng=np.random.default_rng(1),
                randomize_content=True, **kwargs,
            )

        path = str(tmp_path / "ck.json")
        partial = campaign(
            checkpointer=Checkpointer(path=path),
            progress=InterruptAfter(3),
        )
        assert partial.truncated
        resumed = campaign(
            checkpointer=Checkpointer(
                path=path, resume=load_checkpoint(path, "montecarlo")
            ),
        )
        assert resumed.as_dict() == campaign().as_dict()


class TestRaresimResume:
    def simulator(self):
        return ConditionalGroupSimulator(
            ber=1e-3, group_size=GROUP_SIZE, num_groups=64,
            rng=random.Random(3),
        )

    def test_interrupted_then_resumed_equals_uninterrupted(self, tmp_path):
        path = str(tmp_path / "ck.json")
        partial = self.simulator().run(
            "Z", 10,
            checkpointer=Checkpointer(path=path),
            progress=InterruptAfter(4),
        )
        assert partial.truncated
        assert partial.stop_reason == "interrupted"
        assert partial.trials == 4
        resumed = self.simulator().run(
            "Z", 10,
            checkpointer=Checkpointer(
                path=path, resume=load_checkpoint(path, "raresim")
            ),
        )
        baseline = self.simulator().run("Z", 10)
        assert not resumed.truncated
        assert resumed.as_dict() == baseline.as_dict()

    def test_deadline_truncates_cleanly(self, tmp_path):
        now = [0.0]

        def clock():
            now[0] += 1.0
            return now[0]

        result = self.simulator().run(
            "Y", 10, deadline=Deadline(2.5, clock=clock)
        )
        assert result.truncated
        assert result.stop_reason == "deadline"
        assert 0 < result.trials < 10

    def test_resume_refuses_different_level(self, tmp_path):
        from repro.resilience import CheckpointError

        path = str(tmp_path / "ck.json")
        self.simulator().run("Y", 4, checkpointer=Checkpointer(path=path))
        with pytest.raises(CheckpointError, match="level"):
            self.simulator().run(
                "Z", 4,
                checkpointer=Checkpointer(
                    path=path, resume=load_checkpoint(path, "raresim")
                ),
            )


class TestScenarioResume:
    """The scenario loop's interrupt contract, as for the two above."""

    @staticmethod
    def campaign(**kwargs):
        from repro.reliability.scenario import (
            BurstSpec,
            FaultScenario,
            StuckSpec,
            run_scenario_campaign,
        )

        scenario = FaultScenario(
            transient_ber=2e-3,
            burst=BurstSpec(rate=0.05, length_pmf=((2, 0.5), (4, 0.5))),
            stuck=StuckSpec(ppm=300.0),
        )
        return run_scenario_campaign(
            "Z", scenario, INTERVALS, 4, seed=11,
            chaos_policy=ChaosPolicy(plt_flip_rate=0.05, visit_drop_rate=0.05),
            chaos_seed=2, **kwargs,
        )

    def test_interrupted_then_resumed_equals_uninterrupted(self, tmp_path):
        path = str(tmp_path / "ck.json")
        partial = self.campaign(
            checkpointer=Checkpointer(path=path),
            progress=InterruptAfter(3),
        )
        assert partial.truncated
        assert partial.stop_reason == "interrupted"
        assert partial.intervals == 3
        assert load_checkpoint(path, "scenario")["completed"] == 3
        resumed = self.campaign(
            checkpointer=Checkpointer(
                path=path, resume=load_checkpoint(path, "scenario")
            ),
        )
        assert not resumed.truncated
        assert resumed.as_dict() == self.campaign().as_dict()


class TestCheckpointTelemetry:
    """Every campaign kind records each flush the same way: one
    ``checkpoint_write`` span and one tick of its kind's counter."""

    @staticmethod
    def _counter(telemetry, name):
        family = telemetry.metrics.get(name)
        assert family is not None, name
        return dict(family.samples())[()].value

    def _check(self, telemetry, checkpointer, counter):
        spans = telemetry.tracer.spans_named("checkpoint_write")
        assert checkpointer.writes == 3
        assert len(spans) == checkpointer.writes
        assert all(span.attributes["path"] == checkpointer.path for span in spans)
        assert self._counter(telemetry, counter) == checkpointer.writes

    def test_montecarlo(self, tmp_path):
        from repro.obs import Telemetry

        telemetry = Telemetry.create()
        ck = Checkpointer(path=str(tmp_path / "ck.json"), every=4)
        mc_campaign(telemetry=telemetry, checkpointer=ck)
        self._check(telemetry, ck, "campaign_checkpoint_writes_total")

    def test_raresim(self, tmp_path):
        from repro.obs import Telemetry

        telemetry = Telemetry.create()
        ck = Checkpointer(path=str(tmp_path / "ck.json"), every=2)
        TestRaresimResume().simulator().run(
            "Y", 5, telemetry=telemetry, checkpointer=ck
        )
        self._check(telemetry, ck, "raresim_checkpoint_writes_total")

    def test_scenario(self, tmp_path):
        from repro.obs import Telemetry

        telemetry = Telemetry.create()
        ck = Checkpointer(path=str(tmp_path / "ck.json"), every=4)
        TestScenarioResume.campaign(telemetry=telemetry, checkpointer=ck)
        self._check(telemetry, ck, "scenario_checkpoint_writes_total")
