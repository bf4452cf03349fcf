"""Determinism and composition tests for mixed fault scenarios.

The scenario subsystem's contract (docs/faultmodels.md): for the same
``(scheme, scenario, intervals, seed)`` the campaign result is
bit-identical whether it runs serial or sharded, uninterrupted or
killed-and-resumed, with or without the work split across
``interval_start`` boundaries, and equals the dense audit walk (reached
through the ``montecarlo._DENSE`` test seam).  Every test here pins one
face of that contract; the CI fault-scenario job re-checks the serial,
sharded and resumed runs end-to-end through the CLI.
"""

import json
import random

import pytest

from repro.parallel import run_sharded_scenario
from repro.reliability import montecarlo
from repro.reliability.scenario import (
    SCHEMES,
    BurstSpec,
    FaultScenario,
    StuckSpec,
    build_scheme,
    run_scenario_campaign,
    scheme_line_bits,
)
from repro.resilience import Checkpointer, ChaosPolicy, Deadline, load_checkpoint

# Small but non-trivial geometry: every run sees corrections and most
# see failures, so the bit-identity assertions have teeth.
GROUP, INTERVALS, SEED = 4, 12, 11

MIXED = FaultScenario(
    transient_ber=2e-3,
    burst=BurstSpec(rate=0.05, length_pmf=((2, 0.5), (4, 0.5)), interleave=2),
    stuck=StuckSpec(ppm=300.0),
)

CHAOS = ChaosPolicy(plt_flip_rate=0.02, visit_drop_rate=0.02)


def _serial(scheme, scenario=MIXED, dense=False, **kwargs):
    """The serial campaign; ``dense`` runs it as the dense audit walk."""
    defaults = dict(intervals=INTERVALS, group_size=GROUP, seed=SEED)
    defaults.update(kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_DENSE", dense)
        return run_scenario_campaign(scheme, scenario, **defaults)


class TestSpecs:
    def test_burst_spec_roundtrip(self):
        spec = BurstSpec(
            rate=0.05, length_pmf=((2, 0.25), (5, 0.75)),
            span=32, alignment=4, multiplicity=2, interleave=2,
        )
        assert BurstSpec.from_dict(spec.as_dict()) == spec

    def test_fixed_length_constructor(self):
        spec = BurstSpec.fixed_length(rate=0.1, length=3)
        assert spec.pmf_dict() == {3: 1.0}

    def test_scenario_roundtrip(self):
        assert FaultScenario.from_dict(MIXED.as_dict()) == MIXED

    def test_scenario_json_roundtrip_via_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(MIXED.as_dict()))
        assert FaultScenario.load(str(path)) == MIXED

    def test_inactive_scenario(self):
        assert not FaultScenario().active
        assert MIXED.active

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstSpec(rate=1.5, length_pmf=((2, 1.0),))
        with pytest.raises(ValueError):
            BurstSpec(rate=0.1, length_pmf=())
        with pytest.raises(ValueError):
            StuckSpec(ppm=-1.0)
        with pytest.raises(ValueError):
            FaultScenario(transient_ber=2.0)

    def test_burst_geometry_fits_the_row(self):
        with pytest.raises(ValueError, match="'span' 16"):
            BurstSpec(rate=0.1, length_pmf=((100, 1.0),), span=16)
        wide = BurstSpec(rate=0.1, length_pmf=((4, 1.0),), span=200)
        for scheme, fits in (("Z", True), ("eccline", False)):
            row = scheme_line_bits(scheme)
            assert row == build_scheme(scheme, GROUP).array.line_bits
            if fits:
                wide.check_row(row)
            else:
                with pytest.raises(ValueError, match="'span' 200"):
                    wide.check_row(row)
        # The rare-event sampler holds its bursts to the same bound.
        scenario = FaultScenario(burst=BurstSpec(
            rate=1.0, length_pmf=((4, 1.0),), span=600,
        ))
        with pytest.raises(ValueError, match="'span' 600"):
            scenario.sample_burst_vectors_py(random.Random(0), 8, 553)


class TestSchemes:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_scheme_runs_the_mixed_scenario(self, scheme):
        result = _serial(scheme, intervals=4)
        assert result.intervals == 4
        assert sum(result.outcomes.values()) > 0

    def test_build_scheme_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            build_scheme("NOPE")


class TestDeterminism:
    @pytest.mark.parametrize("scheme", ["Z", "eccline", "raid6"])
    def test_sparse_matches_dense(self, scheme):
        dense = _serial(scheme, dense=True)
        sparse = _serial(scheme)
        assert sparse.as_dict() == dense.as_dict()

    def test_ci_mixed_scenario_dense_matches_serial(self):
        """The CI fault-scenario job's run (Z, 10 intervals, G=8, seed
        11) through the dense audit walk equals the serial result."""
        point = dict(intervals=10, group_size=8, seed=11)
        serial = _serial("Z", **point)
        assert _serial("Z", dense=True, **point).as_dict() == serial.as_dict()
        assert sum(serial.outcomes.values()) == 10 * 8 * 8

    def test_interval_split_matches_serial(self):
        """Splitting [0,12) into [0,5)+[5,9)+[9,12) via interval_start is
        the in-process version of what the shard executor does."""
        serial = _serial("Z")
        parts = [
            _serial("Z", intervals=n, interval_start=start)
            for start, n in ((0, 5), (5, 4), (9, 3))
        ]
        from repro.parallel import merge_campaign_results

        merged = merge_campaign_results(parts)
        assert merged.outcomes == serial.outcomes
        assert merged.metadata == serial.metadata
        assert merged.interval_failures == serial.interval_failures

    def test_shards_one_matches_serial(self):
        sharded = run_sharded_scenario(
            "Z", MIXED, INTERVALS, GROUP, shards=1, seed=SEED
        )
        assert sharded.as_dict() == _serial("Z").as_dict()

    def test_multiprocess_shards_match_serial(self):
        sharded = run_sharded_scenario(
            "Z", MIXED, INTERVALS, GROUP, shards=3, seed=SEED
        )
        assert sharded.as_dict() == _serial("Z").as_dict()

    def test_seed_changes_the_run(self):
        assert _serial("Z").as_dict() != _serial("Z", seed=SEED + 1).as_dict()


class TestChaosComposition:
    @pytest.mark.parametrize("scheme", ["Z", "raid6"])
    def test_chaos_sparse_matches_dense(self, scheme):
        runs = [
            _serial(scheme, chaos_policy=CHAOS, chaos_seed=5, dense=dense)
            for dense in (True, False)
        ]
        assert runs[0].as_dict() == runs[1].as_dict()

    def test_chaos_shards_match_serial(self):
        serial = _serial("Z", chaos_policy=CHAOS, chaos_seed=5)
        sharded = run_sharded_scenario(
            "Z", MIXED, INTERVALS, GROUP, shards=2, seed=SEED,
            chaos_policy=CHAOS, chaos_seed=5,
        )
        assert sharded.as_dict() == serial.as_dict()


class TestCheckpointResume:
    def test_kill_then_resume_matches_uninterrupted(self, tmp_path):
        reference = _serial("Z")
        ck = str(tmp_path / "ck.json")
        partial = _serial(
            "Z",
            checkpointer=Checkpointer(ck, every=3),
            deadline=Deadline(1e-9),
        )
        assert partial.truncated and partial.stop_reason == "deadline"
        assert partial.intervals < INTERVALS
        resumed = _serial(
            "Z",
            checkpointer=Checkpointer(
                ck, every=3, resume=load_checkpoint(ck, "scenario")
            ),
        )
        assert resumed.as_dict() == reference.as_dict()

    def test_sharded_kill_then_resume_matches_uninterrupted(self, tmp_path):
        reference = run_sharded_scenario(
            "Z", MIXED, INTERVALS, GROUP, shards=2, seed=SEED
        )
        ck = str(tmp_path / "ck.json")
        run_sharded_scenario(
            "Z", MIXED, INTERVALS, GROUP, shards=2, seed=SEED,
            checkpoint_path=ck, checkpoint_every=1, deadline_s=1e-6,
        )
        resumed = run_sharded_scenario(
            "Z", MIXED, INTERVALS, GROUP, shards=2, seed=SEED,
            checkpoint_path=ck, checkpoint_every=1, resume_from=ck,
        )
        assert resumed.as_dict() == reference.as_dict()

    def test_checkpoint_carries_no_rng_state(self, tmp_path):
        """The seed tree makes interval RNG a pure function of (seed,
        index); the checkpoint must stay RNG-free so resumes cannot
        diverge from the serial stream."""
        ck = str(tmp_path / "ck.json")
        _serial("Z", checkpointer=Checkpointer(ck, every=1))
        payload = load_checkpoint(ck, "scenario")
        assert "rng" not in payload
        assert payload["config"]["scenario"] == MIXED.as_dict()

    def test_stuck_lines_are_counted_once_per_pass(self):
        """A stuck-at line stays dirty after its repair, so a later group
        repair in the same pass touches it again; it is still one line
        visit.  Seeds 3/4/5 once accounted 1283/1294/1296 outcomes."""
        for seed in (3, 4, 5):
            results = [
                _serial("Z", intervals=20, group_size=8, seed=seed,
                        dense=dense).as_dict()
                for dense in (False, True)
            ]
            assert results[0] == results[1]
            assert sum(results[0]["outcomes"].values()) == 20 * 8 * 8

    def test_mismatched_scenario_rejected_on_resume(self, tmp_path):
        from repro.resilience import CheckpointError

        ck = str(tmp_path / "ck.json")
        _serial("Z", checkpointer=Checkpointer(ck, every=1))
        other = FaultScenario(transient_ber=1e-3)
        with pytest.raises(CheckpointError):
            run_scenario_campaign(
                "Z", other, INTERVALS, GROUP, seed=SEED,
                checkpointer=Checkpointer(
                    ck, every=1, resume=load_checkpoint(ck, "scenario")
                ),
            )


class TestRaresimOverlay:
    @staticmethod
    def _simulator(scenario, sparse=True, seed=3):
        from repro.reliability.raresim import ConditionalGroupSimulator

        simulator = ConditionalGroupSimulator(
            ber=1e-3, group_size=8, num_groups=32,
            seed=seed, scenario=scenario,
        )
        simulator.sparse = sparse
        return simulator

    def test_overlay_is_deterministic(self):
        results = [
            self._simulator(MIXED).run("Z", 60).as_dict() for _ in range(2)
        ]
        assert results[0] == results[1]

    def test_overlay_sparse_matches_dense(self):
        sparse = self._simulator(MIXED, sparse=True).run("Z", 60)
        dense = self._simulator(MIXED, sparse=False).run("Z", 60)
        assert sparse.as_dict() == dense.as_dict()

    def test_overlay_changes_the_estimate(self):
        # Stuck-at cells and bursts only add faults.  The overlay lifts
        # this point's Z rate about 6x (0.3 % -> 2 %): 600 trials
        # separate the two, 60 can tie at zero failures.
        plain = self._simulator(None).run("Z", 600)
        mixed = self._simulator(MIXED).run("Z", 600)
        assert plain.as_dict() != mixed.as_dict()
        assert mixed.conditional_failures > plain.conditional_failures

    def test_overlay_kill_then_resume(self, tmp_path):
        reference = self._simulator(MIXED).run("Z", 60)
        ck = str(tmp_path / "ck.json")
        self._simulator(MIXED).run(
            "Z", 60,
            checkpointer=Checkpointer(ck, every=10),
            deadline=Deadline(1e-9),
        )
        resumed = self._simulator(MIXED).run(
            "Z", 60,
            checkpointer=Checkpointer(
                ck, every=10, resume=load_checkpoint(ck, "raresim")
            ),
        )
        assert resumed.as_dict() == reference.as_dict()
