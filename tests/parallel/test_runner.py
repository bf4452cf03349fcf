"""Golden determinism tests for the sharded campaign executor.

These pin the three guarantees docs/parallelism.md promises:

* ``shards=1`` is bit-identical to the serial runners;
* the K-shard outcome of a seed equals the serial one, for every kind;
* a sharded campaign killed mid-flight (deadline as a deterministic
  stand-in for kill -9) and resumed -- at the same or another shard
  count -- equals the uninterrupted run.
"""

import os
import shutil

import numpy as np
import pytest

from repro.obs import ProgressReporter, Telemetry
from repro.parallel import (
    ShardError,
    run_sharded_campaign,
    run_sharded_raresim,
    run_sharded_scenario,
)
from repro.reliability import montecarlo
from repro.reliability.montecarlo import run_group_campaign
from repro.reliability.raresim import ConditionalGroupSimulator
from repro.reliability.scenario import BurstSpec, FaultScenario, StuckSpec
from repro.resilience import (
    ChaosPolicy,
    Checkpointer,
    CheckpointError,
    load_checkpoint,
)

# Small but non-trivial: BER high enough that every run sees corrections
# and some failures, so the determinism assertions have teeth.
LEVEL, BER, INTERVALS, GROUP = "Z", 5e-3, 6, 16
RARE = dict(level="Z", ber=1e-3, trials=80, group_size=16, num_groups=64)
SEED = 7
#: Stuck-at plus burst overlay for the rare-event determinism cases.
RARE_OVERLAY = FaultScenario(
    transient_ber=1e-3,
    burst=BurstSpec(rate=0.05, length_pmf=((2, 0.5), (4, 0.5)), interleave=2),
    stuck=StuckSpec(ppm=500.0),
)


def _raresim(level=RARE["level"], trials=RARE["trials"], **kwargs):
    return run_sharded_raresim(
        level, RARE["ber"], trials, RARE["group_size"], RARE["num_groups"],
        seed=SEED, **kwargs,
    )


@pytest.fixture(scope="module")
def sharded_reference():
    """The canonical 2-shard outcome of SEED (shared across tests)."""
    return run_sharded_campaign(
        LEVEL, BER, INTERVALS, GROUP, shards=2, seed=SEED
    )


class TestSerialEquivalence:
    def test_shards_one_matches_serial_campaign(self):
        sharded = run_sharded_campaign(
            LEVEL, BER, INTERVALS, GROUP, shards=1, seed=SEED
        )
        serial = run_group_campaign(
            LEVEL, BER, trials=INTERVALS, group_size=GROUP,
            rng=np.random.default_rng(SEED),
        )
        assert sharded.as_dict() == serial.as_dict()

    def test_shards_one_matches_simulator_run(self):
        sharded = _raresim(shards=1)
        serial = ConditionalGroupSimulator(
            ber=RARE["ber"], group_size=RARE["group_size"],
            num_groups=RARE["num_groups"], seed=SEED,
        ).run(RARE["level"], RARE["trials"])
        assert sharded.as_dict() == serial.as_dict()


class TestScrubModeThreading:
    def test_sharded_dense_matches_sparse(self, sharded_reference, monkeypatch):
        """The dense audit walk is bit-identical, so forked shards that
        inherit the test seam must reproduce the reference merge."""
        monkeypatch.setattr(montecarlo, "_DENSE", True)
        dense = run_sharded_campaign(
            LEVEL, BER, INTERVALS, GROUP, shards=2, seed=SEED,
        )
        assert dense.as_dict() == sharded_reference.as_dict()

    def test_invalid_scrub_mode_fails_fast(self):
        """The retired knob is refused in the parent, before any fork."""
        with pytest.raises(TypeError, match="scrub_mode"):
            run_sharded_campaign(
                LEVEL, BER, INTERVALS, GROUP, shards=2, seed=SEED,
                scrub_mode="dense",
            )
        with pytest.raises(TypeError, match="scrub_mode"):
            run_sharded_raresim(
                RARE["level"], RARE["ber"], RARE["trials"],
                RARE["group_size"], RARE["num_groups"], shards=2,
                seed=SEED, scrub_mode="dense",
            )

    def test_invalid_backend_fails_fast(self):
        with pytest.raises(ValueError, match="backend"):
            run_sharded_campaign(
                LEVEL, BER, INTERVALS, GROUP, shards=2, seed=SEED,
                backend="bogus",
            )
        with pytest.raises(ValueError, match="backend"):
            run_sharded_raresim(
                RARE["level"], RARE["ber"], RARE["trials"],
                RARE["group_size"], RARE["num_groups"], shards=2,
                seed=SEED, backend="bogus",
            )


class TestShardedDeterminism:
    def test_same_seed_same_shards_reproduces(self, sharded_reference):
        again = run_sharded_campaign(
            LEVEL, BER, INTERVALS, GROUP, shards=2, seed=SEED
        )
        assert again.as_dict() == sharded_reference.as_dict()

    def test_merged_covers_all_intervals(self, sharded_reference):
        assert sharded_reference.intervals == INTERVALS
        # Line-level outcome counts from both shards must have survived
        # the merge (at this BER every interval records corrections).
        assert sum(sharded_reference.outcomes.values()) > 0

    def test_kill_then_resume_matches_uninterrupted(
        self, sharded_reference, tmp_path
    ):
        ck = str(tmp_path / "ck.json")
        partial = run_sharded_campaign(
            LEVEL, BER, INTERVALS, GROUP, shards=2, seed=SEED,
            checkpoint_path=ck, checkpoint_every=1, deadline_s=1e-6,
        )
        assert partial.truncated and partial.stop_reason == "deadline"
        assert partial.intervals < INTERVALS
        resumed = run_sharded_campaign(
            LEVEL, BER, INTERVALS, GROUP, shards=2, seed=SEED,
            checkpoint_path=ck, checkpoint_every=1, resume_from=ck,
        )
        assert resumed.as_dict() == sharded_reference.as_dict()

    def test_raresim_kill_then_resume_matches_uninterrupted(self, tmp_path):
        ck = str(tmp_path / "ck.json")
        reference = _raresim(shards=1)
        _raresim(
            shards=2, checkpoint_path=ck, checkpoint_every=5,
            deadline_s=1e-6,
        )
        resumed = _raresim(
            shards=2, checkpoint_path=ck, checkpoint_every=5,
            resume_from=ck,
        )
        assert resumed.as_dict() == reference.as_dict()

    def test_raresim_serial_kill_then_resume_matches_uninterrupted(
        self, tmp_path
    ):
        ck = str(tmp_path / "ck.json")
        partial = _raresim(
            shards=1, checkpoint_path=ck, checkpoint_every=5,
            deadline_s=1e-6,
        )
        assert partial.truncated and partial.trials < RARE["trials"]
        resumed = _raresim(
            shards=1, checkpoint_path=ck, checkpoint_every=5,
            resume_from=ck,
        )
        assert resumed.as_dict() == _raresim(shards=1).as_dict()

    @pytest.mark.parametrize("overlay", [None, RARE_OVERLAY],
                             ids=["plain", "overlay"])
    @pytest.mark.parametrize("level", ["Y", "Z"])
    def test_raresim_shards_equal_serial(self, level, overlay):
        """Trial t draws from seed-tree child (seed, t) whichever shard
        runs it, so every K merges to the serial result."""
        serial = _raresim(level, trials=30, shards=1, scenario=overlay)
        assert 0 < serial.conditional_failures < 30
        for shards in (2, 3):
            sharded = _raresim(
                level, trials=30, shards=shards, scenario=overlay
            )
            assert sharded.as_dict() == serial.as_dict(), shards


class TestCancellation:
    """Job-level cancellation: the hook the serve scheduler drives."""

    def test_serial_cancel_truncates_with_cancelled_reason(self):
        result = run_sharded_campaign(
            LEVEL, BER, INTERVALS, GROUP, shards=1, seed=SEED,
            cancel=lambda: True,
        )
        assert result.truncated
        assert result.stop_reason == "cancelled"
        assert result.intervals < INTERVALS

    def test_serial_cancel_then_resume_matches_uninterrupted(self, tmp_path):
        reference = run_sharded_campaign(
            LEVEL, BER, INTERVALS, GROUP, shards=1, seed=SEED,
        )
        ck = str(tmp_path / "ck.json")
        calls = {"n": 0}

        def cancel_after_three() -> bool:
            calls["n"] += 1
            return calls["n"] > 3

        partial = run_sharded_campaign(
            LEVEL, BER, INTERVALS, GROUP, shards=1, seed=SEED,
            checkpoint_path=ck, checkpoint_every=1,
            cancel=cancel_after_three,
        )
        assert partial.truncated and partial.stop_reason == "cancelled"
        assert 0 < partial.intervals < INTERVALS
        resumed = run_sharded_campaign(
            LEVEL, BER, INTERVALS, GROUP, shards=1, seed=SEED,
            checkpoint_path=ck, checkpoint_every=1, resume_from=ck,
        )
        assert resumed.as_dict() == reference.as_dict()

    def test_serial_raresim_cancel_reports_cancelled(self):
        result = run_sharded_raresim(
            RARE["level"], RARE["ber"], RARE["trials"],
            RARE["group_size"], RARE["num_groups"], shards=1, seed=SEED,
            cancel=lambda: True,
        )
        assert result.truncated
        assert result.stop_reason == "cancelled"

    def test_sharded_cancel_interrupts_workers(self, tmp_path):
        # Enough trials that the workers cannot finish before the
        # parent polls the hook; cancellation fires once the merged
        # progress shows the campaign is genuinely under way.
        ck = str(tmp_path / "ck.json")
        state = {"done": 0}

        class CountingProgress:
            enabled = True

            def update(self, done=None, advance=1):
                state["done"] += advance

            def note_resumed(self, units):
                pass

            def finish(self):
                pass

        result = run_sharded_raresim(
            RARE["level"], RARE["ber"], 4000,
            RARE["group_size"], RARE["num_groups"], shards=2, seed=SEED,
            checkpoint_path=ck, checkpoint_every=10,
            progress=CountingProgress(),
            cancel=lambda: state["done"] >= 20,
        )
        assert result.truncated
        assert result.stop_reason == "cancelled"
        assert result.trials < 4000


#: Per case: the snapshot kind, the unit count, and the run.
CROSS_K = {
    "campaign-chaos": ("montecarlo", 9, lambda **kwargs: run_sharded_campaign(
        LEVEL, BER, 9, GROUP, seed=SEED, chaos_seed=4,
        chaos_policy=ChaosPolicy(plt_flip_rate=0.05, visit_drop_rate=0.05),
        **kwargs,
    )),
    "scenario": ("scenario", 9, lambda **kwargs: run_sharded_scenario(
        "Z", RARE_OVERLAY, 9, 4, seed=SEED, **kwargs,
    )),
    "raresim": ("raresim", 21, lambda **kwargs: _raresim(
        trials=21, **kwargs
    )),
    "raresim-overlay": ("raresim", 21, lambda **kwargs: _raresim(
        trials=21, scenario=RARE_OVERLAY, **kwargs
    )),
}


class TestCrossShardResume:
    """A checkpoint is one file of completed global unit ranges, so a
    run stopped at two shards resumes at any shard count."""

    @pytest.mark.parametrize("resume_shards", [1, 3])
    @pytest.mark.parametrize("case", sorted(CROSS_K))
    def test_stopped_at_two_resumed_at_k_equals_serial(
        self, tmp_path, case, resume_shards
    ):
        kind, units, run = CROSS_K[case]
        ck = str(tmp_path / "ck.json")
        partial = run(
            shards=2, checkpoint_path=ck, checkpoint_every=1, deadline_s=1e-6,
        )
        assert partial.truncated and partial.stop_reason == "deadline"
        # Each shard stopped after its first unit: two disjoint ranges.
        done = load_checkpoint(ck, kind)["done"]
        assert len(done) == 2 and done[0][0] == 0
        copy = str(tmp_path / "copy.json")
        shutil.copy(ck, copy)
        resumed = run(shards=resume_shards, resume_from=copy)
        assert not resumed.truncated
        assert resumed.as_dict() == run(shards=1).as_dict()
        assert load_checkpoint(copy, kind)["done"] == [[0, units]]

    def test_parent_writes_the_one_file(self, tmp_path, monkeypatch):
        """Shards write no file: with no periodic snapshot due, the
        parent writes once, after every shard has reported."""
        written = []
        save = Checkpointer.save

        def recording_save(checkpointer, payload):
            written.append(payload["done"])
            save(checkpointer, payload)

        monkeypatch.setattr(Checkpointer, "save", recording_save)
        run_sharded_scenario(
            "Z", RARE_OVERLAY, 6, 4, seed=SEED, shards=2,
            checkpoint_path=str(tmp_path / "ck.json"), checkpoint_every=10,
        )
        assert written == [[[0, 6]]]
        assert os.listdir(tmp_path) == ["ck.json"]


class TestComposition:
    def test_telemetry_merges_across_shards(self):
        telemetry = Telemetry.create()
        run_sharded_campaign(
            LEVEL, BER, INTERVALS, GROUP, shards=2, seed=SEED,
            telemetry=telemetry,
        )
        family = telemetry.metrics.get("campaign_intervals_total")
        assert family is not None
        total = sum(child.value for _, child in family.samples())
        assert total == INTERVALS

    def test_aggregated_progress_sees_every_unit(self, capsys):
        progress = ProgressReporter(
            total=INTERVALS, label="t", min_interval_s=0.0
        )
        run_sharded_campaign(
            LEVEL, BER, INTERVALS, GROUP, shards=2, seed=SEED,
            progress=progress,
        )
        assert progress.done == INTERVALS


class TestMergedTraces:
    """A sharded run yields one coherent trace: worker phase spans are
    adopted under the parent's ``sharded_campaign`` span, shard-tagged,
    and structurally bit-stable across same-seed reruns."""

    @staticmethod
    def _structure(tracer):
        by_id = {span.span_id: span for span in tracer}

        def chain(span):
            names = []
            parent = span.parent_id
            while parent is not None and parent in by_id:
                names.append(by_id[parent].name)
                parent = by_id[parent].parent_id
            return tuple(names)

        return [
            (span.name, span.depth, span.attributes.get("shard"), chain(span))
            for span in tracer
        ]

    @staticmethod
    def _traced_run():
        telemetry = Telemetry.create()
        run_sharded_campaign(
            LEVEL, BER, INTERVALS, GROUP, shards=4, seed=SEED,
            telemetry=telemetry,
        )
        return telemetry.tracer

    def test_trace_contains_per_shard_phase_spans(self):
        tracer = self._traced_run()
        names = set(tracer.names())
        assert {
            "sharded_campaign", "campaign", "phase_inject", "phase_scrub",
        } <= names
        shards = {
            span.attributes["shard"]
            for span in tracer if "shard" in span.attributes
        }
        assert shards == {0, 1, 2, 3}

    def test_every_worker_span_files_under_the_merge_point(self):
        structure = self._structure(self._traced_run())
        adopted = [entry for entry in structure if entry[2] is not None]
        assert adopted
        for name, depth, _shard, parents in adopted:
            assert parents[-1] == "sharded_campaign", (name, parents)
            if name == "campaign":
                assert parents == ("sharded_campaign",)
                assert depth == 1

    def test_structure_is_stable_across_same_seed_reruns(self):
        assert (
            self._structure(self._traced_run())
            == self._structure(self._traced_run())
        )


class TestFailureModes:
    def test_resume_without_shard_files_fails_fast(self, tmp_path):
        """A sharded resume reads the run's one file in the parent, so a
        missing file is the serial run's error, before any shard starts."""
        ck = str(tmp_path / "missing.json")
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            run_sharded_campaign(
                LEVEL, BER, INTERVALS, GROUP, shards=2, seed=SEED,
                checkpoint_path=ck, resume_from=ck,
            )

    def test_worker_failure_surfaces_as_shard_error(self):
        with pytest.raises(ShardError) as excinfo:
            run_sharded_campaign(
                "NOPE", BER, INTERVALS, GROUP, shards=2, seed=SEED
            )
        assert excinfo.value.failures

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            run_sharded_campaign(LEVEL, BER, INTERVALS, GROUP, shards=0)
