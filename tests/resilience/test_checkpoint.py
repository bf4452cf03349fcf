"""Tests for checkpoint files, deadline watchdog, and atomic writes."""

import json
import os

import pytest

from repro.obs import atomic_write_json, atomic_write_text
from repro.resilience import (
    CHECKPOINT_VERSION,
    CancelWatch,
    Checkpointer,
    CheckpointError,
    Deadline,
    build_payload,
    job_checkpoint_path,
    load_checkpoint,
    require_config_match,
)
from repro.resilience.checkpoint import done_ranges, merge_payloads


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "one")
        atomic_write_text(str(path), "two")
        assert path.read_text() == "two"

    def test_no_tmp_droppings_on_success(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(str(path), {"a": 1})
        assert sorted(os.listdir(tmp_path)) == ["out.json"]
        assert json.loads(path.read_text()) == {"a": 1}

    def test_failure_leaves_previous_content(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(str(path), {"a": 1})

        class Unserialisable:
            def __str__(self):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            atomic_write_json(str(path), {"bad": Unserialisable()})
        assert json.loads(path.read_text()) == {"a": 1}
        assert sorted(os.listdir(tmp_path)) == ["out.json"]


class TestDeadline:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_expiry_with_injected_clock(self):
        now = [100.0]
        deadline = Deadline(5.0, clock=lambda: now[0])
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(5.0)
        now[0] = 104.9
        assert not deadline.expired()
        now[0] = 105.1
        assert deadline.expired()
        assert deadline.remaining() < 0


class TestCancelWatch:
    def test_reason_is_deadline_before_cancel_fires(self):
        assert Deadline.reason == "deadline"
        watch = CancelWatch(lambda: False)
        assert not watch.expired()
        assert watch.reason == "deadline"
        assert watch.remaining() == float("inf")

    def test_cancel_fires_and_latches(self):
        state = {"cancel": False}
        watch = CancelWatch(lambda: state["cancel"])
        assert not watch.expired()
        state["cancel"] = True
        assert watch.expired()
        assert watch.reason == "cancelled"
        # Latches: a flapping callback cannot un-cancel the job.
        state["cancel"] = False
        assert watch.expired()
        assert watch.reason == "cancelled"

    def test_composed_deadline_keeps_its_own_reason(self):
        now = [100.0]
        deadline = Deadline(5.0, clock=lambda: now[0])
        watch = CancelWatch(lambda: False, deadline=deadline)
        assert not watch.expired()
        assert watch.remaining() == pytest.approx(5.0)
        now[0] = 106.0
        assert watch.expired()
        assert watch.reason == "deadline"

    def test_cancel_wins_when_it_fires_first(self):
        now = [100.0]
        deadline = Deadline(5.0, clock=lambda: now[0])
        watch = CancelWatch(lambda: True, deadline=deadline)
        assert watch.expired()
        assert watch.reason == "cancelled"


class TestJobCheckpointPath:
    def test_digest_keyed_layout(self, tmp_path):
        path = job_checkpoint_path(str(tmp_path), "ab12cd")
        assert path == os.path.join(str(tmp_path), "job-ab12cd.ck.json")

    def test_rejects_traversal_and_empty(self, tmp_path):
        for digest in ("", "../x", "a/b", "a.b", "a\\b"):
            with pytest.raises(ValueError):
                job_checkpoint_path(str(tmp_path), digest)


class TestCheckpointer:
    def test_validation(self):
        with pytest.raises(ValueError):
            Checkpointer(path="")
        with pytest.raises(ValueError):
            Checkpointer(path="x.json", every=-1)

    def test_due_schedule(self):
        ck = Checkpointer(path="x.json", every=3)
        assert [n for n in range(1, 10) if ck.due(n)] == [3, 6, 9]
        assert not Checkpointer(path="x.json", every=0).due(5)
        assert not Checkpointer(path="x.json", every=3).due(0)

    def test_save_round_trip(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = Checkpointer(path=str(path), every=1)
        payload = build_payload("montecarlo", {"ber": 1e-3}, [(0, 4)], {"n": 4})
        ck.save(payload)
        assert ck.writes == 1
        loaded = load_checkpoint(str(path), "montecarlo")
        assert loaded == payload


class TestLoadCheckpoint:
    def write(self, tmp_path, payload):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def good_payload(self):
        return build_payload("montecarlo", {"ber": 1e-3}, [(0, 2)], {})

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "nope.json"), "montecarlo")

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{truncated")
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            load_checkpoint(str(path), "montecarlo")

    def test_not_an_object(self, tmp_path):
        path = self.write(tmp_path, [1, 2, 3])
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path, "montecarlo")

    def test_wrong_version(self, tmp_path):
        payload = self.good_payload()
        payload["version"] = CHECKPOINT_VERSION + 1
        path = self.write(tmp_path, payload)
        with pytest.raises(CheckpointError, match="format version"):
            load_checkpoint(path, "montecarlo")

    def test_wrong_kind(self, tmp_path):
        path = self.write(tmp_path, self.good_payload())
        with pytest.raises(CheckpointError, match="snapshot"):
            load_checkpoint(path, "raresim")

    def test_missing_key(self, tmp_path):
        payload = self.good_payload()
        del payload["aggregates"]
        path = self.write(tmp_path, payload)
        with pytest.raises(CheckpointError, match="missing 'aggregates'"):
            load_checkpoint(path, "montecarlo")

    def test_error_messages_are_one_line(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{bad")
        try:
            load_checkpoint(str(path), "montecarlo")
        except CheckpointError as error:
            assert "\n" not in str(error)


class TestConfigMatch:
    def test_accepts_identical(self):
        payload = build_payload("montecarlo", {"ber": 1e-3, "n": 4}, [], {})
        require_config_match(payload, {"ber": 1e-3, "n": 4})

    def test_names_mismatched_key(self):
        payload = build_payload("montecarlo", {"ber": 1e-3, "n": 4}, [], {})
        with pytest.raises(CheckpointError, match="ber"):
            require_config_match(payload, {"ber": 2e-3, "n": 4})

    def test_catches_missing_and_extra_keys(self):
        payload = build_payload("montecarlo", {"ber": 1e-3}, [], {})
        with pytest.raises(CheckpointError, match="extra"):
            require_config_match(payload, {"ber": 1e-3, "extra": 1})


#: Hand-edited ``done``/``aggregates``/``config`` blocks, each refused
#: with a one-line error naming its field before any unit runs.
MALFORMED = {
    "done-not-a-list": ("done", 100, "'done'"),
    "done-pair-not-a-list": ("done", [3], "'done'"),
    "done-pair-too-long": ("done", [[0, 1, 2]], "'done'"),
    "done-float-bound": ("done", [[0, 1.5]], "'done'"),
    "done-bool-bound": ("done", [[0, True]], "'done'"),
    "done-string-bound": ("done", [["0", "2"]], "'done'"),
    "done-negative-start": ("done", [[-3, 1]], "'done'"),
    "done-empty-range": ("done", [[2, 2]], "'done'"),
    "done-reversed-range": ("done", [[3, 1]], "'done'"),
    "done-overlapping": ("done", [[0, 3], [2, 4]], "'done'"),
    "done-descending": ("done", [[4, 5], [0, 1]], "'done'"),
    "aggregates-not-an-object": ("aggregates", [1, 2], "'aggregates'"),
    "config-not-an-object": ("config", "Z", "'config'"),
}


class TestMalformedPayload:
    def write(self, tmp_path, key, value):
        payload = build_payload("montecarlo", {"ber": 1e-3}, [(0, 2)], {})
        payload[key] = value
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(payload))
        return str(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_refused_naming_the_field(self, tmp_path, case):
        key, value, field = MALFORMED[case]
        with pytest.raises(CheckpointError) as caught:
            load_checkpoint(self.write(tmp_path, key, value), "montecarlo")
        assert field in str(caught.value)
        assert "\n" not in str(caught.value)

    def test_adjacent_ranges_accepted(self, tmp_path):
        path = self.write(tmp_path, "done", [[0, 2], [2, 5], [7, 8]])
        assert done_ranges(load_checkpoint(path, "montecarlo")) == [
            (0, 2), (2, 5), (7, 8)
        ]

    def test_done_past_the_run_is_refused(self):
        payload = build_payload("montecarlo", {}, [(0, 100)], {})
        assert done_ranges(payload, 100) == [(0, 100)]
        with pytest.raises(CheckpointError, match="'done' reaches unit 100"):
            done_ranges(payload, 8)

    @pytest.mark.parametrize("done", [[[0, 100]], [[-3, 2]]])
    def test_campaign_refuses_before_any_unit_runs(self, tmp_path, done):
        """A hand-edited Monte-Carlo checkpoint of an 8-interval run:
        ``done`` past the run's units, or below zero, is refused before
        the first interval, not turned into a result or a deep
        ``ValueError``."""
        from repro.reliability.montecarlo import run_group_campaign

        class Units:
            count = 0

            def update(self, *args, **kwargs):
                self.count += 1

            def finish(self):
                pass

        def campaign(checkpointer, progress):
            return run_group_campaign(
                "Z", 1e-3, 8, group_size=8, seed=1,
                checkpointer=checkpointer, progress=progress,
            )

        path = tmp_path / "ck.json"
        campaign(Checkpointer(str(path)), Units())
        payload = json.loads(path.read_text())
        payload["done"] = done
        path.write_text(json.dumps(payload))
        units = Units()
        with pytest.raises(CheckpointError, match="'done'"):
            campaign(
                Checkpointer(str(path), resume=load_checkpoint(
                    str(path), "montecarlo"
                )),
                progress=units,
            )
        assert units.count == 0


class TestMergePayloads:
    def test_ranges_union_and_aggregates_add(self):
        left = build_payload(
            "montecarlo", {"ber": 1e-3}, [(0, 2), (5, 6)],
            {"interval_failures": 1, "outcomes": {"clean": 10}},
        )
        right = build_payload(
            "montecarlo", {"ber": 1e-3}, [(2, 4)],
            {"interval_failures": 2,
             "outcomes": {"clean": 3, "corrected_ecc1": 1}},
        )
        merged = merge_payloads([left, right])
        assert merged == build_payload(
            "montecarlo", {"ber": 1e-3}, [(0, 4), (5, 6)],
            {"interval_failures": 3,
             "outcomes": {"clean": 13, "corrected_ecc1": 1}},
        )

    def test_empty_parts_change_nothing(self):
        part = build_payload(
            "raresim", {}, [(3, 9)], {"conditional_failures": 2}
        )
        empty = build_payload("raresim", {}, [], {})
        assert merge_payloads([part, empty]) == part
