"""CLI error paths and resilience round-trips (chaos, checkpoint, resume)."""

import json

import pytest

from repro.cli import main

SMALL = ["--intervals", "4", "--group-size", "16", "--ber", "5e-3"]


class TestErrorPaths:
    """Every bad input: exit != 0, one-line message, no traceback."""

    def assert_one_line_error(self, capsys):
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0
        assert "Traceback" not in err
        return err

    def test_unknown_resume_file(self, tmp_path, capsys):
        code = main(["campaign", "--resume", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot read checkpoint" in self.assert_one_line_error(capsys)

    def test_corrupt_checkpoint_json(self, tmp_path, capsys):
        bad = tmp_path / "ck.json"
        bad.write_text("{not json")
        code = main(["campaign", "--resume", str(bad)])
        assert code == 2
        assert "corrupt checkpoint" in self.assert_one_line_error(capsys)

    def test_wrong_kind_checkpoint(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        main(["raresim", "--trials", "2", "--group-size", "16",
              "--ber", "1e-3", "--checkpoint", str(ck)])
        capsys.readouterr()
        code = main(["campaign", "--resume", str(ck)])
        assert code == 2
        assert "snapshot" in self.assert_one_line_error(capsys)

    def test_bad_deadline(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--deadline", "-1"])
        assert excinfo.value.code != 0
        assert "must be positive" in capsys.readouterr().err

    def test_non_numeric_deadline(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--deadline", "soon"])
        assert excinfo.value.code != 0

    def test_negative_checkpoint_every(self, capsys):
        # Refused at parse time, not clamped to 0.
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--checkpoint-every", "-1"] + SMALL)
        assert excinfo.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_serve_negative_checkpoint_every(self, tmp_path, capsys):
        # Refused before the server boots, not in every job's worker.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--store-dir", str(tmp_path / "store"),
                  "--checkpoint-dir", str(tmp_path / "ck"),
                  "--checkpoint-every", "-1"])
        assert excinfo.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()

    def test_exporter_dir_missing(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--metrics-out", "/no/such/dir/m.txt"])
        assert excinfo.value.code == 2
        assert "does not exist" in self.assert_one_line_error(capsys)

    def test_result_out_dir_missing(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--result-out", "/no/such/dir/r.json"])
        assert excinfo.value.code == 2
        assert "does not exist" in self.assert_one_line_error(capsys)

    def test_checkpoint_dir_missing(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--checkpoint", "/no/such/dir/ck.json"])
        assert excinfo.value.code == 2
        assert "does not exist" in self.assert_one_line_error(capsys)

    def test_checkpoint_every_without_checkpoint(self, capsys):
        code = main(["campaign", "--checkpoint-every", "5"] + SMALL)
        assert code == 2
        assert "--checkpoint-every" in self.assert_one_line_error(capsys)


class TestCampaignRoundTrip:
    def test_deadline_kill_then_resume_matches_uninterrupted(
        self, tmp_path, capsys
    ):
        ck = str(tmp_path / "ck.json")
        partial_out = str(tmp_path / "partial.json")
        resumed_out = str(tmp_path / "resumed.json")
        full_out = str(tmp_path / "full.json")

        # A deadline this short expires after the first interval: a
        # deterministic stand-in for kill -9 mid-campaign.
        code = main(["campaign", *SMALL, "--checkpoint", ck,
                     "--deadline", "1e-9", "--result-out", partial_out])
        assert code == 0
        partial = json.loads(open(partial_out).read())
        assert partial["truncated"] and partial["stop_reason"] == "deadline"
        assert 0 < partial["intervals"] < 4

        code = main(["campaign", *SMALL, "--resume", ck,
                     "--result-out", resumed_out])
        assert code == 0
        code = main(["campaign", *SMALL, "--result-out", full_out])
        assert code == 0
        resumed = json.loads(open(resumed_out).read())
        full = json.loads(open(full_out).read())
        assert resumed == full

    def test_periodic_checkpoint_file_is_valid(self, tmp_path, capsys):
        from repro.resilience import load_checkpoint

        ck = str(tmp_path / "ck.json")
        code = main(["campaign", *SMALL, "--checkpoint", ck,
                     "--checkpoint-every", "2"])
        assert code == 0
        payload = load_checkpoint(ck, "montecarlo")
        assert payload["done"] == [[0, 4]]


class TestRaresimRoundTrip:
    ARGS = ["raresim", "--level", "Z", "--trials", "6",
            "--group-size", "16", "--ber", "1e-3"]

    def test_deadline_kill_then_resume_matches_uninterrupted(
        self, tmp_path, capsys
    ):
        ck = str(tmp_path / "ck.json")
        resumed_out = str(tmp_path / "resumed.json")
        full_out = str(tmp_path / "full.json")
        assert main([*self.ARGS, "--checkpoint", ck,
                     "--deadline", "1e-9"]) == 0
        assert main([*self.ARGS, "--resume", ck,
                     "--result-out", resumed_out]) == 0
        assert main([*self.ARGS, "--result-out", full_out]) == 0
        resumed = json.loads(open(resumed_out).read())
        full = json.loads(open(full_out).read())
        assert resumed == full


class TestChaosCommand:
    def test_sweep_reports_levels_and_rates(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.json")
        code = main(["chaos", "--levels", "X", "Z",
                     "--plt-flip-rates", "0", "0.05",
                     "--intervals", "3", "--group-size", "16",
                     "--result-out", out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "metadata_due" in stdout
        sweep = json.loads(open(out).read())["sweep"]
        assert len(sweep) == 4
        # The tentpole guarantee: metadata faults never become SDCs.
        assert all(
            rec["result"]["outcomes"].get("sdc", 0) == 0 for rec in sweep
        )
        chaotic = [r for r in sweep if r["plt_flip_rate"] > 0]
        assert any(
            rec["result"]["metadata"].get("plt_flips", 0) > 0
            for rec in chaotic
        )

    def test_rejects_out_of_range_rate(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--plt-flip-rates", "1.5"])
        assert excinfo.value.code != 0

    def test_campaign_chaos_flags(self, capsys):
        code = main(["campaign", *SMALL, "--plt-flip-rate", "0.05",
                     "--visit-drop-rate", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos enabled" in out
        assert "metadata:" in out
