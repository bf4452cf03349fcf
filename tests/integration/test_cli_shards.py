"""CLI round-trips for the --shards flag."""

import json

import pytest

from repro.cli import main

SMALL = ["--intervals", "4", "--group-size", "16", "--ber", "5e-3",
         "--seed", "7"]


class TestCampaignShards:
    def test_shards_one_bit_identical_to_default(self, tmp_path, capsys):
        serial_out = str(tmp_path / "serial.json")
        sharded_out = str(tmp_path / "sharded.json")
        assert main(["campaign", *SMALL, "--result-out", serial_out]) == 0
        assert main(["campaign", *SMALL, "--shards", "1",
                     "--result-out", sharded_out]) == 0
        assert (json.loads(open(serial_out).read())
                == json.loads(open(sharded_out).read()))

    def test_sharded_run_merges_all_intervals(self, tmp_path, capsys):
        out = str(tmp_path / "out.json")
        assert main(["campaign", *SMALL, "--shards", "2",
                     "--result-out", out]) == 0
        result = json.loads(open(out).read())
        assert result["intervals"] == 4
        assert "[2 shards]" in capsys.readouterr().out

    def test_rejects_non_positive_shards(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", *SMALL, "--shards", "0"])
        assert excinfo.value.code != 0

    def test_sharded_resume_without_files_is_one_line_error(
        self, tmp_path, capsys
    ):
        ck = str(tmp_path / "nope.json")
        code = main(["campaign", *SMALL, "--shards", "2", "--resume", ck])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert "cannot read checkpoint" in err
        assert "Traceback" not in err
