"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.level == "Z"
        assert args.intervals == 100

    def test_perf_workloads(self):
        args = build_parser().parse_args(["perf", "--workloads", "mcf", "gcc"])
        assert args.workloads == ["mcf", "gcc"]

    def test_retired_execution_flags_exit_2(self, capsys):
        """Campaigns always run numpy kernels and the sparse scrub."""
        for command in ("campaign", "raresim", "chaos", "scenario"):
            for flags in (["--dense"], ["--sparse"], ["--backend", "numpy"]):
                with pytest.raises(SystemExit) as excinfo:
                    build_parser().parse_args([command, *flags])
                assert excinfo.value.code == 2, (command, flags)


class TestCommands:
    @pytest.mark.parametrize("level, seed", [("Z", 3), ("Y", 5)])
    def test_campaign_result_equals_reference_backend(
        self, level, seed, tmp_path, capsys
    ):
        from repro.parallel import run_sharded_campaign

        out = tmp_path / "result.json"
        assert main([
            "campaign", "--level", level, "--ber", "5e-3", "--intervals", "4",
            "--group-size", "8", "--seed", str(seed), "--result-out", str(out),
        ]) == 0
        oracle = run_sharded_campaign(
            level, 5e-3, 4, 8, seed=seed, backend="reference"
        )
        assert json.loads(out.read_text()) == json.loads(
            json.dumps(oracle.as_dict())
        )
        assert oracle.interval_failures or oracle.outcomes["corrected_ecc1"]

    def test_summary(self, capsys):
        assert main(["summary"]) == 0
        out = capsys.readouterr().out
        assert "SuDoku-Z FIT" in out
        assert "paper" in out

    def test_exhibits_filtered(self, capsys):
        assert main(["exhibits", "--only", "Table IX"]) == 0
        out = capsys.readouterr().out
        assert "sensitivity to cache size" in out
        assert "Table II" not in out

    def test_exhibits_no_match(self, capsys):
        assert main(["exhibits", "--only", "zzz-no-such"]) == 1

    def test_campaign_small(self, capsys):
        code = main(
            ["campaign", "--level", "X", "--ber", "3e-4",
             "--intervals", "10", "--group-size", "8", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "measured P(fail)/interval" in out
        assert "analytical model" in out

    def test_perf_small(self, capsys):
        code = main(["perf", "--workloads", "povray", "--accesses", "1500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "povray" in out and "slowdown %" in out

    def test_design(self, capsys):
        assert main(["design", "--delta", "34"]) == 0
        out = capsys.readouterr().out
        assert "Pareto-optimal" in out
        assert "cheapest:" in out

    def test_design_infeasible(self, capsys):
        assert main(["design", "--delta", "30", "--target-fit", "1e-30"]) == 1

    def test_distance(self, capsys):
        assert main(["distance", "--samples", "1000"]) == 0
        out = capsys.readouterr().out
        assert "proven detection distance" in out
        assert ">= 5" in out

    def test_report(self, tmp_path, capsys):
        target = tmp_path / "snapshot.md"
        assert main(["report", "--output", str(target)]) == 0
        text = target.read_text()
        assert "## Table II" in text
        assert "## Fig. 7" in text
        assert "FIT" in text
