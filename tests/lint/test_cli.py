"""``repro lint`` command behaviour: exit codes, formats, baselines.

Drives :func:`repro.lint.cli.run_lint_command` in-process through a
real argparse parser (the same one ``python -m repro lint`` builds), so
the exit-code contract the CI job relies on -- 0 clean, 1 findings,
2 usage error -- is pinned without subprocess overhead.
"""

import argparse
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.lint.cli import FORMATS, configure_lint_parser, run_lint_command
from repro.lint.reporting import FORMATTERS


def run(argv):
    parser = argparse.ArgumentParser(prog="repro lint")
    configure_lint_parser(parser)
    return run_lint_command(parser.parse_args(argv))


@pytest.fixture()
def dirty_tree(tmp_path, monkeypatch):
    """A tmp cwd holding one file with one RPR003 finding."""
    (tmp_path / "mod.py").write_text('f = open(p, "w")\n', encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert run(["."]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, dirty_tree, capsys):
        assert run(["."]) == 1
        out = capsys.readouterr().out
        assert "RPR003" in out
        assert "mod.py:1:" in out

    def test_unknown_rule_exits_two(self, dirty_tree, capsys):
        assert run([".", "--select", "RPR999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, dirty_tree, capsys):
        assert run(["does-not-exist"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_bad_fail_on_exits_two(self, dirty_tree, capsys):
        assert run([".", "--fail-on", "catastrophic"]) == 2
        assert "unknown severity" in capsys.readouterr().err

    def test_fail_on_error_passes_warnings(self, tmp_path, monkeypatch):
        (tmp_path / "mod.py").write_text(
            'n = bin(x).count("1")\n', encoding="utf-8"
        )
        monkeypatch.chdir(tmp_path)
        assert run(["."]) == 1                       # warning gates by default
        assert run([".", "--fail-on", "error"]) == 0  # relaxed gate

    def test_select_and_disable(self, dirty_tree):
        assert run([".", "--select", "RPR001"]) == 0
        assert run([".", "--disable", "RPR003"]) == 0

    def test_list_rules(self, capsys):
        assert run(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == [
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
            "RPR007", "RPR008", "RPR009", "RPR011", "RPR012",
        ]
        assert "RPR002  unrooted-rng" in out

    def test_retired_rule_ids_exit_two(self, dirty_tree, capsys):
        for retired in ("RPR006", "RPR010"):
            assert run([".", "--select", retired]) == 2
            assert "unknown rule" in capsys.readouterr().err

    def test_removed_options_are_rejected(self, dirty_tree):
        for option in (["--fix"], ["--no-cache"], ["--cache", "c.json"],
                       ["--changed-only", "HEAD"]):
            with pytest.raises(SystemExit) as exit_info:
                run(["."] + option)
            assert exit_info.value.code == 2


class TestFormats:
    def test_json_format_is_machine_readable(self, dirty_tree, capsys):
        assert run([".", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts_by_rule"] == {"RPR003": 1}
        (finding,) = payload["new_findings"]
        assert finding["rule"] == "RPR003"
        assert finding["line"] == 1

    def test_github_format_emits_workflow_commands(self, dirty_tree, capsys):
        assert run([".", "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=RPR003" in out


class TestSarifFormat:
    def test_sarif_output_parses_and_carries_the_finding(
        self, dirty_tree, capsys
    ):
        assert run([".", "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "RPR003"


class TestParserIsCheap:
    def test_format_choices_match_the_formatters(self):
        assert FORMATS == tuple(sorted(FORMATTERS))

    def test_building_the_cli_parser_loads_no_lint_pipeline(self):
        # ``repro serve`` and every other subcommand build the full
        # parser; the lint pipeline must stay off that path.
        probe = (
            "import json, sys\n"
            "from repro.cli import build_parser\n"
            "build_parser()\n"
            "print(json.dumps(sorted(\n"
            "    m for m in sys.modules if m.startswith('repro.lint'))))\n"
        )
        source = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=source)
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        assert json.loads(out) == ["repro.lint", "repro.lint.cli"]


class TestBaselineFlow:
    def test_write_then_gate_round_trip(self, dirty_tree, capsys):
        assert run([".", "--write-baseline"]) == 0
        assert (dirty_tree / "lint-baseline.json").exists()
        capsys.readouterr()
        # The default baseline is picked up from the cwd automatically.
        assert run(["."]) == 0
        assert "1 baselined" in capsys.readouterr().out
        # A new finding still gates.
        (dirty_tree / "new.py").write_text(
            'g = open(q, "w")\n', encoding="utf-8"
        )
        assert run(["."]) == 1

    def test_no_baseline_reports_everything(self, dirty_tree):
        assert run([".", "--write-baseline"]) == 0
        assert run([".", "--no-baseline"]) == 1

    def test_stale_baseline_noted(self, dirty_tree, capsys):
        assert run([".", "--write-baseline"]) == 0
        (dirty_tree / "mod.py").write_text("x = 1\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["."]) == 0
        assert "stale baseline" in capsys.readouterr().err

    def test_corrupt_baseline_exits_two(self, dirty_tree, capsys):
        (dirty_tree / "lint-baseline.json").write_text(
            "{broken", encoding="utf-8"
        )
        assert run(["."]) == 2
        assert "not valid JSON" in capsys.readouterr().err
