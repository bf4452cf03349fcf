"""`repro scenario` and `repro campaign --scenario` are one command path.

Both run a mixed-fault scenario through the same helper; only the
banner's scheme label and the manifest's command name differ.
"""

import json

from repro.cli import main

MIXED = {
    "transient_ber": 0.002,
    "burst": {"rate": 0.05, "length_pmf": {"2": 0.5, "4": 0.5}},
    "stuck": {"ppm": 300},
}
RUN = ["--intervals", "3", "--group-size", "8", "--seed", "5",
       "--plt-flip-rate", "0.05"]


def _run(capsys, tmp_path, name, argv):
    spec = tmp_path / "mixed.json"
    spec.write_text(json.dumps(MIXED))
    out = tmp_path / f"{name}.json"
    code = main(argv + ["--scenario", str(spec), "--result-out", str(out)]
                + RUN)
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(out.read_text())


def test_campaign_scenario_matches_scenario_command(capsys, tmp_path):
    code_a, lines_a, result_a = _run(
        capsys, tmp_path, "scenario", ["scenario", "--scheme", "Z"]
    )
    code_b, lines_b, result_b = _run(
        capsys, tmp_path, "campaign", ["campaign", "--level", "Z"]
    )
    assert code_a == code_b == 0
    assert lines_a[0].startswith("running Z scenario campaign: ")
    assert lines_b[0] == lines_a[0].replace(
        "running Z scenario", "running SuDoku-Z scenario"
    )
    assert "[chaos enabled]" in lines_a[0]
    assert lines_a[1:] == lines_b[1:]
    assert result_a == result_b
    assert result_a["scheme"] == "Z"
    assert result_a["intervals"] == 3
