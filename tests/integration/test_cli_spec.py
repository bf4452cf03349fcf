"""The CLI and serve run one campaign spec.

The CLI builds a spec payload from its flags and validates it with
``parse_spec``, as serve does a request body, so both reject the same
values the same way and run the same campaign: the CLI's
``--result-out`` equals the ``run_spec`` result and the body a
``ServeApp`` stores.
"""

import asyncio
import json

import pytest

from repro.cli import main
from repro.parallel import run_spec
from repro.serve.app import ServeApp
from repro.serve.specs import parse_spec

MIXED = {
    "transient_ber": 0.002,
    "burst": {"rate": 0.05, "length_pmf": {"2": 0.5, "4": 0.5}},
    "stuck": {"ppm": 300.0},
}


class TestRejectedValues:
    """A value the run would reject: one ``repro: error:`` line, exit 2."""

    @pytest.mark.parametrize("argv, field", [
        (["campaign", "--group-size", "3"], "'group_size'"),
        (["scenario", "--scheme", "raid6", "--group-size", "6"],
         "'group_size'"),
        (["chaos", "--group-size", "12"], "'group_size'"),
        (["raresim", "--ber", "0"], "'ber'"),
        (["raresim", "--ber", "1e-300"], "'ber'"),
        (["campaign", "--intervals", "0"], "'intervals'"),
        (["raresim", "--trials", "0"], "'trials'"),
        (["campaign", "--shards", "65"], "'shards'"),
        (["scenario", "--ber", "1.5"], "transient_ber"),
        (["scenario", "--burst-rate", "0.1", "--interleave", "0"],
         "interleave"),
        (["campaign", "--visit-drop-rate", "2"], "visit_drop_rate"),
        (["scenario", "--burst-rate", "0.1", "--burst-lengths", "100",
          "--burst-span", "16"], "'span'"),
        (["scenario", "--scheme", "eccline", "--burst-rate", "0.1",
          "--burst-span", "200"], "'span'"),
        (["raresim", "--group-size", "12"], "'group_size'"),
    ])
    def test_one_line_exit_2(self, argv, field, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert err.startswith("repro: error: ") and field in err, err
        assert "\n" not in err and "Traceback" not in err
        assert captured.out == ""  # rejected before any run starts

    def test_unreadable_scenario_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["raresim", "--scenario", str(tmp_path / "missing.json")])
        assert excinfo.value.code == 2
        assert "--scenario" in capsys.readouterr().err


def _served_results(tmp_path, payloads):
    """The ``result`` each payload's job files in a test ServeApp."""

    async def serve():
        app = ServeApp(
            store_dir=str(tmp_path / "store"),
            checkpoint_dir=str(tmp_path / "ck"),
            workers=1,
        )
        (tmp_path / "ck").mkdir()
        stop = asyncio.Event()
        loop_task = asyncio.create_task(app.scheduler.run(stop))
        results = []
        for payload in payloads:
            job, _ = app.scheduler.submit(payload)
            subscriber = app.scheduler.subscribe(job)
            while True:
                event, _ = await asyncio.wait_for(subscriber.get(), 120)
                if event in ("done", "failed", "cancelled"):
                    break
            assert event == "done", job.error
            results.append(app.store.get(job.digest)["result"])
        stop.set()
        await loop_task
        return results

    return asyncio.run(serve())


def test_cli_result_equals_run_spec_and_served_body(tmp_path, capsys):
    scenario_file = tmp_path / "mixed.json"
    scenario_file.write_text(json.dumps(MIXED))
    cases = [
        (["campaign", "--level", "Z", "--ber", "3e-3", "--intervals", "4",
          "--group-size", "8", "--seed", "3"],
         {"kind": "campaign", "level": "Z", "ber": 3e-3, "intervals": 4,
          "group_size": 8, "seed": 3}),
        (["scenario", "--scheme", "Y", "--scenario", str(scenario_file),
          "--intervals", "4", "--group-size", "8", "--seed", "4"],
         {"kind": "scenario", "scheme": "Y", "scenario": MIXED,
          "intervals": 4, "group_size": 8, "seed": 4}),
        # The scenario's transient BER overrides --ber / "ber" on both.
        (["raresim", "--level", "Z", "--ber", "1e-4", "--trials", "6",
          "--group-size", "16", "--num-groups", "8", "--seed", "5",
          "--scenario", str(scenario_file)],
         {"kind": "raresim", "level": "Z", "ber": 1e-4, "trials": 6,
          "group_size": 16, "num_groups": 8, "seed": 5,
          "scenario": MIXED}),
    ]
    served = _served_results(tmp_path, [payload for _, payload in cases])
    for (argv, payload), stored in zip(cases, served):
        out = tmp_path / "result.json"
        assert main(argv + ["--result-out", str(out)]) == 0
        cli = json.loads(out.read_text())
        spec = parse_spec(payload)
        library = run_spec(spec.kind, spec.params).as_dict()
        if spec.kind == "scenario":
            # The CLI's scenario results echo their scheme and scenario.
            library.update(
                scheme=spec.params["scheme"],
                scenario=spec.params["scenario"],
            )
            stored = dict(
                stored, scheme=spec.params["scheme"],
                scenario=spec.params["scenario"],
            )
        assert cli == library == stored, spec.kind
    capsys.readouterr()
