"""Tests of the end-to-end benchmark harness itself.

They call the workload classes directly, shrunk to a few units, so the
whole file runs in well under a minute::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

with open(run.BENCHMARK, "r", encoding="utf-8") as _handle:
    BENCH = json.load(_handle)
END_TO_END = {metric["name"] for metric in BENCH["end_to_end"]}
PER_LAYER = {metric["name"] for metric in BENCH["per_layer"]}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class SmallPaper(workloads.PaperZNominal):
    LINES = 64 * 64
    GROUP = 64
    INTERVALS = 3


class SmallFail(workloads.CampaignZFail):
    INTERVALS = 3


class SmallRaresim(workloads.RaresimPaper):
    GROUP = 32
    TRIALS = 2
    trace_calls = 2


class SmallScenario(workloads.ScenarioMixed2Shard):
    INTERVALS = 6
    TRACE_INTERVALS = 4
    CHECKPOINT_EVERY = 2


class SmallServeMiss(workloads.ServeMiss):
    trace_requests = 2


class SmallServeHit(workloads.ServeHit):
    trace_requests = 5
    PRIMED = 2


IN_PROCESS = [SmallPaper, SmallFail, SmallRaresim, SmallScenario]
SERVE = [SmallServeMiss, SmallServeHit]


@pytest.fixture
def built(request):
    workload = request.param(seed=11)
    workload.setup()
    yield workload
    workload.close()


# -- wrappers --------------------------------------------------------------------


@pytest.mark.parametrize("built", IN_PROCESS, indirect=True)
def test_wrappers_are_result_neutral(built):
    plain = built.call(0)
    tracer = layers.Tracer()
    built.tracer = tracer
    with layers.Patch(tracer):
        traced = built.call(0)
    built.tracer = None
    assert not plain.problems and not traced.problems
    assert traced.result == plain.result
    assert tracer.get("reliability.loop").calls == 1
    assert tracer.aggregates.keys() - {"reliability.loop"}


def test_patch_restores_every_original():
    targets = [target for hook in layers.HOOKS for target in hook.targets]
    before = [vars(owner)[attr] for owner, attr in map(layers._resolve, targets)]
    with layers.Patch(layers.Tracer()):
        during = [vars(owner)[attr] for owner, attr in map(layers._resolve, targets)]
    after = [vars(owner)[attr] for owner, attr in map(layers._resolve, targets)]
    assert after == before
    assert all(a is not b for a, b in zip(during, before))


# -- self-time arithmetic --------------------------------------------------------


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_nested_spans():
    # outer [0, 10] holds a [1, 4] (holding b [2, 3]) and a second a [5, 9].
    tracer = layers.Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    with tracer.span("outer"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("a"):
            pass
    outer, a, b = tracer.get("outer"), tracer.get("a"), tracer.get("b")
    assert (outer.calls, outer.total_s, outer.self_s) == (1, 10, 3)
    assert (a.calls, a.total_s, a.self_s) == (2, 7, 6)
    assert (b.calls, b.total_s, b.self_s) == (1, 1, 1)
    assert [span["parent"] for span in tracer.spans] == ["a", "outer", "outer", None]
    assert sum(agg.self_s for agg in tracer.aggregates.values()) == outer.total_s


def test_wrapped_function_counts_work_and_keeps_exceptions():
    tracer = layers.Tracer(clock=FakeClock(0, 2, 3, 7))
    double = tracer.wrap(
        "double", lambda xs: [2 * x for x in xs],
        work=lambda args, kwargs, result: (len(result), 1),
    )
    assert double([1, 2, 3]) == [2, 4, 6]

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert (tracer.get("double").work, tracer.get("double").useful) == (3, 1)
    assert tracer.get("boom").calls == 1 and tracer.get("boom").total_s == 4


# -- compare verdicts -------------------------------------------------------------


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([100, 101, 99, 100, 102], [101, 100, 102, 99, 100], "higher", "ok"),
        ([100, 101, 99, 100, 102], [80, 81, 79, 80, 82], "higher", "regressed"),
        ([10, 10.1, 9.9, 10, 10.2], [8, 8.1, 7.9, 8, 8.2], "lower", "improved"),
        ([10, 10.1, 9.9, 10, 10.2], [12, 12.1, 11.9, 12, 12.2], "lower", "regressed"),
        ([100, 60, 140, 90, 110], [100, 101, 99, 100, 102], "higher", "unresolved"),
        ([100, 60, 140, 90, 110], [200, 190, 210, 205, 195], "higher", "improved"),
    ],
)
def test_verdicts(parent, change, better, expected):
    assert stats.verdict(parent, change, better, 0.10)[0] == expected


def test_compare_flags_regressions_and_count_drift(tmp_path, capsys):
    def record(workload, trace, seed, metrics):
        return {
            "workload": workload, "trace": trace, "seed": seed,
            "metrics": {
                name: {"value": value, "unit": "x"}
                for name, value in metrics.items()
            },
        }

    parent, change = tmp_path / "a", tmp_path / "b"
    for index in range(5):
        run.save_record(record(
            "serve-hit", 0, index, {"units_per_s": 100 + index}
        ), str(parent))
        run.save_record(record(
            "serve-hit", 0, index, {"units_per_s": 70 + index}
        ), str(change))
    run.save_record(record("serve-hit", 1, 3, {"kernels.calls": 5}), str(parent))
    run.save_record(record("serve-hit", 1, 3, {"kernels.calls": 6}), str(change))
    assert run.compare(str(parent), str(change), BENCH) == 1
    printed = capsys.readouterr().out
    assert "regressed" in printed
    assert "kernels.calls: 5 vs 6" in printed
    assert run.compare(str(parent), str(parent), BENCH) == 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(150) == 90
    assert stats.tail_percentile(40) == 75
    assert stats.tail_percentile(39) == 0


# -- emitted names ---------------------------------------------------------------


def test_catalog_names_are_valid_and_unique():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("built", IN_PROCESS, indirect=True)
def test_every_listed_metric_is_emitted(built):
    timed = workloads.timed_run(built, seconds=0.001)
    assert not timed["problems"]
    assert set(timed["metrics"]) | {"setup_s"} == END_TO_END
    assert all(value > 0 for value in timed["metrics"].values())
    traced = workloads.traced_run(built)
    assert not traced["problems"]
    assert set(traced["metrics"]) == PER_LAYER


def test_per_layer_counts_repeat_for_a_seed():
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
    reports = []
    for _ in range(2):
        workload = SmallFail(seed=4)
        workload.setup()
        try:
            reports.append(workloads.traced_run(workload)["metrics"])
        finally:
            workload.close()
    assert [reports[0][n] for n in counts] == [reports[1][n] for n in counts]
    assert reports[0]["core.outcome.due"] > 0


@pytest.mark.parametrize("built", SERVE, indirect=True)
def test_serve_workloads_check_and_emit(built):
    timed = workloads.timed_run(built, seconds=0.001)
    assert not timed["problems"], timed["problems"]
    assert set(timed["metrics"]) | {"setup_s"} == END_TO_END
    traced = workloads.traced_run(built)
    assert not traced["problems"], traced["problems"]
    assert set(traced["metrics"]) == PER_LAYER
    assert traced["metrics"]["serve.post_ms"] > 0


def test_served_result_mismatch_is_a_failed_unit():
    workload = SmallServeMiss(seed=2)
    workload.setup()
    try:
        chunk = workload.call(0)
        body = json.loads(chunk.result["body"])
        body["result"]["interval_failures"] += 1
        chunk.result["body"] = json.dumps(body)
        workload.check([chunk])
    finally:
        workload.close()
    assert "served result differs from in-process run" in chunk.problems
