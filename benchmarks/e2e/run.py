"""End-to-end benchmark runner for campaign, raresim, scenario and serve.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload NAME --seed S [--seconds N] [--trace 0|1]
    python3 benchmarks/e2e/run.py --seed S [--seconds N] [--trace]
    python3 benchmarks/e2e/run.py compare A/ B/
    python3 benchmarks/e2e/run.py spread DIR [--json FILE]

The first form runs one workload and prints one JSON object as the last
stdout line: the end-to-end metrics of BENCHMARK.json untraced, or its
per-layer metrics with ``--trace 1``.  The second runs every workload,
each in fresh interpreters, prints every metric by name and unit, and
with ``--trace`` runs each workload again traced.  Both write one JSON
record per workload run to ``--out`` (default ``benchmarks/e2e/out/
records``); ``compare`` reads two such directories and ``spread``
summarizes one.  Exit status is non-zero when an output check fails.
See README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
BENCHMARK = os.path.join(REPO, "BENCHMARK.json")
RECORDS = os.path.join(HERE, "out", "records")

sys.path.insert(0, HERE)
from stats import relative_spread, summarize, verdict  # noqa: E402
from workloads import OUT, SETUP_REPS, SRC, WORKLOADS  # noqa: E402

#: Wall budget of one run, every child included.
RUN_BUDGET_S = 175.0


class ChildFailed(RuntimeError):
    pass


def load_benchmark() -> Dict[str, object]:
    with open(BENCHMARK, "r", encoding="utf-8") as handle:
        return json.load(handle)


def require_program() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"run.py: no program sources at {SRC}; run from a full checkout")
    if not os.path.isfile(BENCHMARK):
        sys.exit(f"run.py: missing {BENCHMARK}")


def spawn(args: List[str], deadline: float) -> Tuple[Dict[str, object], float]:
    """Run one workload process; returns (its report, spawn time)."""
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=tmp, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "workloads.py")] + args,
        stdout=subprocess.PIPE, env=env, cwd=REPO, start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        # The whole process group: a serve child's server dies with it.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise ChildFailed(f"workload process {args} ran out of time")
    lines = stdout.decode("utf-8").strip().splitlines()
    if process.returncode != 0 or not lines:
        raise ChildFailed(
            f"workload process {args} exited {process.returncode}"
        )
    return json.loads(lines[-1]), spawned


def run_one(
    name: str, seed: int, seconds: int, trace: int, bench: Dict[str, object],
    out: str,
) -> Dict[str, object]:
    """One run of one workload: set-up repeats, the run, the record."""
    deadline = time.monotonic() + RUN_BUDGET_S
    argv = [name, str(seed), str(seconds), str(trace)]
    raw: List[float] = []
    samples: List[float] = []

    def add_setup(report: Dict[str, object], spawned: float) -> None:
        # Scaled to reference host speed like every other time (see
        # workloads.HostSpeed); the raw samples stay in the record.
        measured = report["setup_samples"] or [
            (report["ready_at"] - spawned, report["ready_factor"])
        ]
        raw.extend(seconds for seconds, _ in measured)
        samples.extend(seconds * factor for seconds, factor in measured)

    if not trace and not WORKLOADS[name].boots_server:
        for _ in range(SETUP_REPS - 1):
            add_setup(*spawn(["setup"] + argv, deadline))
    report, spawned = spawn(["run"] + argv, deadline)
    add_setup(report, spawned)
    values = dict(report["metrics"])
    if not trace:
        values["setup_s"] = statistics.median(samples)
    catalog = bench["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in catalog}
    problems = list(report["problems"])
    if set(values) != set(units):
        problems.append(
            f"metrics missing {sorted(set(units) - set(values))}, "
            f"unlisted {sorted(set(values) - set(units))}"
        )
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"] if not problems else max(1, report["failed"]),
        "metrics": {
            metric: {"value": values[metric], "unit": units[metric]}
            for metric in units
            if metric in values
        },
        "problems": problems,
        "setup_samples": samples,
        "setup_samples_unnormalized": raw,
        "detail": report.get("detail", {}),
    }
    for key in ("spans", "aggregates"):
        if key in report:
            record[key] = report[key]
    save_record(record, out)
    return record


def save_record(record: Dict[str, object], out: str) -> str:
    os.makedirs(out, exist_ok=True)
    stem = f"{record['workload']}.trace{record['trace']}.seed{record['seed']}"
    index = 0
    while os.path.exists(os.path.join(out, f"{stem}.{index}.json")):
        index += 1
    path = os.path.join(out, f"{stem}.{index}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return path


def print_record(record: Dict[str, object]) -> None:
    status = "ok" if record["correct"] else "CHECK FAILED"
    print(
        f"== {record['workload']} (seed {record['seed']}, "
        f"{'traced' if record['trace'] else 'untraced'}): {status}, "
        f"{record['attempted']} units, {record['failed']} failed"
    )
    for name, metric in record["metrics"].items():
        print(f"   {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in record["problems"]:
        print(f"   ! {problem}")


# -- compare ---------------------------------------------------------------------


def load_records(directory: str) -> List[Dict[str, object]]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, "r", encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def compare(parent_dir: str, change_dir: str, bench: Dict[str, object]) -> int:
    """Print per workload x metric quartiles and verdicts; 1 on regression."""
    parent = load_records(parent_dir)
    change = load_records(change_dir)
    bad = False
    print(
        f"{'workload':22s} {'metric':14s} {'A median [q1, q3]':>30s} "
        f"{'B median [q1, q3]':>30s} {'change':>8s} verdict"
    )
    for name in WORKLOADS:
        runs_a = [r for r in parent if r["workload"] == name and not r["trace"]]
        runs_b = [r for r in change if r["workload"] == name and not r["trace"]]
        if not runs_a or not runs_b:
            continue
        for metric in bench["end_to_end"]:
            key = metric["name"]
            a = [r["metrics"][key]["value"] for r in runs_a if key in r["metrics"]]
            b = [r["metrics"][key]["value"] for r in runs_b if key in r["metrics"]]
            if not a or not b:
                continue
            label, detail = verdict(a, b, metric["better"], metric["bound"])
            bad = bad or label == "regressed"
            sa, sb = summarize(a), summarize(b)
            print(
                f"{name:22s} {key:14s} "
                f"{_quart(sa):>30s} {_quart(sb):>30s} "
                f"{(sb['median'] / sa['median'] - 1) * 100:+7.1f}% {label}"
                + (f" (spread {detail['spread']:.1%} > bound {metric['bound']:.0%})"
                   if label == "unresolved" else "")
            )
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    differing = count_differences(parent + change, counts)
    for line in differing:
        print(f"per-layer count differs: {line}")
    if not differing:
        print("per-layer counts: identical across every traced run per seed")
    return 1 if bad or differing else 0


def spread(directory: str, bench: Dict[str, object]) -> Dict[str, object]:
    """Every untraced value and its IQR/median per workload x end-to-end
    metric, next to the same statistics before host-speed scaling."""
    records = [r for r in load_records(directory) if not r["trace"]]
    table: Dict[str, object] = {}
    for name in WORKLOADS:
        runs = [r for r in records if r["workload"] == name]
        if not runs:
            continue
        table[name] = {}
        for metric in bench["end_to_end"]:
            key = metric["name"]
            values = [r["metrics"][key]["value"] for r in runs]
            summary = summarize(values)
            summary["iqr_over_median"] = relative_spread(values)
            summary["seeds"] = [r["seed"] for r in runs]
            summary["values"] = values
            raw = [_unnormalized(r, key) for r in runs]
            if None not in raw:
                summary["unnormalized_values"] = raw
                summary["unnormalized_iqr_over_median"] = relative_spread(raw)
            table[name][key] = summary
            print(
                f"{name:22s} {key:14s} {_quart(summary):>34s} "
                f"IQR/median {summary['iqr_over_median']:6.1%} "
                f"(bound {metric['bound']:.0%})"
            )
    return table


def _unnormalized(record: Dict[str, object], key: str) -> Optional[float]:
    if key == "setup_s":
        return statistics.median(record["setup_samples_unnormalized"])
    return record["detail"]["unnormalized"].get(key)


def _quart(summary: Dict[str, float]) -> str:
    return (
        f"{summary['median']:.4g} [{summary['q1']:.4g}, {summary['q3']:.4g}]"
        f" n={summary['n']}"
    )


def count_differences(
    records: List[Dict[str, object]], counts: List[str]
) -> List[str]:
    """Per-layer counts must repeat exactly for a workload and seed."""
    seen: Dict[Tuple[str, int, str], float] = {}
    differing = []
    for record in records:
        if not record["trace"]:
            continue
        for name in counts:
            metric = record["metrics"].get(name)
            if metric is None:
                continue
            key = (record["workload"], record["seed"], name)
            previous: Optional[float] = seen.setdefault(key, metric["value"])
            if previous != metric["value"]:
                differing.append(
                    f"{key[0]} seed {key[1]} {name}: "
                    f"{previous} vs {metric['value']}"
                )
    return differing


# -- entry point -----------------------------------------------------------------


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent", help="records of the parent commit")
        parser.add_argument("change", help="records of the change")
        args = parser.parse_args(argv[1:])
        return compare(args.parent, args.change, load_benchmark())
    if argv[:1] == ["spread"]:
        parser = argparse.ArgumentParser(prog="run.py spread")
        parser.add_argument("records", help="a records directory")
        parser.add_argument("--json", help="also write the table here")
        args = parser.parse_args(argv[1:])
        table = spread(args.records, load_benchmark())
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(table, handle, indent=1, sort_keys=True)
                handle.write("\n")
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--out", default=RECORDS)
    args = parser.parse_args(argv)
    require_program()
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    try:
        if args.workload:
            record = run_one(
                args.workload, args.seed, seconds, args.trace, bench, args.out
            )
            for problem in record["problems"]:
                print(f"check failed: {problem}", file=sys.stderr)
            print(json.dumps({
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }))
            return 0 if record["correct"] else 1
        correct = True
        for name in WORKLOADS:
            for trace in ((0, 1) if args.trace else (0,)):
                record = run_one(name, args.seed, seconds, trace, bench, args.out)
                print_record(record)
                correct = correct and record["correct"]
        return 0 if correct else 1
    except ChildFailed as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
