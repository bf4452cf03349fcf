"""Discovering and executing the benchmark suite for ``repro bench``.

The benchmarks stay ordinary pytest files (``benchmarks/bench_*.py``)
so ``pytest benchmarks/ --benchmark-only`` keeps working unchanged;
this module is the programmatic driver the CLI uses: select a subset,
run it in a pytest subprocess pointed at a trajectory store, and report
which bench ids recorded new entries (by diffing store counts, so the
answer is exact even when a benchmark emits several exhibits or none).

``pytest-benchmark`` is optional here: when the plugin is installed the
run passes ``--benchmark-disable`` (the fixture degrades to a plain
call -- the trajectory wall clock is our timing source); when it is
missing, the benchmark conftest provides a stand-in fixture, so the
suite runs on a bare pytest too.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.bench.store import STORE_ENV, TrajectoryStore

#: Default benchmark directory, relative to the repository checkout.
DEFAULT_BENCH_DIR = "benchmarks"


def discover(bench_dir: str, only: Sequence[str] = ()) -> List[pathlib.Path]:
    """Benchmark files under ``bench_dir`` matching any ``only`` filter.

    Filters are case-insensitive substrings of the file stem (so
    ``--only scrub`` selects ``bench_scrub_fastpath.py``); with no
    filters, the whole suite is selected.  Sorted for run-order
    determinism.
    """
    root = pathlib.Path(bench_dir)
    files = sorted(root.glob("bench_*.py"))
    if not only:
        return files
    wanted = [pattern.lower() for pattern in only]
    return [
        path for path in files
        if any(pattern in path.stem.lower() for pattern in wanted)
    ]


def _benchmark_plugin_available() -> bool:
    try:
        import pytest_benchmark  # noqa: F401
    except ImportError:
        return False
    return True


@dataclass
class RunOutcome:
    """What one ``repro bench`` execution produced."""

    exit_code: int
    files: List[str] = field(default_factory=list)
    recorded: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


def run_benchmarks(
    files: Sequence[pathlib.Path],
    store_root: str,
    pytest_args: Sequence[str] = (),
) -> RunOutcome:
    """Run benchmark files in a pytest subprocess, recording trajectories.

    The subprocess inherits the current interpreter and environment,
    with ``REPRO_BENCH_STORE`` pointing at ``store_root`` and the
    installed ``repro`` package location prepended to ``PYTHONPATH``
    (so an uninstalled ``PYTHONPATH=src`` invocation propagates).
    Returns the pytest exit code plus the bench ids whose trajectories
    grew during the run.
    """
    if not files:
        return RunOutcome(exit_code=0)
    store = TrajectoryStore(store_root)
    before = store.counts()
    command = [sys.executable, "-m", "pytest", "-q"]
    if _benchmark_plugin_available():
        command.append("--benchmark-disable")
    command.extend(str(path) for path in files)
    command.extend(pytest_args)
    environment = dict(os.environ)
    environment[STORE_ENV] = str(store_root)
    package_root = str(pathlib.Path(__file__).resolve().parents[2])
    existing = environment.get("PYTHONPATH", "")
    environment["PYTHONPATH"] = (
        package_root + (os.pathsep + existing if existing else "")
    )
    completed = subprocess.run(command, env=environment)
    after = store.counts()
    recorded = sorted(
        bench_id for bench_id, count in after.items()
        if count > before.get(bench_id, 0)
    )
    return RunOutcome(
        exit_code=completed.returncode,
        files=[str(path) for path in files],
        recorded=recorded,
    )
