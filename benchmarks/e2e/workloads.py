"""The six end-to-end workloads and the per-process runner behind run.py.

Every workload is driven through a public entry point of ``repro`` with
inputs derived from the run seed only.  A timed run repeats fixed-size
entry-point calls until the time budget is spent, so the work measured
grows with the budget; a traced run does a fixed, seed-determined
quota twice -- untraced, then with the layer wrappers of
:mod:`layers` installed -- so every per-layer count repeats exactly
for a given seed and the two results can be compared.

Module import is stdlib-only: ``repro`` is imported inside
``Workload.setup`` so the import is part of the measured set-up.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
#: Records, traces and temporary files (ignored by git).
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import layers  # noqa: E402
from stats import harrell_davis, tail_percentile  # noqa: E402

#: The paper's operating point (section VII-B): BER per 20 ms interval.
NOMINAL_BER = 5.3e-6
#: The CI mixed-fault scenario (transient + bursts + stuck-at).
MIXED_SCENARIO = {
    "transient_ber": 0.002,
    "burst": {"rate": 0.05, "length_pmf": {"2": 0.5, "4": 0.5}, "interleave": 2},
    "stuck": {"ppm": 300.0},
}
#: The small campaign spec a serve client submits.
SERVE_SPEC = {
    "kind": "campaign", "level": "Z", "ber": 2e-3, "intervals": 6,
    "group_size": 8,
}
SERVE_SPEC_LINES = 8 * 8
#: Set-up samples per untraced run, whose median is ``setup_s``: fresh
#: interpreters, or for a serve workload, server boots.
SETUP_REPS = 3


def derive_seed(seed: int, *path: object) -> int:
    """A 32-bit campaign/trial/spec seed: a pure function of the run seed."""
    text = "/".join(str(part) for part in (seed,) + path)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big")


class UnitClock:
    """Progress adapter: timestamps every completed unit.

    ``forward`` receives every call too, so the adapter can stand in
    for a progress object the program itself relies on.
    """

    def __init__(self, forward=None) -> None:
        self.forward = forward
        self.started = time.monotonic()
        self.stamps: List[float] = []

    def update(self, done: Optional[int] = None, advance: int = 1) -> None:
        self.stamps.extend([time.monotonic()] * advance)
        if self.forward is not None:
            self.forward.update(done=done, advance=advance)

    def note_resumed(self, units: int) -> None:
        if self.forward is not None:
            self.forward.note_resumed(units)

    def finish(self) -> None:
        if self.forward is not None:
            self.forward.finish()

    def latencies(self) -> List[float]:
        return step_latencies(self.started, self.stamps)


def step_latencies(start: float, stamps: List[float]) -> List[float]:
    """Per-unit wall times from completion stamps; the first from ``start``."""
    return [stamp - previous for previous, stamp in zip([start] + stamps, stamps)]


@dataclass
class Chunk:
    """One entry-point call (or one served request)."""

    units: int
    wall_s: float
    latencies: List[float]
    result: Dict[str, object]
    problems: List[str] = field(default_factory=list)


def campaign_problems(
    result, intervals: int, lines: int, exact: bool = True
) -> List[str]:
    """A campaign must finish, untruncated, with one outcome per line.

    With stuck-at faults a permanently faulty line that a later group
    scan corrects again is recorded again, so such campaigns account
    *at least* one outcome per line per interval (``exact=False``).
    """
    problems = []
    if result.truncated:
        problems.append(f"truncated ({result.stop_reason})")
    if result.intervals != intervals:
        problems.append(f"{result.intervals} of {intervals} intervals done")
    accounted = sum(result.outcomes.values())
    if accounted < intervals * lines or (exact and accounted != intervals * lines):
        problems.append(
            f"{accounted} outcomes for {intervals} intervals x {lines} lines"
        )
    return problems


def raresim_problems(result, trials: int) -> List[str]:
    problems = []
    if result.truncated:
        problems.append(f"truncated ({result.stop_reason})")
    if result.trials != trials:
        problems.append(f"{result.trials} of {trials} trials done")
    if not 0 <= result.conditional_failures <= result.trials:
        problems.append(f"{result.conditional_failures} failures")
    return problems


def outcome_values(results: List[Dict[str, object]]) -> Dict[str, float]:
    """``core.outcome.*`` and ``reliability.raresim.failures`` totals."""
    totals: Dict[str, float] = {}
    failures = 0
    for result in results:
        for label, count in dict(result.get("outcomes", {})).items():
            totals[label] = totals.get(label, 0) + count
        failures += int(result.get("conditional_failures", 0))
    return {
        "core.outcome.ecc1": totals.get("corrected_ecc1", 0),
        "core.outcome.raid4": totals.get("corrected_raid4", 0),
        "core.outcome.sdr": totals.get("corrected_sdr", 0),
        "core.outcome.hash2": totals.get("corrected_hash2", 0),
        "core.outcome.due": totals.get("due", 0) + totals.get("metadata_due", 0),
        "core.outcome.sdc": totals.get("sdc", 0),
        "reliability.raresim.failures": failures,
    }


def self_peak_rss_mb() -> float:
    """Peak RSS of this process and its waited-for children (Linux KiB)."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Workload:
    """Set-up, one entry-point call, and the output checks of a workload."""

    name = ""
    #: The tail percentile reported as ``unit_tail_ms`` (fixed per workload).
    tail = 90
    #: Entry-point calls in the traced quota.
    trace_calls = 1
    #: True when set-up boots a server (set-up time is then boot -> ready).
    boots_server = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tracer: Optional[layers.Tracer] = None
        self.setup_times = {"import_s": 0.0, "build_s": 0.0, "boot_s": 0.0}
        self.workdir = os.path.join(OUT, "tmp", f"{self.name}-{os.getpid()}")

    # -- lifecycle ------------------------------------------------------------

    def setup(self, boots: int = 1) -> List[Tuple[float, float]]:
        """Import and build; returns (seconds, speed factor) set-up samples
        measured in-process, if set-up time is not spawn -> ready."""
        started = time.perf_counter()
        self.import_modules()
        imported = time.perf_counter()
        self.build()
        self.setup_times["import_s"] = imported - started
        self.setup_times["build_s"] = time.perf_counter() - imported
        return []

    def import_modules(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        """Generate inputs and build what the entry point is handed."""

    def call(self, index: int) -> Chunk:
        raise NotImplementedError

    def check(self, chunks: List[Chunk]) -> List[str]:
        """Checks needing the whole run; per-chunk problems are appended
        to the chunks, run-wide ones returned."""
        return []

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- tracing --------------------------------------------------------------

    def entry(self, function, *args, **kwargs):
        """Call an entry point, as the ``reliability.loop`` span if traced."""
        if self.tracer is None:
            return function(*args, **kwargs)
        with self.tracer.span("reliability.loop"):
            return function(*args, **kwargs)

    def trace_pass(self, traced: bool) -> Tuple[float, List[Chunk], Dict]:
        """The fixed quota: (wall of the entry-point calls, chunks, extra
        per-layer values)."""
        chunks = [self.call(index) for index in range(self.trace_calls)]
        return sum(chunk.wall_s for chunk in chunks), chunks, {}

    def _serial_chunk(self, run, expected: int, problems) -> Chunk:
        """Time one in-process entry-point call fed a :class:`UnitClock`."""
        clock = UnitClock()
        started = time.perf_counter()
        result = self.entry(run, clock)
        wall = time.perf_counter() - started
        return Chunk(
            units=expected, wall_s=wall, latencies=clock.latencies(),
            result=result.as_dict(), problems=problems(result),
        )


class PaperZNominal(Workload):
    """SuDoku-Z at the paper's 64 MB point, BER 5.3e-6, numpy kernels."""

    name = "paper-z-nominal"
    #: Not p90: about one interval in ten includes a full (generation-2)
    #: garbage collection, so p90 sits on the edge of that population
    #: and flips between it and the rest from run to run.
    tail = 75
    trace_calls = 2
    LINES = 2 ** 20
    GROUP = 512
    INTERVALS = 20

    def import_modules(self) -> None:
        import numpy as np
        from repro.core.engine import build_engine
        from repro.core.linecodec import LineCodec
        from repro.reliability.montecarlo import run_engine_campaign
        from repro.sttram.array import STTRAMArray

        self._np = np
        self._build_engine = build_engine
        self._codec_cls = LineCodec
        self._run = run_engine_campaign
        self._array_cls = STTRAMArray

    def build(self) -> None:
        codec = self._codec_cls()
        array = self._array_cls(self.LINES, codec.stored_bits)
        self.engine = self._build_engine(
            "Z", array, group_size=self.GROUP, codec=codec, backend="numpy"
        )

    def call(self, index: int) -> Chunk:
        rng = self._np.random.default_rng(
            derive_seed(self.seed, self.name, index)
        )
        if index:
            # Back to the power-on state, untimed.  Each repaired line
            # otherwise keeps its own int object, so memory and scrub
            # time would grow with how long the run has lasted.
            self.engine.format()

        def run(clock):
            return self._run(
                self.engine, NOMINAL_BER, self.INTERVALS, rng=rng,
                randomize_content=False, progress=clock,
            )

        return self._serial_chunk(
            run, self.INTERVALS,
            lambda r: campaign_problems(r, self.INTERVALS, self.LINES),
        )


class CampaignZFail(Workload):
    """Serial SuDoku-Z campaign where every interval ends in a DUE."""

    name = "campaign-z-fail"
    tail = 90
    trace_calls = 1
    GROUP = 16
    BER = 2e-3
    INTERVALS = 25

    def import_modules(self) -> None:
        from repro.parallel.runner import run_sharded_campaign

        self._run = run_sharded_campaign

    def call(self, index: int) -> Chunk:
        def run(clock):
            return self._run(
                "Z", self.BER, self.INTERVALS, group_size=self.GROUP,
                seed=derive_seed(self.seed, self.name, index),
                backend="numpy", progress=clock,
            )

        return self._serial_chunk(
            run, self.INTERVALS,
            lambda r: campaign_problems(r, self.INTERVALS, self.GROUP ** 2),
        )


class RaresimPaper(Workload):
    """Conditional rare-event trials for Y then Z at the paper point."""

    name = "raresim-paper"
    tail = 90
    trace_calls = 4
    GROUP = 512
    GROUPS = 2048
    TRIALS = 10

    def import_modules(self) -> None:
        from repro.parallel.runner import run_sharded_raresim

        self._run = run_sharded_raresim

    def call(self, index: int) -> Chunk:
        level = "YZ"[index % 2]

        def run(clock):
            return self._run(
                level, NOMINAL_BER, self.TRIALS, group_size=self.GROUP,
                num_groups=self.GROUPS,
                seed=derive_seed(self.seed, self.name, index),
                backend="reference", progress=clock,
            )

        return self._serial_chunk(
            run, self.TRIALS, lambda r: raresim_problems(r, self.TRIALS)
        )


class ShardStamps:
    """Per-interval timestamps from inside scenario shards.

    Wraps ``run_scenario_campaign`` -- which each forked shard (and the
    serial path) looks up at call time -- with a :class:`UnitClock`
    forwarding to the shard's own progress object.  A shard process
    writes its stamps to a file on exit; the serial path keeps them in
    memory.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.owner_pid = os.getpid()
        self.records: List[Dict[str, object]] = []

    def install(self) -> None:
        from repro.reliability import scenario

        self._module = scenario
        self._original = scenario.run_scenario_campaign
        original = self._original

        def stamped(*args, progress=None, **kwargs):
            entered = time.monotonic()
            clock = UnitClock(forward=progress)
            try:
                return original(*args, progress=clock, **kwargs)
            finally:
                record = {"entered": entered, "stamps": clock.stamps}
                if os.getpid() == self.owner_pid:
                    self.records.append(record)
                else:
                    path = os.path.join(
                        self.directory, f"stamps-{os.getpid()}.json"
                    )
                    with open(path, "w", encoding="utf-8") as handle:
                        json.dump(record, handle)

        scenario.run_scenario_campaign = stamped

    def uninstall(self) -> None:
        self._module.run_scenario_campaign = self._original

    def collect(self) -> List[Dict[str, object]]:
        """Every shard record since the last collect (files removed)."""
        records, self.records = self.records, []
        for name in sorted(os.listdir(self.directory)):
            if name.startswith("stamps-"):
                path = os.path.join(self.directory, name)
                with open(path, "r", encoding="utf-8") as handle:
                    records.append(json.load(handle))
                os.remove(path)
        return records


class ScenarioMixed2Shard(Workload):
    """Mixed transient/burst/stuck-at scenario over two forked shards."""

    name = "scenario-mixed-2shard"
    tail = 90
    GROUP = 8
    INTERVALS = 6
    TRACE_INTERVALS = 24
    SHARDS = 2
    CHECKPOINT_EVERY = 10

    def import_modules(self) -> None:
        from repro.parallel.runner import run_sharded_scenario
        from repro.reliability.scenario import FaultScenario

        self._run = run_sharded_scenario
        self._scenario_cls = FaultScenario

    def build(self) -> None:
        self.scenario = self._scenario_cls.from_dict(MIXED_SCENARIO)
        os.makedirs(self.workdir, exist_ok=True)
        self.stamps = ShardStamps(self.workdir)
        self.stamps.install()

    def close(self) -> None:
        stamps = getattr(self, "stamps", None)
        if stamps is not None:
            stamps.uninstall()
        super().close()

    def _call(self, index: int, intervals: int, shards: int) -> Chunk:
        checkpoint = os.path.join(self.workdir, f"scenario-{index}.ck.json")
        started = time.perf_counter()
        called = time.monotonic()
        result = self.entry(
            self._run, "Z", self.scenario, intervals, group_size=self.GROUP,
            shards=shards, seed=derive_seed(self.seed, self.name, index),
            checkpoint_path=checkpoint,
            checkpoint_every=self.CHECKPOINT_EVERY, backend="reference",
        )
        wall = time.perf_counter() - started
        self.last_shards = self.stamps.collect()
        latencies = [
            latency
            for record in self.last_shards
            for latency in step_latencies(called, record["stamps"])
        ]
        self.last_called = called
        for name in os.listdir(self.workdir):
            if name.startswith(f"scenario-{index}."):
                os.remove(os.path.join(self.workdir, name))
        problems = campaign_problems(
            result, intervals, self.GROUP ** 2, exact=False
        )
        if len(latencies) != intervals:
            problems.append(f"{len(latencies)} shard stamps for {intervals}")
        return Chunk(intervals, wall, latencies, result.as_dict(), problems)

    def call(self, index: int) -> Chunk:
        return self._call(index, self.INTERVALS, self.SHARDS)

    def trace_pass(self, traced: bool) -> Tuple[float, List[Chunk], Dict]:
        if traced:
            # Serial: shard invariance makes it the same result, and the
            # wrappers then see every layer in this process.
            chunk = self._call(0, self.TRACE_INTERVALS, 1)
            return chunk.wall_s, [chunk], {}
        parallel = layers.Tracer()
        cpu_before = children_cpu_s()
        with layers.Patch(parallel, spans=("parallel.merge",)):
            sharded = self._call(0, self.TRACE_INTERVALS, self.SHARDS)
        worker_cpu = children_cpu_s() - cpu_before
        startup = max(
            record["entered"] - self.last_called for record in self.last_shards
        )
        extra = {
            "parallel.startup_s": startup,
            "parallel.merge_s": parallel.get("parallel.merge").total_s,
            "parallel.worker_cpu_s": worker_cpu,
            "parallel.busy_frac": worker_cpu / (self.SHARDS * sharded.wall_s),
        }
        serial = self._call(0, self.TRACE_INTERVALS, 1)
        if serial.result != sharded.result:
            serial.problems.append("2-shard result differs from serial")
        return serial.wall_s, [sharded, serial], extra


class Server:
    """A ``python -m repro serve`` child on an ephemeral port."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.boots = 0

    def boot(self) -> float:
        """Start a fresh server (new store); returns boot -> ready seconds."""
        self.boots += 1
        root = os.path.join(self.workdir, f"server-{self.boots}")
        os.makedirs(root, exist_ok=True)
        ready = os.path.join(root, "ready.json")
        env = dict(os.environ, PYTHONPATH=SRC)
        started = time.perf_counter()
        with open(os.path.join(root, "server.log"), "wb") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--port", "0",
                    "--workers", "1",
                    "--store-dir", os.path.join(root, "store"),
                    "--checkpoint-dir", os.path.join(root, "ck"),
                    "--ready-file", ready,
                ],
                env=env, cwd=REPO, stdout=log, stderr=log,
            )
        deadline = started + 60.0
        while not os.path.exists(ready):
            if self.process.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError(f"server did not become ready; see {root}")
            time.sleep(0.005)
        elapsed = time.perf_counter() - started
        with open(ready, "r", encoding="utf-8") as handle:
            self.port = json.load(handle)["port"]
        return elapsed

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process = None

    def vm_hwm_mb(self) -> float:
        assert self.process is not None
        with open(f"/proc/{self.process.pid}/status", "r") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def request(self, method: str, path: str, payload=None) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            body = None if payload is None else json.dumps(payload)
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def events(self, job_id: str) -> List[Tuple[str, Dict, float]]:
        """SSE frames of a job until a terminal one, with arrival times."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        frames: List[Tuple[str, Dict, float]] = []
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/events")
            response = connection.getresponse()
            event = ""
            while True:
                line = response.readline()
                if not line:
                    return frames
                text = line.decode("utf-8").rstrip("\r\n")
                if text.startswith("event:"):
                    event = text[len("event:"):].strip()
                elif text.startswith("data:"):
                    data = json.loads(text[len("data:"):])
                    frames.append((event, data, time.perf_counter()))
                    if event in ("done", "failed", "cancelled"):
                        return frames
        finally:
            connection.close()

    def units_simulated(self) -> float:
        status, raw = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics returned {status}")
        return sum(
            series["value"]
            for series in json.loads(raw)["series"]
            if series["name"] == "serve_units_simulated_total"
        )


class _Serve(Workload):
    """Shared set-up of the serve workloads: boot, take the last boot."""

    boots_server = True
    trace_requests = 0

    def import_modules(self) -> None:
        # The client is stdlib-only; repro is imported for the output
        # check after the timed phase.
        pass

    def setup(self, boots: int = 1) -> List[Tuple[float, float]]:
        # Client, server and job workers share one core, so the probe
        # below times the core that does the serving work.
        self.cores = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.cores)})
        started = time.perf_counter()
        self.import_modules()
        self.setup_times["import_s"] = time.perf_counter() - started
        os.makedirs(self.workdir, exist_ok=True)
        self.server = Server(self.workdir)
        samples = []
        for boot in range(boots):
            if boot:
                self.server.stop()
            elapsed = self.server.boot()
            samples.append((elapsed, HostSpeed().factor_now()))
        self.setup_times["boot_s"] = elapsed
        started = time.perf_counter()
        self.build()
        self.setup_times["build_s"] = time.perf_counter() - started
        return samples

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()
            os.sched_setaffinity(0, self.cores)
        super().close()

    def peak_rss_mb(self) -> float:
        return self.server.vm_hwm_mb()

    def spec(self, index: int) -> Dict[str, object]:
        return dict(SERVE_SPEC, seed=derive_seed(self.seed, "spec", index))

    def submit(self, spec) -> Tuple[Chunk, Dict[str, float]]:
        """POST, follow SSE to the terminal event, GET the result."""
        started = time.perf_counter()
        status, raw = self.server.request("POST", "/v1/jobs", spec)
        posted = time.perf_counter()
        problems: List[str] = []
        timing = {"post_s": posted - started}
        body = b""
        if status not in (200, 202):
            problems.append(f"POST returned {status}")
        else:
            job = json.loads(raw)
            if job["status"] != "done":
                frames = self.server.events(job["job_id"])
                arrivals = {event: at for event, _, at in frames}
                if "done" not in arrivals:
                    ended = frames[-1][0] if frames else "silently"
                    problems.append(f"job ended {ended}")
                elif "running" in arrivals:
                    timing["queue_wait_s"] = arrivals["running"] - posted
                    timing["run_s"] = arrivals["done"] - arrivals["running"]
            fetch_started = time.perf_counter()
            status, body = self.server.request(
                "GET", f"/v1/results/{job['digest']}"
            )
            timing["fetch_s"] = time.perf_counter() - fetch_started
            timing["cached"] = float(bool(job.get("cached")))
            if status != 200:
                problems.append(f"GET result returned {status}")
            else:
                result = json.loads(body)["result"]
                problems.extend(_served_problems(result))
        wall = time.perf_counter() - started
        chunk = Chunk(1, wall, [wall], {"body": body.decode("utf-8")}, problems)
        return chunk, timing

    def rerun_in_process(self, specs, backend: str) -> List[Chunk]:
        """The served specs run through the library, in this process.

        The server runs the reference backend.  A traced re-run uses it
        too, so its layer breakdown mirrors the server's work; the
        check after a timed run uses numpy kernels, which are
        bit-identical and keep the run well inside its time budget.
        """
        from repro.parallel.runner import run_sharded_campaign

        chunks = []
        for spec in specs:
            def run(clock, spec=spec):
                return run_sharded_campaign(
                    spec["level"], spec["ber"], spec["intervals"],
                    spec["group_size"], seed=spec["seed"], progress=clock,
                    backend=backend,
                )

            chunks.append(self._serial_chunk(
                run, spec["intervals"],
                lambda r, spec=spec: campaign_problems(
                    r, spec["intervals"], SERVE_SPEC_LINES
                ),
            ))
        return chunks


def _served_problems(result: Dict[str, object]) -> List[str]:
    intervals = int(SERVE_SPEC["intervals"])
    problems = []
    if result.get("truncated"):
        problems.append("served result is truncated")
    if result.get("intervals") != intervals:
        problems.append(f"served {result.get('intervals')} intervals")
    accounted = sum(dict(result.get("outcomes", {})).values())
    if accounted != intervals * SERVE_SPEC_LINES:
        problems.append(f"served result accounts {accounted} outcomes")
    return problems


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def _serve_extra(timings: List[Dict[str, float]], chunks: List[Chunk]) -> Dict:
    def column(key):
        return [timing[key] for timing in timings if key in timing]

    return {
        "serve.queue_wait_ms": _median_ms(column("queue_wait_s")),
        "serve.run_ms": _median_ms(column("run_s")),
        "serve.post_ms": _median_ms(column("post_s")),
        "serve.fetch_ms": _median_ms(column("fetch_s")),
        "serve.result_bytes": sum(
            len(chunk.result["body"].encode("utf-8")) for chunk in chunks
        ),
        "serve.dedup_hit_frac": sum(column("cached")) / max(1, len(timings)),
    }


class ServeMiss(_Serve):
    """Closed loop, one client, every spec distinct: simulate each."""

    name = "serve-miss"
    tail = 75
    trace_requests = 10

    def call(self, index: int) -> Chunk:
        spec = self.spec(index)
        chunk, _ = self.submit(spec)
        chunk.result["spec"] = spec
        return chunk

    def check(self, chunks: List[Chunk]) -> List[str]:
        self._compare(chunks, "numpy")
        return []

    def _compare(self, chunks: List[Chunk], backend: str) -> List[Chunk]:
        """Each served body against the same spec run in-process."""
        local = self.rerun_in_process(
            [chunk.result["spec"] for chunk in chunks], backend
        )
        for chunk, mine in zip(chunks, local):
            chunk.problems.extend(mine.problems)
            if chunk.result["body"] and (
                json.loads(chunk.result["body"])["result"]
                != json.loads(json.dumps(mine.result))
            ):
                chunk.problems.append("served result differs from in-process run")
        return local

    def trace_pass(self, traced: bool) -> Tuple[float, List[Chunk], Dict]:
        if traced:
            # A fresh store, so the same specs miss again.
            self.server.stop()
            self.server.boot()
        before = self.server.units_simulated()
        chunks, timings = [], []
        for index in range(self.trace_requests):
            chunk, timing = self.submit(self.spec(index))
            chunk.result["spec"] = self.spec(index)
            chunks.append(chunk)
            timings.append(timing)
        wall = sum(chunk.wall_s for chunk in chunks)
        extra = _serve_extra(timings, chunks)
        extra["serve.units_simulated"] = self.server.units_simulated() - before
        if traced:
            extra["in_process"] = self._compare(chunks, "reference")
        return wall, chunks, extra


class ServeHit(_Serve):
    """Closed loop, one client, resubmitting primed specs: store hits."""

    name = "serve-hit"
    #: Not p99: host stalls of a second or so slow a burst of these
    #: one-millisecond requests, and over six sets of runs the p99's
    #: IQR/median ranged from 8 to 25 % against 9 to 19 % for p90.
    tail = 90
    trace_requests = 400
    PRIMED = 8

    def build(self) -> None:
        self.primed: List[Tuple[Dict[str, object], bytes]] = []
        for index in range(self.PRIMED):
            spec = self.spec(index)
            chunk, _ = self.submit(spec)
            if chunk.problems:
                raise RuntimeError(f"priming failed: {chunk.problems}")
            self.primed.append((spec, chunk.result["body"]))
        self.units_before = self.server.units_simulated()

    def setup(self, boots: int = 1) -> List[Tuple[float, float]]:
        samples = super().setup(boots)
        # Priming is set-up work but not set-up *time*: boot -> ready.
        self.setup_times["build_s"] = 0.0
        return samples

    def _resubmit(self, index: int) -> Tuple[Chunk, Dict[str, float]]:
        spec, primed = self.primed[index % self.PRIMED]
        started = time.perf_counter()
        status, raw = self.server.request("POST", "/v1/jobs", spec)
        posted = time.perf_counter()
        problems: List[str] = []
        body = b""
        cached = False
        if status != 200:
            problems.append(f"resubmission POST returned {status}")
        else:
            job = json.loads(raw)
            cached = bool(job.get("cached"))
            if not cached:
                problems.append("resubmission was not a store hit")
            status, body = self.server.request(
                "GET", f"/v1/results/{job['digest']}"
            )
            if status != 200 or body.decode("utf-8") != primed:
                problems.append("served bytes differ from the primed bytes")
        done = time.perf_counter()
        chunk = Chunk(
            1, done - started, [done - started],
            {"body": body.decode("utf-8")}, problems,
        )
        timing = {
            "post_s": posted - started, "fetch_s": done - posted,
            "cached": float(cached),
        }
        return chunk, timing

    def call(self, index: int) -> Chunk:
        return self._resubmit(index)[0]

    def check(self, chunks: List[Chunk]) -> List[str]:
        moved = self.server.units_simulated() - self.units_before
        if moved:
            return [f"store hits simulated {moved} units"]
        return []

    def trace_pass(self, traced: bool) -> Tuple[float, List[Chunk], Dict]:
        pairs = [self._resubmit(index) for index in range(self.trace_requests)]
        chunks = [chunk for chunk, _ in pairs]
        wall = sum(chunk.wall_s for chunk in chunks)
        extra = _serve_extra([timing for _, timing in pairs], chunks)
        extra["serve.units_simulated"] = (
            self.server.units_simulated() - self.units_before
        )
        for problem in self.check(chunks):
            chunks[-1].problems.append(problem)
        if traced:
            local = self.rerun_in_process(
                [spec for spec, _ in self.primed], "reference"
            )
            for (spec, primed), chunk in zip(self.primed, local):
                if json.loads(primed)["result"] != json.loads(
                    json.dumps(chunk.result)
                ):
                    chunk.problems.append("primed result differs in-process")
            extra["in_process"] = local
        return wall, chunks, extra


WORKLOADS = {
    cls.name: cls
    for cls in (
        PaperZNominal, CampaignZFail, RaresimPaper, ScenarioMixed2Shard,
        ServeMiss, ServeHit,
    )
}


# -- the two run modes -------------------------------------------------------------


#: Iterations of the host-speed probe, a fixed pure-Python loop.
PROBE_LOOP = 75_000
#: The probe's duration on the reference host (a shared 2-core Linux VM): times
#: are reported as if the run had seen this host speed throughout.
PROBE_REFERENCE_S = 0.005
#: Spacing of probes between entry-point calls, and the window around
#: a call whose probes set its speed factor.
PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = 1.0


def probe() -> Tuple[float, float]:
    """Time the probe loop once: (monotonic end stamp, seconds)."""
    started = time.perf_counter()
    total = 0
    for value in range(PROBE_LOOP):
        total += value * value % 7
    return time.monotonic(), time.perf_counter() - started


class HostSpeed:
    """Probe samples interleaved with the work, in the same process.

    The host this benchmark runs on is shared: its speed drifts by tens
    of percent within minutes, for CPU time as much as for wall time.
    Scaling every measured time by ``PROBE_REFERENCE_S / probe`` --
    the probe median in a window around the measured call -- reports
    the time the call would have taken at the reference speed.  The
    probe runs between calls, never inside a timed one, and no code of
    the program under test.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(probe())

    def factor(self, start: float, end: float) -> float:
        """Multiplier taking times measured in [start, end] to reference."""
        window = [
            seconds for stamp, seconds in self.samples
            if start - PROBE_WINDOW_S <= stamp <= end + PROBE_WINDOW_S
        ]
        if not window:
            nearest = min(
                self.samples, key=lambda sample: abs(sample[0] - end)
            )
            window = [nearest[1]]
        return PROBE_REFERENCE_S / statistics.median(window)

    def factor_now(self) -> float:
        """Factor for a time measured just now (three fresh probes)."""
        self.sample(3)
        now = time.monotonic()
        return self.factor(now, now)


def timed_run(workload: Workload, seconds: float) -> Dict[str, object]:
    """Repeat entry-point calls for ``seconds``; end-to-end metrics."""
    chunks: List[Chunk] = []
    spans: List[Tuple[float, float]] = []
    problems: List[str] = []
    speed = HostSpeed()
    started = time.perf_counter()
    probed = -PROBE_EVERY_S
    index = 0
    while time.perf_counter() - started < seconds:
        if time.perf_counter() - probed >= PROBE_EVERY_S:
            speed.sample()
            probed = time.perf_counter()
        called = time.monotonic()
        try:
            chunks.append(workload.call(index))
        except Exception as error:  # a crashed call is a failed unit
            problems.append(f"call {index} raised {error!r}")
            break
        spans.append((called, time.monotonic()))
        index += 1
    speed.sample()
    if chunks:
        problems.extend(workload.check(chunks))
    units = sum(chunk.units for chunk in chunks)
    failed_units = sum(chunk.units for chunk in chunks if chunk.problems)
    problems.extend(
        f"call {index}: {problem}"
        for index, chunk in enumerate(chunks)
        for problem in chunk.problems
    )
    attempted = max(units, 1)
    if problems and not failed_units:
        failed_units = attempted
    factors = [speed.factor(start, end) for start, end in spans]
    raw = [value for chunk in chunks for value in chunk.latencies]
    latencies = [
        value * factor
        for chunk, factor in zip(chunks, factors)
        for value in chunk.latencies
    ]
    metrics: Dict[str, float] = {}
    raw_metrics: Dict[str, float] = {}
    if units and latencies:
        metrics = {
            "units_per_s": units / sum(
                chunk.wall_s * factor for chunk, factor in zip(chunks, factors)
            ),
            "unit_p50_ms": harrell_davis(latencies, 50) * 1000.0,
            "unit_tail_ms": harrell_davis(latencies, workload.tail) * 1000.0,
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        raw_metrics = {
            "units_per_s": units / sum(chunk.wall_s for chunk in chunks),
            "unit_p50_ms": harrell_davis(raw, 50) * 1000.0,
            "unit_tail_ms": harrell_davis(raw, workload.tail) * 1000.0,
        }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed_units,
        "problems": problems,
        "detail": {
            "calls": len(chunks),
            "units": units,
            "tail_percentile": workload.tail,
            "latency_samples": len(latencies),
            "tail_supported_up_to": tail_percentile(len(latencies)),
            "unnormalized": raw_metrics,
            "speed_factors": factors,
            "probes": speed.samples,
            "latencies_s": latencies,
        },
    }


def traced_run(workload: Workload) -> Dict[str, object]:
    """The fixed quota untraced, then traced; per-layer metrics."""
    tracer = layers.Tracer()
    # Imports every wrapped module now, so both passes run in the same
    # interpreter state (a serve client is stdlib-only until then).
    hooks = layers.Patch(tracer)
    untraced_wall, untraced, untraced_extra = workload.trace_pass(False)
    workload.tracer = tracer
    with hooks:
        traced_wall, traced, extra = workload.trace_pass(True)
    workload.tracer = None
    in_process = extra.pop("in_process", [])
    problems = [
        problem for chunk in untraced + traced + in_process
        for problem in chunk.problems
    ]
    if [chunk.result for chunk in traced] != [
        chunk.result for chunk in untraced[-len(traced):]
    ]:
        problems.append("traced result differs from untraced result")
    measured = in_process if in_process else traced
    values = {name: 0.0 for name in ZERO_DEFAULTS}
    values.update(layers.layer_values(tracer))
    values.update(outcome_values([chunk.result for chunk in measured]))
    values["reliability.first_unit_s"] = sum(
        chunk.latencies[0] for chunk in measured if chunk.latencies
    )
    values["setup.import_s"] = workload.setup_times["import_s"]
    values["setup.build_s"] = workload.setup_times["build_s"]
    values["setup.boot_s"] = workload.setup_times["boot_s"]
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    values.update(untraced_extra)
    values.update(extra)
    units = sum(chunk.units for chunk in untraced + traced)
    return {
        "metrics": values,
        "attempted": units,
        "failed": units if problems else 0,
        "problems": problems,
        "detail": {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall},
        "spans": tracer.spans,
        "aggregates": {
            name: vars(aggregate) for name, aggregate in tracer.aggregates.items()
        },
    }


#: Per-layer metrics only some workloads produce; zero elsewhere.
ZERO_DEFAULTS = (
    "parallel.startup_s", "parallel.merge_s", "parallel.worker_cpu_s",
    "parallel.busy_frac", "serve.queue_wait_ms", "serve.run_ms",
    "serve.post_ms", "serve.fetch_ms", "serve.result_bytes",
    "serve.dedup_hit_frac", "serve.units_simulated",
)


def child_main(argv: List[str]) -> int:
    """One workload process: ``<role> <workload> <seed> <seconds> <trace>``.

    Prints one JSON object as its last stdout line.  ``role`` is
    ``setup`` (set up, report readiness, exit) or ``run``.
    """
    role, name, seed, seconds, trace = argv
    workload = WORKLOADS[name](int(seed))
    trace_on = trace == "1"
    try:
        boots = SETUP_REPS if workload.boots_server and not trace_on else 1
        samples = workload.setup(boots)
        ready_at = time.monotonic()
        report: Dict[str, object] = {
            "ready_at": ready_at,
            "setup_samples": samples,
            "ready_factor": HostSpeed().factor_now(),
        }
        if role == "run":
            if trace_on:
                report.update(traced_run(workload))
            else:
                report.update(timed_run(workload, float(seconds)))
    finally:
        workload.close()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
