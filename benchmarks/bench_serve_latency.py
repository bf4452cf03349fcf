"""Serve latency: POST to ``done`` for small campaigns through one worker.

A :class:`~repro.serve.app.ServeApp` runs in this process on an
ephemeral port with one worker.  A closed-loop client (one request in
flight) submits ``REQUESTS`` distinct SuDoku-Z campaigns of the
end-to-end ``serve-miss`` shape (BER 2e-3, 6 intervals, G=8) and
follows each job's SSE stream to its terminal event.  A request's
latency runs from sending the POST to reading the ``done`` event, so it
covers queueing, worker start, the run, the store write and event
delivery.  The p90 has ten samples beyond it.

Every stored result is compared with the same spec run in this process,
so a fast wrong server cannot post a number; ``benchmarks/baseline.json``
gates ``p50_ms`` and ``p90_ms`` with ``max`` entries.
"""

import asyncio
import json
import math
import statistics
import tempfile
import time

from conftest import emit
from repro.parallel.runner import run_sharded_campaign
from repro.serve.app import ServeApp
from repro.serve.specs import parse_submission

REQUESTS = 100
SPEC = {
    "kind": "campaign", "level": "Z", "ber": 2e-3, "intervals": 6,
    "group_size": 8,
}
FIRST_SEED = 1000
HOST = "127.0.0.1"


def _specs():
    return [dict(SPEC, seed=FIRST_SEED + index) for index in range(REQUESTS)]


async def _exchange(port, request: bytes) -> bytes:
    """One-shot HTTP exchange; returns the response body."""
    reader, writer = await asyncio.open_connection(HOST, port)
    writer.write(request)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    if status not in (200, 202):
        raise RuntimeError(f"HTTP {status}: {body[:200]!r}")
    return body


async def _post(port, spec) -> dict:
    body = json.dumps(spec).encode("utf-8")
    head = (
        f"POST /v1/jobs HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    return json.loads(await _exchange(port, head + body))


async def _terminal_event(port, job_id) -> str:
    """Follow a job's SSE stream; returns its terminal event name."""
    reader, writer = await asyncio.open_connection(HOST, port)
    writer.write(
        f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\nHost: bench\r\n\r\n"
        .encode("latin-1")
    )
    await writer.drain()
    try:
        while True:
            line = await reader.readline()
            if not line:
                return "eof"
            if line.startswith(b"event: "):
                event = line[len(b"event: "):].strip().decode("utf-8")
                if event in ("done", "failed", "cancelled"):
                    return event
    finally:
        writer.close()
        await writer.wait_closed()


async def _serve_and_measure(root: str):
    """Latencies [s] and stored result bodies, one per spec."""
    app = ServeApp(
        store_dir=f"{root}/store", checkpoint_dir=f"{root}/ck", workers=1
    )
    _, port = await app.start(HOST, 0)
    loop_task = asyncio.create_task(app.scheduler.run(app.stop_event))
    latencies, results = [], []
    try:
        for spec in _specs():
            started = time.perf_counter()
            job = await _post(port, spec)
            event = await _terminal_event(port, job["job_id"])
            latencies.append(time.perf_counter() - started)
            if event != "done":
                raise RuntimeError(f"job {job['job_id']} ended {event}")
            body = await _exchange(
                port,
                f"GET /v1/results/{job['digest']} HTTP/1.1\r\nHost: bench"
                "\r\n\r\n".encode("latin-1"),
            )
            results.append(json.loads(body)["result"])
    finally:
        app.stop_event.set()
        app._server.close()
        await app.scheduler.drain(10.0)
        await loop_task
        await app._server.wait_closed()
    return latencies, results


def _in_process(spec) -> dict:
    """The spec run through the library, as the job worker runs it."""
    job, _, _ = parse_submission(spec)
    params = job.params
    result = run_sharded_campaign(
        params["level"], params["ber"], params["intervals"],
        params["group_size"], shards=job.shards, seed=params["seed"],
        interval_s=params["interval_s"],
    )
    return json.loads(json.dumps(result.as_dict()))


def _percentile(values, fraction):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def _measure():
    with tempfile.TemporaryDirectory() as root:
        latencies, results = asyncio.run(_serve_and_measure(root))
    mismatched = [
        spec["seed"] for spec, served in zip(_specs(), results)
        if served != _in_process(spec)
    ]
    return latencies, mismatched


def test_bench_serve_latency(benchmark):
    latencies, mismatched = benchmark.pedantic(_measure, rounds=1)
    assert len(latencies) == REQUESTS
    assert not mismatched, f"served results differ for seeds {mismatched}"
    p50_ms = statistics.median(latencies) * 1e3
    p90_ms = _percentile(latencies, 0.9) * 1e3

    emit({
        "title": "Serve latency: POST to done, one worker, small SuDoku-Z jobs",
        "headers": ["quantity", "value"],
        "rows": [
            ["requests (closed loop, 1 client)", str(REQUESTS)],
            ["POST -> done p50 [ms]", f"{p50_ms:.1f}"],
            ["POST -> done p90 [ms]", f"{p90_ms:.1f}"],
            ["max [ms]", f"{max(latencies) * 1e3:.1f}"],
            ["served == in-process", f"{REQUESTS - len(mismatched)}/{REQUESTS}"],
        ],
        "notes": (
            f"Z, BER {SPEC['ber']}, {SPEC['intervals']} intervals, "
            f"G={SPEC['group_size']}, seeds {FIRST_SEED}.."
            f"{FIRST_SEED + REQUESTS - 1}; in-process ServeApp, 1 worker"
        ),
        "scalars": {"p50_ms": round(p50_ms, 2), "p90_ms": round(p90_ms, 2)},
        "config": dict(SPEC, requests=REQUESTS, first_seed=FIRST_SEED),
    })
