"""End-to-end service tests against an in-process ServeApp.

Each test boots the asyncio server on an ephemeral port, drives it with
a minimal HTTP/1.1 client over ``asyncio.open_connection``, and tears it
down.  Jobs use the fast Z-scheme campaign (small intervals, tiny
groups) so a full submit -> SSE -> result round trip stays subsecond.
"""

import asyncio
import json
import os
import signal
import time

from repro.serve import scheduler as scheduler_module
from repro.serve.app import ServeApp
from repro.serve.scheduler import Scheduler
from repro.serve.specs import parse_submission
from repro.serve.store import ResultStore

SPEC = {
    "kind": "campaign", "level": "Z", "ber": 2e-3,
    "intervals": 6, "group_size": 8, "seed": 3,
}

RARE_SPEC = {
    "kind": "raresim", "level": "Z", "ber": 1e-3, "trials": 60,
    "group_size": 16, "num_groups": 32, "seed": 5,
}


async def _request(port, method, path, payload=None):
    """One-shot HTTP exchange; returns (status, parsed-JSON-or-bytes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header_blob, _, response_body = raw.partition(b"\r\n\r\n")
    status = int(header_blob.split(b" ", 2)[1])
    content_type = b"application/json" in header_blob
    return status, (
        json.loads(response_body) if content_type else response_body
    )


async def _raw_result(port, digest):
    """GET /v1/results/<digest> returning the verbatim body bytes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET /v1/results/{digest} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header_blob, _, body = raw.partition(b"\r\n\r\n")
    return int(header_blob.split(b" ", 2)[1]), body


async def _sse_events(port, job_id, limit=500):
    """Consume the job's SSE stream until a terminal event."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\nHost: t\r\n\r\n".encode()
    )
    await writer.drain()
    events = []
    event_name = None
    for _ in range(limit):
        line = (await reader.readline()).decode("utf-8").rstrip("\n")
        if line.startswith("event: "):
            event_name = line[len("event: "):]
        elif line.startswith("data: ") and event_name is not None:
            events.append((event_name, json.loads(line[len("data: "):])))
            if event_name in ("done", "failed", "cancelled"):
                break
            event_name = None
    writer.close()
    await writer.wait_closed()
    return events


class _RunningApp:
    """Boots a ServeApp + scheduler loop for the duration of a test."""

    def __init__(self, tmp_path, **kwargs):
        kwargs.setdefault("checkpoint_every", 2)
        self.app = ServeApp(
            store_dir=str(tmp_path / "store"),
            checkpoint_dir=str(tmp_path / "ck"),
            **kwargs,
        )
        self.port = None
        self._task = None

    async def __aenter__(self):
        os.makedirs(self.app.scheduler.checkpoint_dir, exist_ok=True)
        _, self.port = await self.app.start("127.0.0.1", 0)
        self._task = asyncio.create_task(
            self.app.scheduler.run(self.app.stop_event)
        )
        return self

    async def __aexit__(self, exc_type, exc, tb):
        self.app.stop_event.set()
        self.app._server.close()
        await self.app._server.wait_closed()
        await self._task


async def _spin(turns=5):
    """Let the loop run ready callbacks, with no wall-clock wait."""
    for _ in range(turns):
        await asyncio.sleep(0)


async def _until_terminal(subscriber):
    """Consume a scheduler subscription up to its terminal event."""
    while True:
        event, _ = await asyncio.wait_for(subscriber.get(), timeout=60)
        if event in ("done", "failed", "cancelled"):
            return event


def _units_simulated(metrics_payload):
    return sum(
        series["value"]
        for series in metrics_payload["series"]
        if series["name"] == "serve_units_simulated_total"
    )


class TestSubmitAndDedup:
    def test_submit_runs_to_done_and_resubmit_is_byte_identical_hit(
        self, tmp_path
    ):
        async def scenario():
            async with _RunningApp(tmp_path, workers=1) as running:
                port = running.port
                status, job = await _request(port, "POST", "/v1/jobs", SPEC)
                assert status == 202 and job["created"]
                assert job["status"] in ("queued", "running")
                events = await _sse_events(port, job["job_id"])
                assert events[-1][0] == "done"
                assert not events[-1][1]["cached"]
                # Progress/metrics frames streamed before the terminal.
                names = [name for name, _ in events]
                assert "running" in names and "metrics" in names

                status, first_bytes = await _raw_result(port, job["digest"])
                assert status == 200
                record = json.loads(first_bytes)
                assert record["result"]["truncated"] is False
                assert record["result"]["intervals"] == SPEC["intervals"]

                status, metrics = await _request(port, "GET", "/metrics")
                units_after_first = _units_simulated(metrics)
                assert units_after_first == SPEC["intervals"]

                # Identical resubmission: answered from the store.
                status, again = await _request(port, "POST", "/v1/jobs", SPEC)
                assert status == 200
                assert again["cached"] and not again["created"]
                assert again["status"] == "done"
                assert again["digest"] == job["digest"]
                # The cached job's SSE stream is just the terminal event.
                cached_events = await _sse_events(port, again["job_id"])
                assert cached_events == [
                    ("done", {"cached": True, "digest": job["digest"]})
                ]
                # Zero additional trials simulated...
                status, metrics = await _request(port, "GET", "/metrics")
                assert _units_simulated(metrics) == units_after_first
                # ...and the served body is byte-identical.
                status, second_bytes = await _raw_result(port, job["digest"])
                assert second_bytes == first_bytes

                # Completed jobs leave no checkpoint files behind.
                assert os.listdir(running.app.scheduler.checkpoint_dir) == []

        asyncio.run(scenario())

    def test_inflight_duplicate_joins_existing_job(self, tmp_path):
        async def scenario():
            spec = dict(SPEC)
            spec["intervals"] = 200  # long enough to still be in flight
            async with _RunningApp(tmp_path, workers=1) as running:
                port = running.port
                _, first = await _request(port, "POST", "/v1/jobs", spec)
                _, second = await _request(port, "POST", "/v1/jobs", spec)
                assert not second["created"]
                assert second["job_id"] == first["job_id"]

        asyncio.run(scenario())

    def test_execution_hints_share_the_cache_entry(self, tmp_path):
        async def scenario():
            async with _RunningApp(tmp_path, workers=1) as running:
                port = running.port
                _, job = await _request(port, "POST", "/v1/jobs", SPEC)
                await _sse_events(port, job["job_id"])
                _, stored = await _request(
                    port, "GET", f"/v1/results/{job['digest']}"
                )
                # Retired hints, as older clients still send them.
                for hints in ({"backend": "reference", "scrub_mode": "dense"},
                              {"backend": "numpy", "scrub_mode": "sparse"}):
                    _, again = await _request(
                        port, "POST", "/v1/jobs", dict(SPEC, **hints)
                    )
                    assert again["cached"]
                    assert again["digest"] == job["digest"]
                    _, served = await _request(
                        port, "GET", f"/v1/results/{again['digest']}"
                    )
                    assert served == stored

        asyncio.run(scenario())


    def test_shard_count_shares_the_cache_entry(self, tmp_path):
        """Rare-event trial t draws from seed-tree child (seed, t), so a
        K-shard result equals the serial one and ``shards`` stays out
        of the digest: the sharded resubmission is a store hit."""
        from repro.parallel import run_sharded_raresim

        async def scenario():
            async with _RunningApp(tmp_path, workers=1) as running:
                port = running.port
                _, job = await _request(port, "POST", "/v1/jobs", RARE_SPEC)
                await _sse_events(port, job["job_id"])
                _, metrics = await _request(port, "GET", "/metrics")
                units = _units_simulated(metrics)
                status, again = await _request(
                    port, "POST", "/v1/jobs", dict(RARE_SPEC, shards=2)
                )
                assert status == 200 and again["cached"]
                assert again["digest"] == job["digest"]
                _, metrics = await _request(port, "GET", "/metrics")
                assert _units_simulated(metrics) == units
                _, stored = await _request(
                    port, "GET", f"/v1/results/{job['digest']}"
                )
                return stored["result"]

        stored = asyncio.run(scenario())
        sharded = run_sharded_raresim(
            RARE_SPEC["level"], RARE_SPEC["ber"], RARE_SPEC["trials"],
            RARE_SPEC["group_size"], RARE_SPEC["num_groups"],
            shards=2, seed=RARE_SPEC["seed"],
        )
        assert json.loads(json.dumps(sharded.as_dict())) == stored


class TestJobTableBound:
    CAP = 8

    def test_cached_resubmissions_keep_the_table_bounded(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(scheduler_module, "MAX_TERMINAL_JOBS", self.CAP)
        scheduler = Scheduler(ResultStore(str(tmp_path / "store")), str(tmp_path))
        spec, _, _ = parse_submission(SPEC)
        stored = scheduler.store.put(spec.digest(), {"result": {"ok": True}})
        queued, created = scheduler.submit(dict(SPEC, seed=99))
        assert created and queued.status == "queued"
        for _ in range(3 * self.CAP):
            job, created = scheduler.submit(SPEC)
            assert job.cached and job.status == "done" and not created
        # Every cached job past the cap is gone; the queued one is not.
        assert len(scheduler.jobs) == self.CAP + 1
        assert scheduler.jobs[queued.job_id] is queued
        assert scheduler.active_by_digest[queued.digest] == queued.job_id
        assert job.job_id in scheduler.jobs
        assert scheduler.store.get_bytes(job.digest) == stored

    def test_fresh_resubmission_after_eviction_serves_the_store(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(scheduler_module, "MAX_TERMINAL_JOBS", self.CAP)

        async def scenario():
            async with _RunningApp(tmp_path, workers=1) as running:
                port = running.port
                _, job = await _request(port, "POST", "/v1/jobs", SPEC)
                await _sse_events(port, job["job_id"])
                _, first_bytes = await _raw_result(port, job["digest"])
                for _ in range(2 * self.CAP):
                    await _request(port, "POST", "/v1/jobs", SPEC)
                jobs = running.app.scheduler.jobs
                assert len(jobs) == self.CAP
                assert job["job_id"] not in jobs
                status, again = await _request(port, "POST", "/v1/jobs", SPEC)
                assert status == 200 and again["cached"]
                status, body = await _raw_result(port, again["digest"])
                assert status == 200 and body == first_bytes

        asyncio.run(scenario())


class TestValidationAndRoutes:
    def test_bad_spec_is_400_with_field_name(self, tmp_path):
        async def scenario():
            async with _RunningApp(tmp_path) as running:
                status, body = await _request(
                    running.port, "POST", "/v1/jobs",
                    {"kind": "campaign", "ber": 7.0},
                )
                assert status == 400
                assert "ber" in body["error"]

        asyncio.run(scenario())

    def test_values_the_run_rejects_are_400_not_failed_jobs(self, tmp_path):
        """Each of these used to be accepted (202) and end ``failed``."""
        bad = [
            ({"kind": "campaign", "group_size": 3}, "'group_size'"),
            ({"kind": "raresim", "ber": 0.0}, "'ber'"),
            ({"kind": "scenario", "scheme": "raid6", "group_size": 6,
              "scenario": {"transient_ber": 1e-3}}, "'group_size'"),
            # A burst longer than its span, and a span wider than the
            # scheme's row (line_bits x interleave: 88 bits for eccline).
            ({"kind": "scenario", "scenario": {"burst": {
                "rate": 0.1, "length_pmf": {"100": 1}, "span": 16}}},
             "'span'"),
            ({"kind": "scenario", "scheme": "eccline", "scenario": {
                "burst": {"rate": 0.1, "length_pmf": {"4": 1},
                          "span": 200}}}, "'span'"),
            ({"kind": "raresim", "ber": 1e-3, "group_size": 16,
              "scenario": {"burst": {"rate": 0.1, "length_pmf": {"4": 1},
                                     "span": 600}}}, "'span'"),
            ({"kind": "raresim", "group_size": 12}, "'group_size'"),
        ]

        async def scenario():
            async with _RunningApp(tmp_path) as running:
                for payload, field in bad:
                    status, body = await _request(
                        running.port, "POST", "/v1/jobs", payload
                    )
                    assert status == 400, payload
                    assert field in body["error"], (payload, body)
                assert running.app.scheduler.jobs == {}

        asyncio.run(scenario())

    def test_misspelt_key_is_400_naming_it(self, tmp_path):
        async def scenario():
            async with _RunningApp(tmp_path) as running:
                spec = dict(SPEC)
                spec["intervls"] = spec.pop("intervals")
                status, body = await _request(
                    running.port, "POST", "/v1/jobs", spec
                )
                assert status == 400
                assert "'intervls'" in body["error"]
                assert running.app.scheduler.jobs == {}

        asyncio.run(scenario())

    def test_unknown_routes_and_jobs_404(self, tmp_path):
        async def scenario():
            async with _RunningApp(tmp_path) as running:
                port = running.port
                assert (await _request(port, "GET", "/nope"))[0] == 404
                assert (
                    await _request(port, "GET", "/v1/jobs/j9")
                )[0] == 404
                assert (
                    await _request(port, "GET", "/v1/results/" + "0" * 64)
                )[0] == 404
                assert (
                    await _request(port, "GET", "/v1/results/zz")
                )[0] == 400

        asyncio.run(scenario())

    def test_healthz_and_job_listing(self, tmp_path):
        async def scenario():
            async with _RunningApp(tmp_path) as running:
                port = running.port
                status, health = await _request(port, "GET", "/healthz")
                assert status == 200
                assert health == {"status": "ok", "draining": False}
                _, job = await _request(port, "POST", "/v1/jobs", SPEC)
                status, listing = await _request(port, "GET", "/v1/jobs")
                assert status == 200
                assert job["job_id"] in [
                    entry["job_id"] for entry in listing["jobs"]
                ]

        asyncio.run(scenario())


class TestCancelAndResume:
    def test_delete_cancels_and_resubmission_resumes_bit_identical(
        self, tmp_path, monkeypatch
    ):
        """The acceptance criterion: cancel mid-job, resume on
        resubmission, final result bit-identical to an uninterrupted
        run of the same spec."""

        spec = dict(SPEC)
        spec["intervals"] = 40

        def hold_until_cancelled(run_spec):
            """The first (not resumed) run waits at its sixth unit
            boundary until the DELETE lands, so it cannot finish first."""

            def held_run(kind, params, *, cancel, resume_from, **kwargs):
                if resume_from:
                    return run_spec(kind, params, cancel=cancel,
                                    resume_from=resume_from, **kwargs)
                polls = [0]

                def held_cancel():
                    polls[0] += 1
                    if polls[0] > 5:
                        for _ in range(6000):
                            if cancel():
                                break
                            time.sleep(0.01)
                    return cancel()

                return run_spec(kind, params, cancel=held_cancel,
                                resume_from=resume_from, **kwargs)

            return held_run

        async def interrupted(tmp):
            async with _RunningApp(tmp, workers=1) as running:
                port = running.port
                _, job = await _request(port, "POST", "/v1/jobs", spec)
                # Wait for some progress, then cancel.
                for _ in range(400):
                    _, state = await _request(
                        port, "GET", f"/v1/jobs/{job['job_id']}"
                    )
                    if state.get("progress", {}).get("done", 0) >= 5:
                        break
                    await asyncio.sleep(0.01)
                status, _ = await _request(
                    port, "DELETE", f"/v1/jobs/{job['job_id']}"
                )
                assert status == 202
                events = await _sse_events(port, job["job_id"])
                assert events[-1][0] == "cancelled"
                assert events[-1][1]["stop_reason"] == "cancelled"
                # Partial work checkpointed, nothing stored.
                assert os.listdir(running.app.scheduler.checkpoint_dir)
                status, _ = await _raw_result(port, job["digest"])
                assert status == 404

                # Resubmit: resumes from the checkpoint and completes.
                _, again = await _request(port, "POST", "/v1/jobs", spec)
                assert again["created"]
                events = await _sse_events(port, again["job_id"])
                by_name = dict(events)
                assert events[-1][0] == "done"
                assert by_name["running"]["resumed_from_checkpoint"]
                status, resumed_bytes = await _raw_result(
                    port, job["digest"]
                )
                assert status == 200
                return resumed_bytes

        async def uninterrupted(tmp):
            async with _RunningApp(tmp, workers=1) as running:
                port = running.port
                _, job = await _request(port, "POST", "/v1/jobs", spec)
                events = await _sse_events(port, job["job_id"])
                assert events[-1][0] == "done"
                _, reference_bytes = await _raw_result(port, job["digest"])
                return reference_bytes

        # Job workers fork from this process, so they inherit the hold.
        with monkeypatch.context() as patch:
            patch.setattr(
                scheduler_module, "run_spec",
                hold_until_cancelled(scheduler_module.run_spec),
            )
            resumed = asyncio.run(interrupted(tmp_path / "a"))
        reference = asyncio.run(uninterrupted(tmp_path / "b"))
        assert resumed == reference

    def test_completion_clears_checkpoints_of_any_shard_count(
        self, tmp_path
    ):
        """``shards`` is not in the digest, so a job cancelled at two
        shards and resubmitted serially shares its checkpoint namespace:
        the serial run's completion deletes the 2-shard files too."""
        spec = dict(SPEC, intervals=40)

        async def scenario():
            async with _RunningApp(tmp_path, workers=1) as running:
                port = running.port
                checkpoint_dir = running.app.scheduler.checkpoint_dir
                _, job = await _request(
                    port, "POST", "/v1/jobs", dict(spec, shards=2)
                )
                for _ in range(400):
                    _, state = await _request(
                        port, "GET", f"/v1/jobs/{job['job_id']}"
                    )
                    if state.get("progress", {}).get("done", 0) >= 5:
                        break
                    await asyncio.sleep(0.01)
                await _request(port, "DELETE", f"/v1/jobs/{job['job_id']}")
                events = await _sse_events(port, job["job_id"])
                assert events[-1][0] == "cancelled"
                assert sorted(os.listdir(checkpoint_dir)) == [
                    f"job-{job['digest']}.ck.shard{i}of2.json"
                    for i in range(2)
                ]
                _, again = await _request(
                    port, "POST", "/v1/jobs", dict(spec, shards=1)
                )
                assert again["digest"] == job["digest"]
                events = await _sse_events(port, again["job_id"])
                assert events[-1][0] == "done"
                assert os.listdir(checkpoint_dir) == []

        asyncio.run(scenario())

    def test_delete_after_completion_conflicts(self, tmp_path):
        async def scenario():
            async with _RunningApp(tmp_path, workers=1) as running:
                port = running.port
                _, job = await _request(port, "POST", "/v1/jobs", SPEC)
                await _sse_events(port, job["job_id"])
                status, _ = await _request(
                    port, "DELETE", f"/v1/jobs/{job['job_id']}"
                )
                assert status == 409

        asyncio.run(scenario())


    def test_delete_queued_job_cancels_it_before_it_runs(self, tmp_path):
        first_spec = dict(SPEC, intervals=80)  # holds the only slot

        async def scenario():
            async with _RunningApp(tmp_path, workers=1) as running:
                port = running.port
                _, first = await _request(port, "POST", "/v1/jobs", first_spec)
                _, queued = await _request(port, "POST", "/v1/jobs", SPEC)
                assert queued["status"] == "queued"
                status, cancelled = await _request(
                    port, "DELETE", f"/v1/jobs/{queued['job_id']}"
                )
                assert status == 202 and cancelled["status"] == "cancelled"
                events = await _sse_events(port, queued["job_id"])
                assert [name for name, _ in events] == ["queued", "cancelled"]
                assert events[-1][1]["stop_reason"] == "cancelled"
                assert running.app.scheduler.queue.pending() == 0

                events = await _sse_events(port, first["job_id"])
                assert events[-1][0] == "done"
                _, metrics = await _request(port, "GET", "/metrics")
                assert _units_simulated(metrics) == first_spec["intervals"]
                status, _ = await _raw_result(port, queued["digest"])
                assert status == 404

                # The cancel released the digest: resubmitting runs anew.
                _, again = await _request(port, "POST", "/v1/jobs", SPEC)
                assert again["created"]
                assert again["job_id"] != queued["job_id"]
                events = await _sse_events(port, again["job_id"])
                assert events[-1][0] == "done"

        asyncio.run(scenario())


class TestWorkerDeath:
    def test_killed_worker_fails_its_job_and_frees_the_slot(self, tmp_path):
        async def scenario():
            async with _RunningApp(tmp_path, workers=1) as running:
                port = running.port
                _, doomed = await _request(
                    port, "POST", "/v1/jobs", dict(SPEC, intervals=400)
                )
                _, waiting = await _request(port, "POST", "/v1/jobs", SPEC)
                assert waiting["status"] == "queued"
                job = running.app.scheduler.jobs[doomed["job_id"]]
                for _ in range(400):
                    if job.status == "running":
                        break
                    await asyncio.sleep(0.01)
                os.kill(job.process.pid, signal.SIGKILL)

                events = await _sse_events(port, doomed["job_id"])
                assert events[-1][0] == "failed"
                assert events[-1][1]["error"] == (
                    f"worker exited with code {-signal.SIGKILL} "
                    "without reporting a result"
                )
                # The freed slot runs the queued job to completion.
                events = await _sse_events(port, waiting["job_id"])
                assert events[-1][0] == "done"
                assert not running.app.scheduler.running

        asyncio.run(scenario())


class TestEventDrivenScheduling:
    """Jobs start on submit and on a slot freeing, not on a timer."""

    def test_scheduling_needs_no_wall_clock_wait(self, tmp_path):
        async def scenario():
            os.makedirs(tmp_path / "ck")
            scheduler = Scheduler(
                ResultStore(str(tmp_path / "store")), str(tmp_path / "ck"),
                workers=1,
            )
            stop = asyncio.Event()
            loop_task = asyncio.create_task(scheduler.run(stop))
            await _spin()  # idle: nothing queued
            first, _ = scheduler.submit(SPEC)
            second, _ = scheduler.submit(dict(SPEC, seed=4))
            await _spin()
            assert first.status == "running"
            assert second.status == "queued"

            # The job's end starts the next one in the same callback
            # chain that published its terminal event.
            assert await _until_terminal(scheduler.subscribe(first)) == "done"
            await _spin()
            assert second.status == "running"
            assert await _until_terminal(scheduler.subscribe(second)) == "done"
            stop.set()
            await loop_task

        asyncio.run(scenario())


class TestRaresimJob:
    def test_raresim_spec_runs_and_dedups(self, tmp_path):
        async def scenario():
            async with _RunningApp(tmp_path, workers=1) as running:
                port = running.port
                _, job = await _request(port, "POST", "/v1/jobs", RARE_SPEC)
                events = await _sse_events(port, job["job_id"])
                assert events[-1][0] == "done"
                status, body = await _raw_result(port, job["digest"])
                record = json.loads(body)
                assert record["result"]["trials"] == RARE_SPEC["trials"]
                assert "conditional_ci_low" in record["result"]
                _, again = await _request(port, "POST", "/v1/jobs", RARE_SPEC)
                assert again["cached"]

        asyncio.run(scenario())


class TestDrain:
    def test_drain_cancels_checkpointed_and_rejects_new_submissions(
        self, tmp_path
    ):
        spec = dict(SPEC)
        spec["intervals"] = 400  # long job; drain interrupts it

        async def scenario():
            async with _RunningApp(tmp_path, workers=1) as running:
                app, port = running.app, running.port
                _, job = await _request(port, "POST", "/v1/jobs", spec)
                for _ in range(400):
                    _, state = await _request(
                        port, "GET", f"/v1/jobs/{job['job_id']}"
                    )
                    if state.get("progress", {}).get("done", 0) >= 4:
                        break
                    await asyncio.sleep(0.01)
                drain = asyncio.create_task(app.scheduler.drain(10.0))
                await asyncio.sleep(0.05)
                status, _ = await _request(port, "POST", "/v1/jobs", SPEC)
                assert status == 503  # draining: no new work
                await drain
                state = app.scheduler.jobs[job["job_id"]]
                assert state.status == "cancelled"
                # Checkpoint survives for the post-restart resume...
                assert os.listdir(app.scheduler.checkpoint_dir)
                # ...and the store holds no partial/corrupt entry.
                assert len(app.store) == 0

        asyncio.run(scenario())
