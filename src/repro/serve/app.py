"""The campaign service: a stdlib-only asyncio HTTP/1.1 front end.

Routes (all JSON; connections are one-shot, ``Connection: close``):

* ``POST /v1/jobs`` -- submit a campaign/raresim/scenario spec (bare or
  ``{"spec": ..., "tenant": ..., "priority": ...}`` envelope).  Returns
  the job record; a content-store hit comes back ``cached: true`` with
  zero new simulation scheduled, and a duplicate of an in-flight job
  joins it instead of re-running.
* ``GET /v1/jobs`` -- all jobs plus the queue snapshot.
* ``GET /v1/jobs/<id>`` -- one job record.
* ``DELETE /v1/jobs/<id>`` -- cancel a running or queued job.
* ``GET /v1/jobs/<id>/events`` -- Server-Sent Events: the job's event
  history replayed, then live ``progress``/``metrics`` frames until a
  terminal ``done``/``failed``/``cancelled`` event.
* ``GET /v1/results/<digest>`` -- the stored result record, byte-for-
  byte as written (the dedup acceptance test compares these bodies).
* ``GET /healthz``, ``GET /metrics`` -- liveness and the server's
  :class:`MetricsRegistry` snapshot.

SIGTERM/SIGINT trigger a graceful drain: stop claiming, cancel running
jobs (they stop at a trial boundary and flush checkpoints), then exit.
Because the result store writes atomically and checkpoints survive, a
killed server restarted on the same directories resumes interrupted
jobs on resubmission and never serves a torn result.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
from typing import Dict, Optional, Tuple

from repro.kernels import warm_line_tables
from repro.obs import MetricsRegistry
from repro.obs.atomicio import atomic_write_text
from repro.serve.scheduler import TERMINAL_STATES, Job, Scheduler
from repro.serve.specs import SpecError
from repro.serve.sse import SSE_HEADERS, format_comment, format_event
from repro.serve.store import ResultStore

_MAX_BODY = 1 << 20  # 1 MiB of JSON is far beyond any legitimate spec
_SSE_KEEPALIVE_S = 15.0


class ServeApp:
    """Wires the scheduler to an asyncio socket server."""

    def __init__(
        self,
        store_dir: str,
        checkpoint_dir: str,
        workers: int = 2,
        checkpoint_every: int = 25,
        drain_grace_s: float = 10.0,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.store = ResultStore(store_dir)
        self.scheduler = Scheduler(
            store=self.store,
            checkpoint_dir=checkpoint_dir,
            workers=workers,
            checkpoint_every=checkpoint_every,
            metrics=self.metrics,
        )
        self.drain_grace_s = drain_grace_s
        self.stop_event = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle ----------------------------------------------------------------

    async def start(self, host: str, port: int) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        os.makedirs(self.store.root, exist_ok=True)
        os.makedirs(self.scheduler.checkpoint_dir, exist_ok=True)
        # Build the line tables once, so every forked job worker
        # inherits them instead of rebuilding its own.
        warm_line_tables()
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def run(
        self,
        host: str,
        port: int,
        ready_file: str = "",
        install_signal_handlers: bool = True,
    ) -> None:
        """Serve until SIGTERM/SIGINT, then drain and exit."""
        bound_host, bound_port = await self.start(host, port)
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self.stop_event.set)
        if ready_file:
            parent = os.path.dirname(ready_file)
            if parent:
                os.makedirs(parent, exist_ok=True)
            atomic_write_text(
                ready_file,
                json.dumps({"host": bound_host, "port": bound_port}) + "\n",
            )
        scheduler_task = asyncio.create_task(
            self.scheduler.run(self.stop_event)
        )
        await self.stop_event.wait()
        # Drain: no new claims, cancel in-flight, wait for checkpoints.
        assert self._server is not None
        self._server.close()
        await self.scheduler.drain(self.drain_grace_s)
        await scheduler_task
        await self._server.wait_closed()

    # -- HTTP plumbing ------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle_request(reader, writer)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request/-response
        finally:
            # Forked job workers inherit this socket, so closing our
            # descriptor alone would not end the response: send FIN.
            with contextlib.suppress(OSError):
                writer.write_eof()
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return
        parts = request_line.split()
        if len(parts) != 3:
            await self._send_json(writer, 400, {"error": "malformed request"})
            return
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY:
            await self._send_json(writer, 413, {"error": "body too large"})
            return
        if length:
            body = await reader.readexactly(length)
        await self._route(writer, method, target.split("?", 1)[0], body)

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        headers: Dict[str, str],
    ) -> None:
        reason = {
            200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            409: "Conflict", 413: "Payload Too Large",
            503: "Service Unavailable",
        }.get(status, "OK")
        lines = [f"HTTP/1.1 {status} {reason}"]
        merged = {"Connection": "close", "Content-Length": str(len(body))}
        merged.update(headers)
        for name, value in merged.items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: object
    ) -> None:
        body = (
            json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"
        ).encode("utf-8")
        await self._send(
            writer, status, body,
            {"Content-Type": "application/json; charset=utf-8"},
        )

    # -- routing ------------------------------------------------------------------

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: bytes,
    ) -> None:
        if path == "/healthz" and method == "GET":
            await self._send_json(
                writer, 200,
                {"status": "ok", "draining": self.scheduler.draining},
            )
            return
        if path == "/metrics" and method == "GET":
            from repro.obs.export import metrics_snapshot

            await self._send_json(
                writer, 200, {"series": metrics_snapshot(self.metrics)}
            )
            return
        if path == "/v1/jobs" and method == "POST":
            await self._submit(writer, body)
            return
        if path == "/v1/jobs" and method == "GET":
            await self._send_json(
                writer, 200,
                {
                    "jobs": [
                        job.as_dict()
                        for job in self.scheduler.jobs.values()
                    ],
                    "queue": self.scheduler.queue.snapshot(),
                },
            )
            return
        if path.startswith("/v1/jobs/"):
            await self._job_route(writer, method, path)
            return
        if path.startswith("/v1/results/") and method == "GET":
            digest = path[len("/v1/results/"):]
            try:
                raw = self.store.get_bytes(digest)
            except ValueError:
                await self._send_json(
                    writer, 400, {"error": f"invalid digest {digest!r}"}
                )
                return
            if raw is None:
                await self._send_json(
                    writer, 404, {"error": "no result for digest"}
                )
                return
            await self._send(
                writer, 200, raw,
                {"Content-Type": "application/json; charset=utf-8"},
            )
            return
        await self._send_json(writer, 404, {"error": f"no route {path}"})

    async def _submit(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        if self.scheduler.draining:
            await self._send_json(writer, 503, {"error": "draining"})
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            await self._send_json(
                writer, 400, {"error": f"invalid JSON body: {error}"}
            )
            return
        try:
            job, created = self.scheduler.submit(payload)
        except SpecError as error:
            await self._send_json(writer, 400, {"error": str(error)})
            return
        response = job.as_dict()
        response["created"] = created
        await self._send_json(writer, 202 if created else 200, response)

    async def _job_route(
        self, writer: asyncio.StreamWriter, method: str, path: str
    ) -> None:
        rest = path[len("/v1/jobs/"):]
        job_id, _, tail = rest.partition("/")
        job = self.scheduler.jobs.get(job_id)
        if job is None:
            await self._send_json(
                writer, 404, {"error": f"no job {job_id!r}"}
            )
            return
        if not tail and method == "GET":
            await self._send_json(writer, 200, job.as_dict())
            return
        if not tail and method == "DELETE":
            if job.status in TERMINAL_STATES:
                await self._send_json(writer, 409, job.as_dict())
                return
            self.scheduler.cancel(job)
            await self._send_json(writer, 202, job.as_dict())
            return
        if tail == "events" and method == "GET":
            await self._stream_events(writer, job)
            return
        await self._send_json(writer, 405, {"error": "method not allowed"})

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job: Job
    ) -> None:
        lines = ["HTTP/1.1 200 OK"]
        for name, value in SSE_HEADERS.items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await writer.drain()
        subscriber = self.scheduler.subscribe(job)
        try:
            while True:
                try:
                    event, data = await asyncio.wait_for(
                        subscriber.get(), timeout=_SSE_KEEPALIVE_S
                    )
                except asyncio.TimeoutError:
                    writer.write(format_comment())
                    await writer.drain()
                    continue
                writer.write(format_event(event, data))
                await writer.drain()
                if event in TERMINAL_STATES:
                    return
        finally:
            self.scheduler.unsubscribe(job, subscriber)
