"""The serve scheduler: bounded worker pool, dedup, checkpoints, drain.

All scheduling state lives on the event loop, and nothing polls: a
submission and the end of a job each schedule a slot fill, and each job
subprocess writes to its own pipe, whose read end wakes the loop when a
message arrives.  The lifecycle:

* ``submit`` validates the spec, computes its content digest, and
  short-circuits: a store hit returns the finished job immediately
  (``cached=True``, zero trials simulated); an in-flight job with the
  same digest is joined rather than duplicated; otherwise the job
  enters the :class:`FairShareQueue`.  Cancelling a queued job takes
  it out of the queue; it never runs.
* Slot fills claim jobs while worker slots are free and start each as a
  **non-daemon** subprocess, which runs the job's normalized spec
  through :func:`repro.parallel.runner.run_spec` as the CLI does (a
  sharded run forks its own shard workers, and daemonic processes
  cannot have children).  The parent keeps only the read end of the
  job's pipe, so end-of-file means the worker and any shard children
  are gone: without a terminal message first, the job fails.
  Progress messages feed a per-job :class:`~repro.obs.ProgressReporter`
  whose snapshots become SSE events.
* Checkpoints: a job writes one file, ``job-<digest>.ck.json``,
  whatever its shard count (``shards`` is not part of the digest, and a
  checkpoint resumes at any shard count).  A job resumes that file
  only when :func:`~repro.resilience.checkpoint.load_checkpoint`
  accepts it; a file it refuses (another format version, say) is
  overwritten by a fresh run instead of failing every resubmission.
* Completion: an untruncated result is filed in the content-addressed
  store and the digest's checkpoint is deleted.  A truncated result
  (cancel/drain) keeps its checkpoint, so resubmitting the same spec
  after a restart resumes from the boundary instead of starting over
  -- and, because checkpointed campaigns are bit-identically
  resumable, the final result equals an uninterrupted run.
* Terminal jobs past :data:`MAX_TERMINAL_JOBS` leave the job table,
  oldest first, so memory does not grow with requests; their results
  stay in the store and a resubmission is still a store hit.
* ``drain`` (SIGTERM) stops claiming, flips every running job's cancel
  event, and waits up to its grace for the workers to stop at a trial
  boundary and flush checkpoints.
"""

from __future__ import annotations

import asyncio
import io
import multiprocessing
import os
import signal
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs import MetricsRegistry, ProgressReporter, Telemetry
from repro.obs.export import metrics_snapshot
from repro.parallel.runner import SNAPSHOT_KINDS, BatchingProgress, run_spec
from repro.resilience.checkpoint import (
    CheckpointError,
    job_checkpoint_path,
    load_checkpoint,
)
from repro.serve.queue import FairShareQueue, QueuedJob
from repro.serve.specs import RESULT_VERSION, JobSpec, parse_submission
from repro.serve.store import ResultStore

#: Minimum spacing of per-job "progress" SSE events.
_PROGRESS_EVENT_S = 0.2

_START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)

#: Job states; "done", "failed", and "cancelled" are terminal.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Terminal jobs kept in ``Scheduler.jobs``, oldest evicted first.  A
#: finished result outlives its job record: it stays in the store.
MAX_TERMINAL_JOBS = 1024


def _raise_interrupt(signum, frame):  # pragma: no cover - signal path
    raise KeyboardInterrupt()


def _job_worker(
    spec: JobSpec,
    checkpoint_path: str,
    resume_from: str,
    checkpoint_every: int,
    conn,
    cancel_event,
) -> None:
    """Subprocess entry point: run one job, send messages up ``conn``.

    SIGTERM is mapped to :class:`KeyboardInterrupt` so a drained or
    directly-terminated worker stops at a trial boundary with its
    checkpoint flushed, exactly like an operator Ctrl-C.
    """
    signal.signal(signal.SIGTERM, _raise_interrupt)

    def send(kind: str, units: int) -> None:
        conn.send((kind, units))

    progress = BatchingProgress(send, batch=spec.total_units // 200)
    telemetry = Telemetry.create()
    try:
        result = run_spec(
            spec.kind, spec.params, shards=spec.shards,
            telemetry=telemetry, progress=progress,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every, resume_from=resume_from,
            cancel=cancel_event.is_set,
        )
        progress.finish()
        message: Tuple[object, ...] = (
            "result", result.as_dict(), metrics_snapshot(telemetry.metrics)
        )
    except KeyboardInterrupt:
        # Interrupted outside the campaign loop (startup/teardown); the
        # checkpoint, if any, is from the last boundary.
        message = ("interrupted", "")
    except BaseException:
        message = ("error", traceback.format_exc())
    # A late SIGINT/SIGTERM must not tear the last message mid-write:
    # the server would read the rest of the pipe as garbage.
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
    conn.send(message)


@dataclass
class Job:
    """Scheduler-side state of one submission."""

    job_id: str
    spec: JobSpec
    digest: str
    tenant: str
    priority: int
    status: str = "queued"
    cached: bool = False
    error: str = ""
    stop_reason: str = ""
    metrics: List[Dict] = field(default_factory=list)
    history: List[Tuple[str, Dict]] = field(default_factory=list)
    subscribers: List[asyncio.Queue] = field(default_factory=list)
    progress: Optional[ProgressReporter] = None
    process: Optional[multiprocessing.process.BaseProcess] = None
    conn: Optional[Connection] = None
    cancel_event: object = None
    _last_progress_emit: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "job_id": self.job_id,
            "digest": self.digest,
            "kind": self.spec.kind,
            "tenant": self.tenant,
            "priority": self.priority,
            "status": self.status,
            "cached": self.cached,
        }
        if self.progress is not None:
            payload["progress"] = self.progress.snapshot()
        if self.error:
            payload["error"] = self.error
        if self.stop_reason:
            payload["stop_reason"] = self.stop_reason
        return payload


class Scheduler:
    """Owns the queue, the worker pool, and every job's lifecycle."""

    def __init__(
        self,
        store: ResultStore,
        checkpoint_dir: str,
        workers: int = 2,
        checkpoint_every: int = 25,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store = store
        self.checkpoint_dir = checkpoint_dir
        self.workers = workers
        self.checkpoint_every = checkpoint_every
        self.queue = FairShareQueue()
        self.jobs: Dict[str, Job] = {}
        self.running: Dict[str, Job] = {}
        self.active_by_digest: Dict[str, str] = {}
        self._terminal: Deque[str] = deque()
        self.draining = False
        self._counter = 0
        self._context = multiprocessing.get_context(_START_METHOD)
        #: Bound by :meth:`run`: the loop that slot fills and pipe reads
        #: run on, and an event set while no job runs (:meth:`drain`
        #: waits on it).  Python 3.9 binds an Event to a loop when it
        #: is created, so neither exists before the loop does.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._idle: Optional[asyncio.Event] = None
        registry = metrics if metrics is not None else MetricsRegistry()
        self.metrics = registry
        self._m_submitted = registry.counter(
            "serve_jobs_submitted_total", "job submissions accepted",
            labels=("kind",),
        )
        self._m_store_hits = registry.counter(
            "serve_store_hits_total",
            "submissions answered from the content-addressed store",
        )
        self._m_completed = registry.counter(
            "serve_jobs_completed_total", "jobs reaching a terminal state",
            labels=("status",),
        )
        self._m_units = registry.counter(
            "serve_units_simulated_total",
            "intervals/trials actually simulated (cache hits add zero)",
        )
        self._m_running = registry.gauge(
            "serve_jobs_running", "jobs currently executing"
        )
        self._m_queued = registry.gauge(
            "serve_jobs_queued", "jobs waiting for a worker slot"
        )

    # -- submission ---------------------------------------------------------------

    def submit(self, payload: object) -> Tuple[Job, bool]:
        """Accept a submission; returns ``(job, created)``.

        ``created`` is False when the submission was answered by the
        store (cache hit) or joined to an in-flight job with the same
        digest -- in both cases no new simulation work was enqueued.
        """
        spec, tenant, priority = parse_submission(payload)
        digest = spec.digest()
        self._m_submitted.labels(kind=spec.kind).inc()
        active_id = self.active_by_digest.get(digest)
        if active_id is not None:
            return self.jobs[active_id], False
        if self.store.has(digest):
            self._m_store_hits.inc()
            job = self._new_job(spec, digest, tenant, priority)
            job.status = "done"
            job.cached = True
            self._publish(job, "done", {"digest": digest, "cached": True})
            self._retire(job)
            return job, False
        job = self._new_job(spec, digest, tenant, priority)
        self.active_by_digest[digest] = job.job_id
        self.queue.push(
            QueuedJob(
                job_id=job.job_id, digest=digest, tenant=tenant,
                priority=priority, payload=spec,
            )
        )
        self._publish(job, "queued", {"digest": digest})
        self._m_queued.set(float(self.queue.pending()))
        self._wake()
        return job, True

    def _new_job(
        self, spec: JobSpec, digest: str, tenant: str, priority: int
    ) -> Job:
        self._counter += 1
        job = Job(
            job_id=f"j{self._counter:06d}", spec=spec, digest=digest,
            tenant=tenant, priority=priority,
        )
        self.jobs[job.job_id] = job
        return job

    def _retire(self, job: Job) -> None:
        """Record a terminal job; evict the oldest past the cap.

        Only terminal jobs are ever evicted: queued and running ones
        stay reachable through ``active_by_digest`` and ``running``.
        """
        self._terminal.append(job.job_id)
        while len(self._terminal) > MAX_TERMINAL_JOBS:
            self.jobs.pop(self._terminal.popleft(), None)

    # -- events -------------------------------------------------------------------

    def _publish(self, job: Job, event: str, data: Dict) -> None:
        job.history.append((event, data))
        for subscriber in job.subscribers:
            subscriber.put_nowait((event, data))

    def subscribe(self, job: Job) -> asyncio.Queue:
        """An event queue pre-loaded with the job's history."""
        subscriber: asyncio.Queue = asyncio.Queue()
        for event, data in job.history:
            subscriber.put_nowait((event, data))
        job.subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, job: Job, subscriber: asyncio.Queue) -> None:
        if subscriber in job.subscribers:
            job.subscribers.remove(subscriber)

    # -- worker pool --------------------------------------------------------------

    def _start_job(self, job: Job) -> None:
        base = job_checkpoint_path(self.checkpoint_dir, job.digest)
        try:
            load_checkpoint(base, SNAPSHOT_KINDS[job.spec.kind])
            resume = base
        except CheckpointError:
            # No file, or one this build refuses: the run starts fresh
            # and its first flush replaces it.
            resume = ""
        reader, writer = self._context.Pipe(duplex=False)
        job.cancel_event = self._context.Event()
        # Non-daemon: sharded jobs fork their own shard workers.
        job.process = self._context.Process(
            target=_job_worker,
            args=(
                job.spec, base, resume, self.checkpoint_every, writer,
                job.cancel_event,
            ),
            daemon=False,
        )
        job.progress = ProgressReporter(
            total=job.spec.total_units, label=job.job_id,
            stream=io.StringIO(), min_interval_s=float("inf"),
        )
        job.status = "running"
        job.process.start()
        # Only the worker and its shard children hold the write end now,
        # so end-of-file on the read end means they have all exited.
        writer.close()
        job.conn = reader
        assert self._loop is not None and self._idle is not None
        self._loop.add_reader(reader.fileno(), self._pump, job)
        self.running[job.job_id] = job
        self._idle.clear()
        self._m_running.set(float(len(self.running)))
        self._publish(job, "running", {"resumed_from_checkpoint": bool(resume)})

    def cancel(self, job: Job) -> bool:
        """Cancel a queued job now, or ask a running one to stop.

        Returns False for a terminal job.  A queued job leaves the queue
        and ends ``cancelled`` without running; a running one stops at
        its next trial boundary with its checkpoint flushed.
        """
        if job.status == "queued":
            self.queue.discard(job.job_id)
            self._m_queued.set(float(self.queue.pending()))
            self._conclude(job, "cancelled", stop_reason="cancelled")
            return True
        if job.status == "running" and job.cancel_event is not None:
            job.cancel_event.set()
            return True
        return False

    def request_drain(self) -> None:
        """Stop claiming new jobs and cancel the running ones."""
        self.draining = True
        for job in list(self.running.values()):
            self.cancel(job)

    # -- event handlers -----------------------------------------------------------

    async def run(self, stop: asyncio.Event) -> None:
        """Bind to the running loop, start queued jobs, wait for ``stop``.

        Nothing here polls: ``submit`` and each job's end schedule slot
        fills, and each worker's pipe wakes :meth:`_pump`.
        """
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        self._fill_slots()
        await stop.wait()

    def _wake(self) -> None:
        """Schedule a slot fill, once :meth:`run` has bound a loop."""
        if self._loop is not None:
            self._loop.call_soon(self._fill_slots)

    def _fill_slots(self) -> None:
        """Start queued jobs while worker slots are free."""
        while not self.draining and len(self.running) < self.workers:
            claimed = self.queue.claim("local")
            if claimed is None:
                break
            self._start_job(self.jobs[claimed.job_id])
        self._m_queued.set(float(self.queue.pending()))

    def _pump(self, job: Job) -> None:
        """Handle one message from a job's pipe, or the worker's exit.

        Pipe writes are synchronous, so end-of-file arrives only after
        every message the worker sent: a worker that exits without a
        terminal message died.
        """
        assert job.conn is not None and job.process is not None
        try:
            message = job.conn.recv()
        except EOFError:
            job.process.join(timeout=5.0)
            job.error = (
                f"worker exited with code {job.process.exitcode} "
                "without reporting a result"
            )
            self._conclude(job, "failed")
            return
        kind = message[0]
        if kind == "progress":
            assert job.progress is not None
            job.progress.update(advance=message[1])
            self._m_units.inc(message[1])
            self._emit_progress(job)
        elif kind == "resumed":
            assert job.progress is not None
            job.progress.note_resumed(message[1])
        elif kind == "result":
            self._finish(job, message[1], message[2])
        elif kind == "interrupted":
            self._conclude(job, "cancelled", stop_reason="interrupted")
        elif kind == "error":
            job.error = message[1]
            self._conclude(job, "failed")

    def _emit_progress(self, job: Job) -> None:
        assert job.progress is not None
        now = job.progress._clock()
        if now - job._last_progress_emit < _PROGRESS_EVENT_S:
            return
        job._last_progress_emit = now
        self._publish(job, "progress", job.progress.snapshot(now))

    def _finish(self, job: Job, result: Dict, metrics: List[Dict]) -> None:
        job.metrics = metrics
        job.stop_reason = str(result.get("stop_reason", ""))
        if result.get("truncated"):
            # Cancelled or drained mid-run: keep the checkpoints so a
            # resubmission resumes at the boundary, and do NOT store the
            # partial result under the digest of the full campaign.
            self._conclude(job, "cancelled", stop_reason=job.stop_reason)
            return
        record = {
            "digest": job.digest,
            "kind": job.spec.kind,
            "params": job.spec.params,
            "version": RESULT_VERSION,
            "result": result,
        }
        self.store.put(job.digest, record)
        try:
            os.remove(job_checkpoint_path(self.checkpoint_dir, job.digest))
        except FileNotFoundError:
            pass
        self._publish(job, "metrics", {"series": metrics})
        self._conclude(job, "done")

    def _conclude(
        self, job: Job, status: str, stop_reason: str = ""
    ) -> None:
        if stop_reason:
            job.stop_reason = stop_reason
        job.status = status
        self.queue.complete(job.job_id)
        self.running.pop(job.job_id, None)
        self.active_by_digest.pop(job.digest, None)
        self._m_running.set(float(len(self.running)))
        self._m_completed.labels(status=status).inc()
        if job.conn is not None:
            assert self._loop is not None
            self._loop.remove_reader(job.conn.fileno())
            job.conn.close()
        if job.process is not None:
            job.process.join(timeout=5.0)
        data: Dict[str, object] = {"digest": job.digest, "cached": job.cached}
        if job.stop_reason:
            data["stop_reason"] = job.stop_reason
        if job.error:
            data["error"] = job.error.strip().splitlines()[-1]
        self._publish(job, status, data)
        self._retire(job)
        if not self.running and self._idle is not None:
            self._idle.set()
        self._wake()

    # -- drain --------------------------------------------------------------------

    async def drain(self, grace_s: float = 10.0) -> None:
        """Cancel running jobs and wait for checkpointed shutdown."""
        self.request_drain()
        if await self._wait_idle(grace_s):
            return
        for job in list(self.running.values()):
            # Out of grace: SIGTERM maps to KeyboardInterrupt in the
            # worker, which still flushes at the next boundary.
            if job.process is not None and job.process.is_alive():
                job.process.terminate()
        await self._wait_idle(grace_s)

    async def _wait_idle(self, timeout_s: float) -> bool:
        """Wait up to ``timeout_s`` for no job to run; True if none does."""
        if self.running:
            assert self._idle is not None  # jobs start only after run()
            try:
                await asyncio.wait_for(self._idle.wait(), timeout_s)
            except asyncio.TimeoutError:
                pass
        return not self.running
