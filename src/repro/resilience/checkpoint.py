"""Crash-safe campaign checkpoints and the wall-clock deadline watchdog.

A multi-hour campaign must survive being killed: every
``--checkpoint-every`` intervals (and on SIGINT or deadline expiry) the
campaign writes a JSON snapshot -- completed-unit counter and running
aggregates -- via the same atomic tmp-file+rename helper the telemetry
exporters use.  ``--resume`` restores the snapshot and continues.
Every campaign kind (Monte-Carlo and scenario intervals, rare-event
trials) re-derives each unit's streams from the seed and the unit's
index, so snapshots carry no RNG state and a resumed campaign replays
the exact random sequence an uninterrupted run would have seen: the
final aggregates are bit-identical (the acceptance property
``tests/reliability/test_resume.py`` pins down).

Checkpoints are validated up front: a missing file, corrupt JSON, a
snapshot from a different campaign kind, or mismatched campaign
parameters all raise :class:`CheckpointError` with a one-line message --
never a traceback from deep inside the interval loop.

:class:`BoundaryLoop` is the one place that protocol runs: every
campaign kind (Monte-Carlo and scenario intervals, rare-event trials)
drives its units through it and supplies only the per-unit step and
its aggregates.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.obs.atomicio import atomic_write_json

#: Format version stamped into every checkpoint file.
CHECKPOINT_VERSION = 4


class CheckpointError(Exception):
    """A checkpoint could not be loaded, validated, or applied."""


class Deadline:
    """Wall-clock watchdog: end a campaign cleanly with partial results.

    :param seconds: budget from *now*; must be positive.
    :param clock: monotonic clock, injectable for tests.

    ``reason`` is the ``stop_reason`` a campaign records when this
    watchdog fires; deadline-compatible adapters (the job-cancellation
    hook in :mod:`repro.parallel.runner`) override it so a truncated
    result says *why* it stopped.
    """

    #: stop_reason recorded by campaign loops when :meth:`expired` fires.
    reason = "deadline"

    def __init__(
        self, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if not seconds > 0.0:
            raise ValueError(f"deadline must be positive, got {seconds!r}")
        self.seconds = seconds
        self._clock = clock
        self._end = clock() + seconds

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self._end - self._clock()

    def expired(self) -> bool:
        """Has the budget run out?"""
        return self.remaining() <= 0.0


class CancelWatch:
    """Deadline-compatible watchdog driven by a cancellation callback.

    Campaign loops already poll ``deadline.expired()`` at every interval
    boundary and record ``deadline.reason`` when it fires; wrapping a
    job-cancellation callback in this adapter reuses that exact
    machinery, so a cancelled job stops cleanly at a trial boundary with
    checkpoints flushed -- same as a deadline expiry, but the truncated
    result says ``stop_reason="cancelled"``.

    :param poll: zero-argument callable; truthy once the job is
        cancelled.  Polled at interval boundaries, so it must be cheap.
    :param deadline: optional wall-clock budget to compose with; when it
        fires first, ``reason`` stays ``"deadline"``.
    """

    def __init__(
        self,
        poll: Callable[[], bool],
        deadline: Optional[Deadline] = None,
    ) -> None:
        self._poll = poll
        self._deadline = deadline
        self._cancelled = False

    @property
    def reason(self) -> str:
        """Why :meth:`expired` fired (valid once it has returned True)."""
        return "cancelled" if self._cancelled else "deadline"

    def remaining(self) -> float:
        """Seconds left on the composed deadline (inf without one)."""
        if self._deadline is None:
            return float("inf")
        return self._deadline.remaining()

    def expired(self) -> bool:
        """True once the callback fires or the composed deadline runs out."""
        if self._cancelled or self._poll():
            self._cancelled = True
            return True
        return self._deadline is not None and self._deadline.expired()


@dataclass
class Checkpointer:
    """Checkpoint schedule + destination for one campaign run.

    :param path: where snapshots are written (atomically).
    :param every: write a snapshot each time this many intervals/trials
        complete; ``0`` means only on interrupt, deadline expiry, or
        completion.
    :param resume: a payload previously returned by
        :func:`load_checkpoint` to continue from, or ``None`` for a
        fresh run.
    """

    path: str
    every: int = 0
    resume: Optional[Dict[str, object]] = None
    writes: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("checkpoint path must be non-empty")
        if self.every < 0:
            raise ValueError("checkpoint interval must be >= 0")

    def due(self, completed: int) -> bool:
        """Is a periodic snapshot owed after ``completed`` units?"""
        return self.every > 0 and completed > 0 and completed % self.every == 0

    def save(self, payload: Dict[str, object]) -> None:
        """Write a snapshot atomically."""
        atomic_write_json(self.path, payload)
        self.writes += 1


def job_checkpoint_path(directory: str, digest: str) -> str:
    """Checkpoint path for a serve job, keyed by its content digest.

    Jobs are deduplicated by digest, so the checkpoint must be too: a
    resubmitted spec resumes the partial work of its earlier submission
    regardless of job id, tenant, or priority.
    """
    if not digest or any(ch in digest for ch in "/\\."):
        raise ValueError(f"invalid job digest {digest!r}")
    return os.path.join(directory, f"job-{digest}.ck.json")


def build_payload(
    kind: str,
    config: Dict[str, object],
    completed: int,
    aggregates: Dict[str, object],
) -> Dict[str, object]:
    """Assemble a checkpoint payload in the canonical shape."""
    return {
        "version": CHECKPOINT_VERSION,
        "kind": kind,
        "config": dict(config),
        "completed": completed,
        "aggregates": dict(aggregates),
    }


def load_checkpoint(path: str, kind: str) -> Dict[str, object]:
    """Load and structurally validate a checkpoint file.

    :raises CheckpointError: on a missing/unreadable file, corrupt JSON,
        wrong format version, or a snapshot of a different campaign kind.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {error}")
    except json.JSONDecodeError as error:
        raise CheckpointError(f"corrupt checkpoint {path!r}: {error}")
    if not isinstance(payload, dict):
        raise CheckpointError(f"corrupt checkpoint {path!r}: not a JSON object")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has format version {version!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    if payload.get("kind") != kind:
        raise CheckpointError(
            f"checkpoint {path!r} is a {payload.get('kind')!r} snapshot, "
            f"not {kind!r}"
        )
    for key in ("config", "completed", "aggregates"):
        if key not in payload:
            raise CheckpointError(f"checkpoint {path!r} is missing {key!r}")
    return payload


def require_config_match(
    payload: Dict[str, object], config: Dict[str, object]
) -> None:
    """Refuse to resume under different campaign parameters.

    :raises CheckpointError: naming the first mismatched key.
    """
    saved = payload.get("config")
    if not isinstance(saved, dict):
        raise CheckpointError("checkpoint config block is corrupt")
    for key in sorted(set(saved) | set(config)):
        if saved.get(key) != config.get(key):
            raise CheckpointError(
                f"checkpoint was taken with {key}={saved.get(key)!r} but this "
                f"run uses {key}={config.get(key)!r}; refusing to resume"
            )


class BoundaryLoop:
    """The unit-boundary protocol shared by every campaign loop.

    A campaign runs independent units (Monte-Carlo or scenario
    intervals, rare-event trials); between two units its whole state is
    its aggregates.  The loop owns everything that happens at those
    boundaries:

    * resume -- on construction a ``checkpointer.resume`` payload is
      validated against ``config`` and applied through ``restore``, so
      :attr:`start` is known before the caller builds anything that
      depends on the restored state;
    * a snapshot after every unit, flushed when ``checkpointer.due``
      and once more at the end, each flush in a ``checkpoint_write``
      span on ``tracer`` (``checkpointer.writes`` counts them);
    * deadline and cancellation stops, polled after each unit;
    * ``KeyboardInterrupt`` rollback to the last boundary snapshot;
    * ``progress.update()`` per unit that does not end the run, and
      ``progress.finish()`` after the final flush.

    ``aggregates()`` returns the JSON-ready block a snapshot carries;
    ``restore`` applies it on resume and on rollback.
    """

    def __init__(self, kind: str, config: Dict[str, object],
                 checkpointer: Optional[Checkpointer], *, aggregates,
                 restore, tracer, deadline=None, progress) -> None:
        self._kind = kind
        self._config = config
        self._checkpointer = checkpointer
        self._aggregates = aggregates
        self._restore = restore
        self._tracer = tracer
        self._deadline = deadline
        self._progress = progress
        #: Units already completed by the run being resumed (0 when fresh).
        self.start = 0
        resume = checkpointer.resume if checkpointer is not None else None
        if resume is not None:
            require_config_match(resume, config)
            self.start = int(resume["completed"])
            restore(resume["aggregates"])

    def _snapshot(self, completed: int) -> Dict[str, object]:
        return build_payload(
            self._kind, self._config, completed, self._aggregates()
        )

    def _flush(self, snapshot: Dict[str, object]) -> None:
        path = self._checkpointer.path
        with self._tracer.span("checkpoint_write", path=path):
            self._checkpointer.save(snapshot)

    def run(self, units: int, step: Callable[[int], None],
            span) -> Tuple[int, str]:
        """Run units ``[start, units)`` inside ``span``.

        ``step(unit)`` performs one unit and updates the caller's
        aggregates.  Returns ``(completed, stop_reason)``, where
        ``stop_reason`` is ``""`` when every unit ran.
        """
        checkpointer, deadline = self._checkpointer, self._deadline
        completed = self.start
        stop_reason = ""
        snapshot = self._snapshot(completed)
        with span:
            try:
                for unit in range(self.start, units):
                    step(unit)
                    completed += 1
                    snapshot = self._snapshot(completed)
                    if checkpointer is not None and checkpointer.due(completed):
                        self._flush(snapshot)
                    if deadline is not None and deadline.expired():
                        stop_reason = deadline.reason
                        break
                    self._progress.update()
            except KeyboardInterrupt:
                # Completed units are not discarded: roll back to the
                # last boundary and return the partial aggregates.
                stop_reason = "interrupted"
                completed = int(snapshot["completed"])
                self._restore(snapshot["aggregates"])
        if checkpointer is not None:
            self._flush(snapshot)
        self._progress.finish()
        return completed, stop_reason

