"""Crash-safe campaign checkpoints and the wall-clock deadline watchdog.

A multi-hour campaign must survive being killed: every
``--checkpoint-every`` intervals (and on SIGINT or deadline expiry) the
campaign writes a JSON snapshot via the same atomic tmp-file+rename
helper the telemetry exporters use.  ``--resume`` restores the snapshot
and continues.  A run writes one file, whatever its shard count:

* ``config`` -- the campaign fingerprint, without the slice a run or
  shard covers (its first unit and its length);
* ``done`` -- the ascending, disjoint global unit ranges ``[a, b)``
  already completed;
* ``aggregates`` -- the running tallies of exactly those units.

Every campaign kind (Monte-Carlo and scenario intervals, rare-event
trials) derives unit ``u`` from the seed and ``u`` alone, so snapshots
carry no RNG state, and a resumed campaign -- at any shard count --
runs the units outside ``done`` exactly as an uninterrupted run would
have: the final aggregates are bit-identical (the acceptance property
``tests/reliability/test_resume.py`` pins down).

Checkpoints are outside input and are validated up front: a missing
file, corrupt JSON, another format version, a snapshot from a different
campaign kind, mismatched campaign parameters, or a malformed
``done``/``aggregates`` block all raise :class:`CheckpointError` with a
one-line message -- never a traceback from deep inside the unit loop.

:class:`BoundaryLoop` is the one place that protocol runs: every
campaign kind drives its units through it and supplies only the
per-unit step and its aggregates.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.atomicio import atomic_write_json

#: Format version stamped into every checkpoint file.
CHECKPOINT_VERSION = 5


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

    def finish(self, payload: Dict[str, object]) -> None:
        """Write the run's last snapshot (a shard hands it to its parent)."""
        self.save(payload)


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
    done: Sequence[Tuple[int, int]],
    aggregates: Dict[str, object],
) -> Dict[str, object]:
    """Assemble a checkpoint payload in the canonical shape."""
    return {
        "version": CHECKPOINT_VERSION,
        "kind": kind,
        "config": dict(config),
        "done": [[start, end] for start, end in done],
        "aggregates": dict(aggregates),
    }


def load_checkpoint(path: str, kind: str) -> Dict[str, object]:
    """Load and structurally validate a checkpoint file.

    :raises CheckpointError: on a missing/unreadable file, corrupt JSON,
        wrong format version, a snapshot of a different campaign kind,
        or a malformed ``config``, ``done`` or ``aggregates`` block.
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
    for key in ("config", "aggregates"):
        if not isinstance(payload.get(key), dict):
            raise CheckpointError(
                f"checkpoint {path!r} is missing {key!r} as a JSON object"
            )
    done_ranges(payload)
    return payload


def done_ranges(
    payload: Dict[str, object], units: Optional[int] = None
) -> List[Tuple[int, int]]:
    """The payload's completed ranges, validated as outside input.

    ``done`` must be a list of ``[a, b]`` integer pairs, ascending and
    disjoint, with ``0 <= a < b``, and ``b <= units`` when the run's
    unit count is given.

    :raises CheckpointError: naming ``done`` and the offending value.
    """
    done = payload.get("done")
    previous = 0
    for pair in done if isinstance(done, list) else [done]:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(bound) is int for bound in pair)
                and previous <= pair[0] < pair[1]):
            raise CheckpointError(
                f"checkpoint 'done' must list ascending, disjoint [start, "
                f"end] integer pairs with 0 <= start < end; got {pair!r} in "
                f"{done!r}"
            )
        previous = pair[1]
    if units is not None and previous > units:
        raise CheckpointError(
            f"checkpoint 'done' reaches unit {previous} but this run has "
            f"{units} units; refusing to resume"
        )
    return [(start, end) for start, end in done]


def merge_ranges(ranges: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Ascending, disjoint cover of the non-empty ``ranges`` (touching
    ones coalesce)."""
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(pair for pair in ranges if pair[0] < pair[1]):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _sum(blocks: Sequence[Dict[str, object]]) -> Dict[str, object]:
    total: Dict[str, object] = {}
    for block in blocks:
        for key, value in block.items():
            total[key] = (_sum([total.get(key, {}), value])
                          if isinstance(value, dict) else total.get(key, 0) + value)
    return total


def merge_payloads(
    payloads: Sequence[Optional[Dict[str, object]]]
) -> Dict[str, object]:
    """One payload for the union of the payloads' units (``None`` parts,
    not yet reported, are skipped).

    Every kind's aggregates are counts (nested dicts of them), so the
    union of disjoint unit sets carries their sum.  ``kind`` and
    ``config`` are the first part's; the runner merges snapshots of one
    campaign, whose fingerprints agree.
    """
    parts = [payload for payload in payloads if payload is not None]
    done = merge_ranges([pair for payload in parts for pair in payload["done"]])
    aggregates = _sum([payload["aggregates"] for payload in parts])
    return build_payload(parts[0]["kind"], parts[0]["config"], done, aggregates)


def payload_slice(payload: Dict[str, object], start: int, end: int,
                  aggregates: bool) -> Dict[str, object]:
    """``payload`` cut to units ``[start, end)``: its done ranges there,
    and all its aggregates or none (one slice of a run carries them)."""
    return dict(
        payload, aggregates=payload["aggregates"] if aggregates else {},
        done=[[max(a, start), min(b, end)]
              for a, b in payload["done"] if a < end and b > start],
    )


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


def _todo(first: int, end: int,
          done: Sequence[Tuple[int, int]]) -> Iterator[int]:
    """Units ``[first, end)`` outside the ascending ranges ``done``."""
    # The gaps are [first, a1), [b1, a2), ..., [bn, end), clipped.
    edges = [first, *(bound for pair in done for bound in pair), end]
    return (unit for start, stop in zip(edges[::2], edges[1::2])
            for unit in range(max(start, first), min(stop, end)))


class BoundaryLoop:
    """The unit-boundary protocol shared by every campaign loop.

    A campaign runs independent units (Monte-Carlo or scenario
    intervals, rare-event trials); between two units its whole state is
    its aggregates.  The loop owns everything that happens at those
    boundaries:

    * resume -- a ``checkpointer.resume`` payload is validated against
      ``config`` and the run's units before any unit runs, its
      aggregates are applied through ``restore``, and its ``done``
      ranges are skipped;
    * a boundary mark after every unit (its position and aggregates),
      flushed as a snapshot when ``checkpointer.due`` and once more at
      the end (``checkpointer.finish``), each flush in a
      ``checkpoint_write`` span on ``tracer``; ranges are built only
      at a flush;
    * deadline and cancellation stops, polled after each unit;
    * ``KeyboardInterrupt`` rollback to the last boundary mark;
    * ``progress.update()`` per unit that does not end the run, and
      ``progress.finish()`` after the final flush.

    ``aggregates()`` returns the JSON-ready block a snapshot carries;
    ``restore`` applies it on resume and on rollback.  ``first`` is
    the global index of the run's first unit (a shard's slice start).
    """

    def __init__(self, kind: str, config: Dict[str, object],
                 checkpointer: Optional[Checkpointer], *, first: int = 0,
                 aggregates, restore, tracer, deadline=None,
                 progress) -> None:
        self._kind = kind
        self._config = config
        self._checkpointer = checkpointer
        self._first = first
        self._aggregates = aggregates
        self._restore = restore
        self._tracer = tracer
        self._deadline = deadline
        self._progress = progress

    def _flush(self, save, done: List[Tuple[int, int]],
               mark: Tuple[int, int, Dict[str, object]]) -> None:
        position, _, aggregates = mark
        done = merge_ranges(done + [(self._first, position)])
        with self._tracer.span("checkpoint_write",
                               path=self._checkpointer.path):
            save(build_payload(self._kind, self._config, done, aggregates))

    def run(self, units: int, step: Callable[[int], None],
            span) -> Tuple[int, str]:
        """Run units ``[first, first + units)`` not yet done, in ``span``.

        ``step(unit)`` performs global unit ``unit`` and updates the
        caller's aggregates.  Returns ``(completed, stop_reason)``:
        ``completed`` counts the resumed units too, and ``stop_reason``
        is ``""`` when every unit ran.
        """
        checkpointer, deadline = self._checkpointer, self._deadline
        end = self._first + units
        resume = checkpointer.resume if checkpointer is not None else None
        done = [] if resume is None else done_ranges(resume, end)
        if resume is not None:
            require_config_match(resume, self._config)
            self._restore(resume["aggregates"])
        resumed = sum(stop - start for start, stop in done)
        stop_reason = ""
        # (position, completed, aggregates): every unit below position
        # is done, and the count and aggregates are theirs.
        mark = (self._first, resumed, self._aggregates())
        with span:
            try:
                for unit in _todo(self._first, end, done):
                    step(unit)
                    mark = (unit + 1, mark[1] + 1, self._aggregates())
                    if checkpointer is not None and checkpointer.due(mark[1] - resumed):
                        self._flush(checkpointer.save, done, mark)
                    if deadline is not None and deadline.expired():
                        stop_reason = deadline.reason
                        break
                    self._progress.update()
            except KeyboardInterrupt:
                # Completed units are not discarded: roll back to the
                # last boundary and return the partial aggregates.
                stop_reason = "interrupted"
                self._restore(mark[2])
        if checkpointer is not None:
            self._flush(checkpointer.finish, done, mark)
        self._progress.finish()
        return mark[1], stop_reason
