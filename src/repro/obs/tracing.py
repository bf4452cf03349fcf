"""Nested wall-clock span tracing with a bounded completed-span ring.

A :class:`Tracer` hands out context-manager spans::

    with tracer.span("sdr_repair", group=7, level="Z"):
        ...

Spans nest lexically: the tracer keeps an active-span stack, so each
completed span knows its parent and depth, and the ring of finished
spans (a ``deque(maxlen=...)``; the oldest are dropped, with a counter)
serialises to JSON lines for offline analysis.  :class:`NullTracer`
is the zero-cost stand-in: ``span()`` returns one shared no-op context
manager and never reads the clock.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional


class Span:
    """One timed operation; use as a context manager via ``Tracer.span``."""

    __slots__ = (
        "_tracer", "name", "attributes", "span_id", "parent_id",
        "depth", "start_s", "end_s", "status",
    )

    def __init__(self, tracer: "Tracer", name: str, attributes: Dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attributes = attributes
        self.span_id = -1
        self.parent_id: Optional[int] = None
        self.depth = 0
        self.start_s = 0.0
        self.end_s = 0.0
        self.status = "ok"

    @property
    def duration_s(self) -> float:
        """Wall-clock duration (0 until the span has finished)."""
        return max(0.0, self.end_s - self.start_s)

    def set_attribute(self, key: str, value) -> None:
        """Attach an attribute after the span has started."""
        self.attributes[key] = value

    # The tracer's bookkeeping is inlined here: spans wrap every campaign
    # phase and repair, so each saved call counts.
    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.span_id = tracer._next_id
        tracer._next_id += 1
        tracer.started += 1
        stack = tracer._stack
        if stack:
            parent = stack[-1]
            self.parent_id = parent.span_id
            self.depth = parent.depth + 1
        stack.append(self)
        self.start_s = tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        self.end_s = tracer._clock()
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("exception", exc_type.__name__)
        # Tolerate out-of-order exits (generator-held spans): unwind to
        # this span rather than corrupting the stack.
        stack = tracer._stack
        while stack:
            if stack.pop() is self:
                break
        finished = tracer._finished
        if len(finished) == tracer.capacity:
            tracer.dropped += 1
        finished.append(self)

    def to_dict(self) -> Dict:
        """Plain-dict form (the JSONL record)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "attributes": self.attributes,
        }


class Tracer:
    """Produces nested spans and retains the most recent completed ones.

    :param capacity: bound on retained completed spans; the oldest are
        dropped beyond it (``dropped`` keeps counting).
    :param clock: monotonic time source, injectable for deterministic
        tests.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = 65_536,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._clock = clock
        self._finished: Deque[Span] = deque(maxlen=capacity)
        self._stack: List[Span] = []
        self._next_id = 0
        self.dropped = 0
        self.started = 0

    def span(self, name: str, **attributes) -> Span:
        """A new span; enter it with ``with``."""
        return Span(self, name, attributes)

    # -- access --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._finished)

    def __iter__(self) -> Iterator[Span]:
        """Completed spans, oldest first (completion order)."""
        return iter(self._finished)

    @property
    def active_depth(self) -> int:
        """How many spans are currently open."""
        return len(self._stack)

    def spans_named(self, name: str) -> List[Span]:
        """Completed spans with the given name."""
        return [span for span in self._finished if span.name == name]

    def names(self) -> List[str]:
        """Distinct completed-span names, first-seen order."""
        seen: Dict[str, None] = {}
        for span in self._finished:
            seen.setdefault(span.name, None)
        return list(seen)

    def to_json_lines(self) -> str:
        """Completed spans as newline-delimited JSON."""
        return "\n".join(
            json.dumps(span.to_dict(), separators=(",", ":"), default=str)
            for span in self._finished
        )


class _NullSpan:
    """Shared no-op span context manager."""

    __slots__ = ()
    name = ""
    duration_s = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def set_attribute(self, key: str, value) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-cost tracer: never reads the clock, retains nothing."""

    enabled = False
    capacity = 0
    dropped = 0
    started = 0
    active_depth = 0

    def span(self, name: str, **attributes) -> _NullSpan:
        return _NULL_SPAN

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[Span]:
        return iter(())

    def spans_named(self, name: str) -> List[Span]:
        return []

    def names(self) -> List[str]:
        return []

    def to_json_lines(self) -> str:
        return ""


def export_spans(tracer) -> List[Dict]:
    """Completed spans as plain dicts -- the cross-process wire form.

    Worker processes cannot ship :class:`Span` objects (they hold a
    tracer reference); they ship this instead, and the parent adopts
    with :func:`merge_traces`.  A :class:`NullTracer` exports ``[]``.
    """
    return [span.to_dict() for span in tracer]


def merge_traces(target, spans, shard: Optional[int] = None) -> int:
    """Adopt completed worker spans into ``target`` (cf. merge_registry).

    ``spans`` is a :class:`Tracer` or an iterable of span dicts (the
    :func:`export_spans` wire form).  Adopted spans keep their names,
    attributes, durations, statuses, and completion order; span ids are
    remapped onto the target's id sequence, the worker's root spans are
    re-parented under the target's innermost *active* span (so a merge
    performed inside ``with tracer.span("sharded_campaign")`` files every
    worker under that span), and ``shard`` -- when given -- is stamped on
    every adopted span's attributes.

    Merging shards in a fixed (sorted-index) order therefore yields a
    trace whose structure -- names, depths, parent chains, shard tags --
    is bit-stable across same-seed reruns; only the clock readings vary.
    Worker ``start_s``/``end_s`` are per-process monotonic readings:
    durations are meaningful, cross-process offsets are not, so they are
    adopted untranslated.

    Returns the number of spans adopted; a disabled ``target`` (the
    :class:`NullTracer`) adopts nothing.
    """
    if not getattr(target, "enabled", False):
        return 0
    payload = [
        span.to_dict() if isinstance(span, Span) else dict(span)
        for span in spans
    ]
    if not payload:
        return 0
    base = target._stack[-1] if target._stack else None
    base_depth = base.depth + 1 if base is not None else 0
    # Two passes: completed spans arrive in completion order, so a
    # worker parent is exported *after* its children -- the id map must
    # be complete before any parent link is resolved.
    id_map: Dict[object, int] = {}
    adopted: List[Span] = []
    for entry in payload:
        span = Span(
            target,
            str(entry.get("name", "")),
            dict(entry.get("attributes", {})),
        )
        if shard is not None:
            span.attributes["shard"] = shard
        span.span_id = target._next_id
        target._next_id += 1
        target.started += 1
        id_map[entry.get("span_id")] = span.span_id
        span.depth = int(entry.get("depth", 0)) + base_depth
        span.start_s = float(entry.get("start_s", 0.0))
        span.end_s = float(entry.get("end_s", 0.0))
        span.status = str(entry.get("status", "ok"))
        adopted.append(span)
    for entry, span in zip(payload, adopted):
        parent = entry.get("parent_id")
        if parent is not None and parent in id_map:
            span.parent_id = id_map[parent]
        elif base is not None:
            # A worker root (or a span whose parent fell out of the
            # worker's bounded ring): file it under the merge point.
            span.parent_id = base.span_id
        if len(target._finished) == target.capacity:
            target.dropped += 1
        target._finished.append(span)
    return len(payload)
