"""Labelled metric families: counters, gauges, fixed-bucket histograms.

The registry is deliberately dependency-free and single-process: it
exists so campaigns, engines, and the perf simulator can expose
machine-readable run telemetry (``sudoku_corrections_total{mechanism=
"raid4"}``, ``campaign_interval_seconds`` buckets, ...) without pulling
a metrics client into a simulation package.  Export formats live in
:mod:`repro.obs.export`; the registry itself only stores samples.

Two design rules keep the hot paths honest:

* **Null-object default.**  :class:`NullRegistry` implements the whole
  surface as no-ops, so instrumented code never branches on "is
  telemetry attached?" -- it calls the same methods either way and the
  engines stay bit-identical with telemetry on or off.
* **Child caching.**  ``family.labels(...)`` returns a mutable child
  that can be held and incremented directly, so per-event work is one
  attribute bump, not a dict lookup per label set.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, biased toward the simulator's time scales
#: (nanosecond device latencies up to multi-second campaign intervals).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3,
    0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _check_labels(labels: Sequence[str]) -> Tuple[str, ...]:
    for label in labels:
        if not _LABEL_RE.match(label):
            raise ValueError(f"invalid label name {label!r}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate label names in {labels!r}")
    return tuple(labels)


class CounterChild:
    """One labelled counter series (monotonically increasing)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the series."""
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class GaugeChild:
    """One labelled gauge series (free-form current value)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class HistogramChild:
    """One labelled histogram series over fixed bucket edges.

    Bucket semantics follow Prometheus: an observation lands in the
    first bucket whose upper edge is ``>= value`` (edges are inclusive),
    with an implicit ``+Inf`` bucket catching the overflow.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # trailing slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> List[int]:
        """Counts per bucket, cumulative, ending with the +Inf total."""
        out: List[int] = []
        running = 0
        for count in self.counts:
            running += count
            out.append(running)
        return out


_CHILD_TYPES = {
    "counter": CounterChild,
    "gauge": GaugeChild,
    "histogram": HistogramChild,
}


class MetricFamily:
    """A named metric plus all its labelled children."""

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        label_names: Tuple[str, ...],
        buckets: Tuple[float, ...] = (),
    ) -> None:
        self.name = _check_name(name)
        self.help = help_text
        self.kind = kind
        self.label_names = _check_labels(label_names)
        self.buckets = buckets
        self._children: Dict[Tuple[str, ...], object] = {}
        if not label_names:
            self._default = self._make_child()
            self._children[()] = self._default
        else:
            self._default = None

    def _make_child(self):
        if self.kind == "histogram":
            return HistogramChild(self.buckets)
        return _CHILD_TYPES[self.kind]()

    def labels(self, **label_values: str):
        """The child series for one label-value assignment.

        Every declared label must be supplied (and nothing else); values
        are coerced to strings, matching Prometheus semantics.
        """
        try:
            key = tuple(map(str, map(label_values.__getitem__, self.label_names)))
        except KeyError:
            key = None
        # With every declared label present, equal counts mean no extras.
        if key is None or len(label_values) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    # Unlabelled families behave like their single child.
    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    def set(self, value: float) -> None:
        self._require_default().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._require_default().dec(amount)

    def observe(self, value: float) -> None:
        self._require_default().observe(value)

    def _require_default(self):
        if self._default is None:
            raise ValueError(
                f"{self.name} is labelled {self.label_names}; call .labels() first"
            )
        return self._default

    def samples(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        """(label values, child) pairs in insertion order."""
        return self._children.items()


class MetricsRegistry:
    """Process-local registry of metric families.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking
    twice for the same name returns the same family (so independent
    subsystems can share ``campaign_outcomes_total``), but re-declaring
    a name with a different type, label set, or bucket layout raises.
    """

    #: Instrumented code may consult this to skip expensive preparation
    #: (wall-clock reads, string formatting) when telemetry is off.
    enabled = True

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _get_or_create(
        self,
        name: str,
        help_text: str,
        kind: str,
        label_names: Sequence[str],
        buckets: Tuple[float, ...] = (),
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind:
                raise ValueError(
                    f"{name} already registered as a {family.kind}, not {kind}"
                )
            if family.label_names != tuple(label_names):
                raise ValueError(
                    f"{name} already registered with labels {family.label_names}"
                )
            if kind == "histogram" and family.buckets != tuple(buckets):
                raise ValueError(f"{name} already registered with other buckets")
            return family
        family = MetricFamily(name, help_text, kind, tuple(label_names), buckets)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Get or create a counter family."""
        return self._get_or_create(name, help_text, "counter", labels)

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Get or create a gauge family."""
        return self._get_or_create(name, help_text, "gauge", labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """Get or create a histogram family over fixed bucket edges."""
        edges = tuple(sorted(map(float, buckets)))
        if not edges:
            raise ValueError("histograms need at least one bucket edge")
        return self._get_or_create(name, help_text, "histogram", labels, edges)

    def families(self) -> List[MetricFamily]:
        """Registered families in registration order."""
        return list(self._families.values())

    def get(self, name: str) -> Optional[MetricFamily]:
        """Look up a family by name (None when absent)."""
        return self._families.get(name)


def merge_registry(target: MetricsRegistry, source: MetricsRegistry) -> None:
    """Fold ``source``'s samples into ``target`` (sharded-campaign merge).

    Families are matched by name; a family absent from ``target`` is
    created with the source's declaration, and a family already present
    must agree on kind, label names, and bucket edges (the registry's
    usual re-declaration rules apply, so a mismatch raises).  Counter and
    gauge children add their values, histogram children add per-bucket
    counts, sums, and totals -- exactly the semantics of running the
    shards sequentially against one registry.
    """
    if isinstance(source, NullRegistry):
        return
    for family in source.families():
        merged = target._get_or_create(
            family.name, family.help, family.kind,
            family.label_names, family.buckets,
        )
        for label_values, child in family.samples():
            if family.label_names:
                labels = dict(zip(family.label_names, label_values))
                merged_child = merged.labels(**labels)
            else:
                merged_child = merged._require_default()
            if family.kind == "histogram":
                for slot, count in enumerate(child.counts):
                    merged_child.counts[slot] += count
                merged_child.sum += child.sum
                merged_child.count += child.count
            else:
                merged_child.value += child.value


class _NullSeries:
    """Shared no-op stand-in for families and children alike."""

    __slots__ = ()
    value = 0.0

    def labels(self, **_labels) -> "_NullSeries":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_SERIES = _NullSeries()


class NullRegistry:
    """Zero-cost registry: every family is the shared no-op series."""

    enabled = False

    def counter(self, name: str, help_text: str = "", labels=()) -> _NullSeries:
        return _NULL_SERIES

    def gauge(self, name: str, help_text: str = "", labels=()) -> _NullSeries:
        return _NULL_SERIES

    def histogram(
        self, name: str, help_text: str = "", labels=(), buckets=DEFAULT_BUCKETS
    ) -> _NullSeries:
        return _NULL_SERIES

    def families(self) -> List[MetricFamily]:
        return []

    def get(self, name: str) -> None:
        return None
