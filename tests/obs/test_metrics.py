"""Tests for the metrics registry: labels, buckets, null objects."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    merge_registry,
)


class TestCounters:
    def test_unlabelled_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "help text")
        counter.inc()
        counter.inc(2.5)
        ((values, child),) = counter.samples()
        assert values == ()
        assert child.value == 3.5

    def test_labelled_counter_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labels=("mechanism",))
        counter.labels(mechanism="raid4").inc()
        counter.labels(mechanism="raid4").inc()
        counter.labels(mechanism="sdr").inc()
        assert counter.labels(mechanism="raid4").value == 2
        assert counter.labels(mechanism="sdr").value == 1

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c_total").inc(-1)

    def test_label_values_coerced_to_str(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labels=("group",))
        counter.labels(group=7).inc()
        assert counter.labels(group="7").value == 1

    def test_missing_and_extra_labels_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labels=("a", "b"))
        with pytest.raises(ValueError):
            counter.labels(a="1")
        with pytest.raises(ValueError):
            counter.labels(a="1", b="2", c="3")
        with pytest.raises(ValueError):
            counter.labels(a="1", c="3")

    def test_unlabelled_call_on_labelled_family_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labels=("a",))
        with pytest.raises(ValueError):
            counter.inc()


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("shared_total", "help", labels=("x",))
        second = registry.counter("shared_total", "other help", labels=("x",))
        assert first is second

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("name_total")
        with pytest.raises(ValueError):
            registry.gauge("name_total")

    def test_label_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("name_total", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("name_total", labels=("b",))

    def test_bucket_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name")
        with pytest.raises(ValueError):
            registry.counter("ok_name", labels=("bad-label",))

    def test_families_in_registration_order(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        registry.gauge("b_value")
        assert [f.name for f in registry.families()] == ["a_total", "b_value"]
        assert registry.get("a_total").kind == "counter"
        assert registry.get("missing") is None


class TestGauges:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(0.5)
        ((_, child),) = gauge.samples()
        assert child.value == 11.5


class TestHistogramBuckets:
    def test_bucket_edges_are_inclusive(self):
        """Prometheus semantics: an observation == an edge lands in it."""
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 5.0, 5.1, 11.0):
            histogram.observe(value)
        ((_, child),) = histogram.samples()
        # raw counts per bucket: <=1: {0.5, 1.0}; <=5: {5.0}; <=10: {5.1};
        # +Inf: {11.0}
        assert child.counts == [2, 1, 1, 1]
        assert child.cumulative_counts() == [2, 3, 4, 5]
        assert child.count == 5
        assert child.sum == pytest.approx(22.6)

    def test_buckets_sorted_on_creation(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(10.0, 1.0, 5.0))
        histogram.observe(2.0)
        ((_, child),) = histogram.samples()
        assert child.buckets == (1.0, 5.0, 10.0)
        assert child.counts == [0, 1, 0, 0]

    def test_empty_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=())

    def test_default_buckets_cover_time_scales(self):
        assert DEFAULT_BUCKETS[0] <= 1e-9
        assert DEFAULT_BUCKETS[-1] >= 60.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestNullRegistry:
    def test_whole_surface_is_noop(self):
        registry = NullRegistry()
        assert registry.enabled is False
        counter = registry.counter("anything")
        counter.inc()
        counter.labels(a="b").inc(5)
        registry.gauge("g").set(3)
        registry.histogram("h").observe(1.0)
        assert registry.families() == []
        assert registry.get("anything") is None

    def test_shared_series_reports_zero(self):
        registry = NullRegistry()
        assert registry.counter("x").value == 0.0


class TestMergeRegistry:
    """merge_registry: the sharded-campaign fold of worker registries."""

    def _source(self):
        registry = MetricsRegistry()
        registry.counter("events_total").inc(3)
        registry.counter(
            "outcomes_total", labels=("kind",)
        ).labels(kind="due").inc(2)
        registry.gauge("level").set(7)
        registry.histogram(
            "latency_seconds", buckets=(0.1, 1.0)
        ).observe(0.5)
        return registry

    def test_merge_into_empty_equals_source(self):
        target = MetricsRegistry()
        merge_registry(target, self._source())
        assert target.get("events_total").labels().value == 3
        assert target.get("outcomes_total").labels(kind="due").value == 2
        hist = target.get("latency_seconds").labels()
        assert hist.count == 1
        assert hist.sum == pytest.approx(0.5)

    def test_merge_adds_counters_and_histograms(self):
        target = self._source()
        merge_registry(target, self._source())
        assert target.get("events_total").labels().value == 6
        assert target.get("outcomes_total").labels(kind="due").value == 4
        hist = target.get("latency_seconds").labels()
        assert hist.count == 2
        assert hist.sum == pytest.approx(1.0)
        assert sum(hist.counts) == 2

    def test_merge_is_equivalent_to_sequential_recording(self):
        # K workers each recording into their own registry, merged,
        # must equal one registry that saw every event.
        merged = MetricsRegistry()
        sequential = MetricsRegistry()
        for shard in range(3):
            worker = MetricsRegistry()
            for registry in (worker, sequential):
                registry.counter("n_total").inc(shard + 1)
                registry.histogram(
                    "t_seconds", buckets=(1.0, 10.0)
                ).observe(float(shard))
            merge_registry(merged, worker)
        assert (
            merged.get("n_total").labels().value
            == sequential.get("n_total").labels().value
        )
        a = merged.get("t_seconds").labels()
        b = sequential.get("t_seconds").labels()
        assert a.counts == b.counts
        assert a.count == b.count
        assert a.sum == pytest.approx(b.sum)

    def test_merge_null_source_is_noop(self):
        target = MetricsRegistry()
        target.counter("events_total").inc()
        merge_registry(target, NullRegistry())
        assert target.get("events_total").labels().value == 1

    def test_merge_kind_mismatch_raises(self):
        target = MetricsRegistry()
        target.counter("x")
        source = MetricsRegistry()
        source.gauge("x")
        with pytest.raises(ValueError):
            merge_registry(target, source)

    def test_merge_bucket_mismatch_raises(self):
        # Adding per-bucket counts across different edge layouts would
        # silently misfile observations; the merge must refuse instead.
        target = MetricsRegistry()
        target.histogram("latency_seconds", buckets=(0.1, 1.0))
        source = MetricsRegistry()
        source.histogram("latency_seconds", buckets=(0.5, 5.0)).observe(0.2)
        with pytest.raises(ValueError, match="buckets"):
            merge_registry(target, source)

    def test_merge_label_mismatch_raises(self):
        target = MetricsRegistry()
        target.counter("outcomes_total", labels=("kind",))
        source = MetricsRegistry()
        source.counter("outcomes_total", labels=("mechanism",))
        with pytest.raises(ValueError, match="labels"):
            merge_registry(target, source)

    def test_merge_empty_source_is_noop(self):
        target = self._source()
        before = target.get("events_total").labels().value
        merge_registry(target, MetricsRegistry())
        assert target.get("events_total").labels().value == before

    def test_repeated_merge_accumulates_bucket_counts(self):
        # Merging the same worker registry twice must double every
        # histogram slot, including the cumulative view the exporters
        # read -- a regression here corrupts sharded percentiles.
        target = MetricsRegistry()
        source = self._source()
        merge_registry(target, source)
        once = list(target.get("latency_seconds").labels().cumulative_counts())
        merge_registry(target, source)
        hist = target.get("latency_seconds").labels()
        assert hist.cumulative_counts() == [2 * n for n in once]
        assert hist.count == 2
        assert hist.sum == pytest.approx(1.0)


class TestNullRegistryParity:
    def test_null_registry_covers_the_real_surface(self):
        # Instrumented code calls the same methods whether telemetry is
        # attached or not; any public name on the real registry missing
        # from the null one is an AttributeError waiting in a hot path.
        real = {n for n in dir(MetricsRegistry) if not n.startswith("_")}
        null = {n for n in dir(NullRegistry) if not n.startswith("_")}
        assert real <= null

    def test_null_children_cover_the_real_child_surface(self):
        registry = MetricsRegistry()
        null = NullRegistry()
        pairs = [
            (registry.counter("c", labels=("a",)), null.counter("c")),
            (registry.gauge("g"), null.gauge("g")),
            (registry.histogram("h"), null.histogram("h")),
        ]
        for real_family, null_family in pairs:
            real_names = {
                n for n in dir(real_family) if not n.startswith("_")
            }
            # The null stand-in only needs the mutation surface, not the
            # declaration metadata (name/help/kind/samples).
            mutators = real_names & {
                "labels", "inc", "dec", "set", "observe", "value",
            }
            for name in mutators:
                assert hasattr(null_family, name), (
                    f"NullRegistry family lacks {name}"
                )
