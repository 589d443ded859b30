"""Metric primitives: declaration table, registry, restart bases."""

from __future__ import annotations

import pytest

from repro._util.errors import ReproError
from repro.telemetry import METRICS, DURATION_BUCKETS, MetricsRegistry
from repro.telemetry.metrics import metric_spec, rss_bytes


class TestDeclarationTable:
    def test_every_metric_declares_type_and_help(self):
        for name, spec in METRICS.items():
            assert spec[0] in {"counter", "gauge", "histogram"}, name
            assert spec[1].strip(), f"{name}: empty help string"

    def test_histograms_declare_buckets(self):
        for name, spec in METRICS.items():
            if spec[0] == "histogram":
                buckets = spec[2]
                assert buckets == tuple(sorted(buckets)), name
                assert len(buckets) == len(set(buckets)), name

    def test_counter_names_end_in_total(self):
        """The Prometheus convention the docs promise."""
        for name, spec in METRICS.items():
            if spec[0] == "counter":
                assert name.endswith("_total"), name

    def test_undeclared_name_is_an_error(self):
        with pytest.raises(ReproError, match="undeclared metric"):
            metric_spec("polls_toatl")  # the typo this guard exists for


class TestRegistry:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("polls_total")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        # Same (name, labels) -> same object.
        assert registry.counter("polls_total") is counter

    def test_counter_cannot_decrease(self):
        counter = MetricsRegistry().counter("polls_total")
        with pytest.raises(ReproError, match="cannot decrease"):
            counter.inc(-1)
        counter.inc(5)
        with pytest.raises(ReproError, match="cannot decrease"):
            counter.set_live_total(3)

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        with pytest.raises(ReproError, match="declared as a counter"):
            registry.gauge("polls_total")

    def test_label_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        with pytest.raises(ReproError, match="declares labels"):
            registry.counter("sink_failures_total")  # missing sink=
        with pytest.raises(ReproError, match="declares labels"):
            registry.counter("polls_total", sink="x")  # extra label

    def test_label_sets_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("sink_failures_total", sink="a").inc(2)
        registry.counter("sink_failures_total", sink="b").inc(3)
        assert registry.counter("sink_failures_total",
                                sink="a").value == 2
        assert registry.counter_sum("sink_failures_total") == 5

    def test_counter_sum_of_untouched_family_is_zero(self):
        assert MetricsRegistry().counter_sum("sink_failures_total") == 0

    def test_families_follow_declared_order(self):
        registry = MetricsRegistry()
        registry.gauge("files_tracked").set(2)
        registry.counter("polls_total").inc()
        registry.histogram("poll_seconds").observe(0.1)
        names = [name for name, _ in registry.families()]
        declared = [n for n in METRICS if n in set(names)]
        assert names == declared


class TestRestartBases:
    def test_counter_reports_base_plus_live(self):
        counter = MetricsRegistry().counter("polls_total")
        counter.restore(42)
        counter.inc(8)
        assert counter.value == 50

    def test_set_live_total_keeps_the_base(self):
        counter = MetricsRegistry().counter("sink_failures_total",
                                            sink="s")
        counter.restore(10)
        counter.set_live_total(3)
        counter.set_live_total(4)
        assert counter.value == 14

    def test_histogram_merges_base_counts(self):
        histogram = MetricsRegistry().histogram("poll_seconds")
        histogram.observe(0.002)
        counts = list(histogram.counts)
        total, count = histogram.sum, histogram.count
        revived = MetricsRegistry().histogram("poll_seconds")
        revived.restore(counts, total, count)
        revived.observe(0.002)
        merged = revived.merged_counts()
        assert sum(merged) == 2
        assert merged[1] == 2  # 0.002 falls in the 0.0025 bucket
        assert revived.merged_count == 2
        assert revived.merged_sum == pytest.approx(0.004)

    def test_histogram_bucket_count_mismatch_is_corrupt(self):
        """Sidecars load at one version, and a bucket-grid change bumps
        it: counts for another grid are corruption, neither folded into
        +Inf nor half restored."""
        revived = MetricsRegistry().histogram("poll_seconds")
        with pytest.raises(ValueError, match="restores 2 bucket counts"):
            revived.restore([5, 7], 1.25, 12)
        assert sum(revived.merged_counts()) == 0
        assert revived.merged_count == 0
        assert revived.merged_sum == 0.0


class TestHistogramBuckets:
    def test_observe_uses_upper_bound_semantics(self):
        histogram = MetricsRegistry().histogram("poll_seconds")
        histogram.observe(DURATION_BUCKETS[0])  # exactly on a bound
        assert histogram.counts[0] == 1  # le is inclusive

    def test_overflow_lands_in_inf(self):
        histogram = MetricsRegistry().histogram("poll_seconds")
        histogram.observe(10 * DURATION_BUCKETS[-1])
        assert histogram.counts[-1] == 1


def test_rss_bytes_reports_a_plausible_resident_set():
    value = rss_bytes()
    assert value > 1 << 20  # a Python process is at least a megabyte
