"""Span lifecycle, the Telemetry facade, and the null implementation."""

from __future__ import annotations

import time

import pytest

from repro._util.errors import ReproError
from repro.telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry


class TestNullTelemetry:
    def test_disabled_and_inert(self):
        null = NULL_TELEMETRY
        assert null.enabled is False
        assert null.last_span is None
        null.begin_poll()
        null.count("polls_total")
        null.count_total("sink_failures_total", 3, sink="s")
        null.gauge_set("files_tracked", 2)
        null.observe("poll_seconds", 0.1)
        null.record_overrun(1, 0.5)
        null.record_cadence_ok()
        assert null.end_poll() is None

    def test_phase_context_is_shared_and_reusable(self):
        """The disabled hot path allocates nothing per phase."""
        first = NULL_TELEMETRY.phase("scan")
        second = NULL_TELEMETRY.phase("tail")
        assert first is second
        with first:
            pass

    def test_null_mirrors_the_real_interface(self):
        """Every public recording method of Telemetry exists on the
        null twin — a call site can never need a None check."""
        real = {name for name in dir(Telemetry())
                if not name.startswith("_")}
        null = {name for name in dir(NULL_TELEMETRY)
                if not name.startswith("_")}
        # State/persistence accessors only exist when enabled; the
        # call sites guard those behind `telemetry.enabled`.
        enabled_only = {"registry", "snapshot", "to_state",
                        "restore_state", "update_rss"}
        assert real - null == enabled_only


class TestSpanLifecycle:
    def test_begin_end_produces_a_span(self):
        telemetry = Telemetry(unix_clock=lambda: 123.0)
        telemetry.begin_poll()
        with telemetry.phase("scan"):
            pass
        span = telemetry.end_poll()
        assert span.started_unix == 123.0
        assert span.wall_s >= 0
        assert "scan" in span.phases
        assert telemetry.last_span is span
        # One poll_seconds observation per span.
        assert telemetry.registry.histogram(
            "poll_seconds").count == 1

    def test_double_begin_is_an_error(self):
        telemetry = Telemetry()
        telemetry.begin_poll()
        with pytest.raises(ReproError, match="span open"):
            telemetry.begin_poll()

    def test_end_without_begin_is_an_error(self):
        with pytest.raises(ReproError, match="without begin_poll"):
            Telemetry().end_poll()

    def test_end_poll_copies_the_poll_result(self):
        class Result:
            n_poll = 7
            n_sealed = 11
            n_files = 3

        telemetry = Telemetry()
        telemetry.begin_poll()
        span = telemetry.end_poll(Result())
        assert (span.n_poll, span.n_sealed, span.n_files) == (7, 11, 3)

    def test_phases_reenter_and_accumulate(self):
        telemetry = Telemetry()
        telemetry.begin_poll()
        for _ in range(3):
            with telemetry.phase("tail"):
                time.sleep(0.001)
        span = telemetry.end_poll()
        timing = span.phases["tail"]
        assert timing.entries == 3
        assert timing.wall_s >= 0.003
        # The cumulative histogram saw every entry, not the sum.
        histogram = telemetry.registry.histogram("phase_seconds",
                                                 phase="tail")
        assert histogram.count == 3

    def test_phase_outside_a_span_still_feeds_the_histograms(self):
        """The render phase sits outside the span on purpose."""
        telemetry = Telemetry()
        with telemetry.phase("render"):
            pass
        assert telemetry.registry.histogram(
            "phase_seconds", phase="render").count == 1
        assert telemetry.last_span is None

    def test_top_phases_sorted_by_wall(self):
        telemetry = Telemetry()
        span = telemetry.begin_poll()
        span.phase("a").wall_s = 0.5
        span.phase("b").wall_s = 2.0
        span.phase("c").wall_s = 1.0
        assert [p.name for p in span.top_phases(2)] == ["b", "c"]


class TestCadence:
    def test_overrun_streak_counts_and_resets(self):
        telemetry = Telemetry()
        telemetry.record_overrun(1, 0.5)
        telemetry.record_overrun(2, 0.5)
        assert telemetry.overrun_streak == 2
        assert telemetry.registry.counter(
            "poll_overruns_total").value == 2
        assert telemetry.registry.gauge(
            "poll_overrun_streak").value == 2
        telemetry.record_cadence_ok()
        assert telemetry.overrun_streak == 0
        assert telemetry.registry.gauge(
            "poll_overrun_streak").value == 0
        # The lifetime total survives the reset.
        assert telemetry.registry.counter(
            "poll_overruns_total").value == 2


class TestSnapshotRoundTrip:
    def build(self) -> Telemetry:
        telemetry = Telemetry(unix_clock=lambda: 1000.0)
        telemetry.begin_poll()
        with telemetry.phase("seal"):
            pass
        telemetry.count("polls_total")
        telemetry.count("events_sealed_total", 5)
        telemetry.count("sink_failures_total", 2, sink="HttpSink#0")
        telemetry.gauge_set("files_tracked", 4)
        telemetry.end_poll()
        return telemetry

    def test_snapshot_is_json_able_and_complete(self):
        import json

        snapshot = self.build().snapshot()
        json.dumps(snapshot)  # no exotic types
        counters = {e["name"]: e["value"]
                    for e in snapshot["counters"]}
        assert counters["polls_total"] == 1
        assert counters["events_sealed_total"] == 5
        assert counters["sink_failures_total"] == 2
        gauges = {e["name"]: e["value"] for e in snapshot["gauges"]}
        assert gauges["files_tracked"] == 4
        assert snapshot["last_poll"]["phases"][0]["name"] == "seal"

    def test_restore_adopts_counters_and_histograms_as_bases(self):
        state = self.build().to_state()
        revived = Telemetry()
        revived.restore_state(state)
        registry = revived.registry
        assert registry.counter("polls_total").value == 1
        assert registry.counter("sink_failures_total",
                                sink="HttpSink#0").value == 2
        assert registry.histogram("poll_seconds").merged_count == 1
        # Gauges are point-in-time: not restored.
        assert registry.gauge("files_tracked").value == 0
        # And the new life keeps counting on top of the base.
        revived.count("polls_total")
        assert registry.counter("polls_total").value == 2

    def test_restore_rejects_undeclared_metric_names(self):
        """Sidecars load at one version, so a metric this build does
        not declare is corruption, not a retired name to skip."""
        for kind, entry in (
                ("counters", {"name": "metric_retired_in_v6_total",
                              "labels": {}, "value": 9}),
                ("histograms", {"name": "gone_seconds", "labels": {},
                                "counts": [1], "sum": 0.5, "count": 1})):
            state = self.build().to_state()
            state["snapshot"][kind].append(entry)
            with pytest.raises(ValueError, match=entry["name"]):
                Telemetry().restore_state(state)

    def test_restore_tolerates_empty_state(self):
        """An uninstrumented life persists ``None``: nothing to adopt.
        A state no life writes is not tolerated."""
        telemetry = Telemetry()
        telemetry.restore_state(None)
        assert telemetry.registry.counter("polls_total").value == 0
        with pytest.raises(KeyError):
            telemetry.restore_state({})
        with pytest.raises(TypeError):
            telemetry.restore_state({"snapshot": None})
