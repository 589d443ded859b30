"""Metric primitives: counters, gauges, fixed-bucket histograms.

The registry is deliberately tiny and dependency-free (stdlib only):
the watcher must be able to measure itself on any host it can run on,
and the exposition format (:mod:`repro.telemetry.exposition`) is plain
Prometheus text — no client library required.

Every metric the system may emit is declared up front in
:data:`METRICS`; asking the registry for an undeclared name is an
error. That catches instrumentation typos at the call site (a
miscounted metric is worse than a crash — it lies quietly for weeks)
and gives the documentation a single authoritative table to render
(``docs/observability.md`` lists exactly these names).

**Restart awareness.** Counters and histograms carry a *base*: the
value persisted by the last checkpoint save of a previous watcher
life. A restored metric reports ``base + this life`` — so a rate
computed by a scraper (``rate(st_inspector_events_sealed_total[5m])``)
survives a kill/restart as a flat spot instead of a counter reset,
mirroring how alert latches already persist. Gauges are point-in-time
readings and restart from scratch.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left

from repro._util.errors import ReproError

#: Prefix prepended to every metric name at exposition time.
PREFIX = "st_inspector_"

#: Duration histogram buckets (seconds). Poll phases range from
#: microseconds (an idle scan) to tens of seconds (a burst of trace
#: bytes), so the grid is log-ish across that span.
DURATION_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

#: Sink deliveries are network-ish: finer grid under a second, capped
#: by the sinks' own retry/timeout budgets.
SINK_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
                5.0, 15.0, 60.0)

#: Every metric the instrumentation may touch: name -> (type, help).
#: Histograms carry their bucket grid as a third element.
METRICS: dict[str, tuple] = {
    # counters — monotonic, restart-aware (base persisted in the
    # checkpoint sidecar)
    "polls_total": ("counter", "Completed engine polls."),
    "finalizes_total": ("counter", "Finalize passes (end of growth)."),
    "events_sealed_total": (
        "counter", "Records sealed and folded into the DFG."),
    "bytes_tailed_total": (
        "counter", "Trace bytes consumed by the file tailers."),
    "files_discovered_total": (
        "counter", "Trace files first seen by a scan."),
    "alerts_fired_total": ("counter", "Alerts fired by the rule engine."),
    "alerts_suppressed_total": (
        "counter", "Rule firings withheld by a cooldown window."),
    "sink_failures_total": (
        "counter", "Failed alert deliveries, per sink.", None, ("sink",)),
    "sink_retries_total": (
        "counter", "Delivery retry attempts, per sink.", None, ("sink",)),
    "sink_warnings_suppressed_total": (
        "counter",
        "Sink-failure warnings collapsed by the rate limiter, per sink.",
        None, ("sink",)),
    "checkpoint_saves_total": ("counter", "Checkpoint sidecar rewrites."),
    "journal_fsyncs_total": (
        "counter", "Durable emit-journal fsync barriers."),
    "journal_compactions_total": (
        "counter",
        "Rolling journal compactions (checkpointed prefix packed into "
        "the destination .elog, journal truncated)."),
    "sink_queue_dropped_total": (
        "counter",
        "Alerts evicted from the background delivery queue by "
        "drop-oldest overflow (still recorded in the history)."),
    "sink_queue_delivered_total": (
        "counter",
        "Alerts the background delivery worker handed to the sinks."),
    "poll_overruns_total": (
        "counter",
        "Polls whose work overran the interval, re-anchoring the "
        "watch cadence."),
    "job_restarts_total": (
        "counter",
        "Fleet job restarts after a failed poll (scheduler fault "
        "isolation)."),
    "phase_cpu_seconds_total": (
        "counter", "CPU seconds spent per poll phase.", None, ("phase",)),
    # gauges — point-in-time, not persisted
    "files_tracked": ("gauge", "Trace files currently followed."),
    "starving_files": (
        "gauge", "Files whose sealing is starved by an in-flight "
                 "unfinished call."),
    "watermark_age_seconds": (
        "gauge", "Worst sealing-starvation age across files, in trace "
                 "seconds."),
    "interval_buffer_entries": (
        "gauge", "Interval entries buffered by the statistics "
                 "accumulators across all cases."),
    "interval_buffer_window": (
        "gauge", "Per-case interval-buffer cap (--window; 0 = "
                 "unbounded)."),
    "rss_bytes": ("gauge", "Resident set size of the watcher process."),
    "poll_overrun_streak": (
        "gauge", "Consecutive polls that overran the interval."),
    "sink_failure_streak": (
        "gauge", "Worst consecutive-failure streak across alert sinks."),
    "sink_queue_depth": (
        "gauge", "Alerts queued for background delivery and not yet "
                 "picked up by the worker."),
    "emit_journal_bytes": (
        "gauge", "On-disk size of the emit journal after the last "
                 "sync/compaction (bounded by rolling compaction)."),
    # histograms — restart-aware like counters
    "poll_seconds": (
        "histogram", "Wall-clock duration of one poll span (poll + "
        "alert evaluation + checkpoint save).", DURATION_BUCKETS),
    "phase_seconds": (
        "histogram", "Wall-clock duration per poll phase.",
        DURATION_BUCKETS, ("phase",)),
    "sink_seconds": (
        "histogram", "Alert delivery latency per sink (includes "
        "retries).", SINK_BUCKETS, ("sink",)),
    "sink_queue_latency_seconds": (
        "histogram", "Submit-to-delivered latency of alerts routed "
        "through the background delivery queue.", SINK_BUCKETS),
}


def metric_spec(name: str) -> tuple:
    """The declared ``(type, help, [buckets], [label names])`` of a
    metric; undeclared names are instrumentation bugs."""
    try:
        return METRICS[name]
    except KeyError:
        raise ReproError(
            f"undeclared metric {name!r} — add it to "
            f"repro.telemetry.metrics.METRICS") from None


class Counter:
    """Monotonic counter with a restart base (see module docstring)."""

    __slots__ = ("name", "labels", "base", "live")

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self.base = 0.0
        self.live = 0.0

    @property
    def value(self) -> float:
        return self.base + self.live

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ReproError(
                f"counter {self.name} cannot decrease (inc {amount})")
        self.live += amount

    def set_live_total(self, total: float) -> None:
        """Mirror an externally accumulated this-life total (e.g. a
        sink's own failure count). Monotonic per life; the base still
        carries previous lives."""
        if total < self.live:
            raise ReproError(
                f"counter {self.name} cannot decrease "
                f"(live total {total} < {self.live})")
        self.live = total

    def restore(self, value: float) -> None:
        self.base = float(value)
        self.live = 0.0


class Gauge:
    """A point-in-time reading; restarts from scratch."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with cumulative exposition and a restart
    base per bucket (counts/sum restored like counters)."""

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count",
                 "base_counts", "base_sum", "base_count")

    def __init__(self, name: str, labels: tuple,
                 buckets: tuple[float, ...]) -> None:
        self.name = name
        self.labels = labels
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +Inf last
        self.sum = 0.0
        self.count = 0
        self.base_counts = [0] * (len(self.buckets) + 1)
        self.base_sum = 0.0
        self.base_count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def merged_counts(self) -> list[int]:
        return [a + b for a, b in zip(self.counts, self.base_counts)]

    @property
    def merged_sum(self) -> float:
        return self.sum + self.base_sum

    @property
    def merged_count(self) -> int:
        return self.count + self.base_count

    def restore(self, counts: list, total: float, count: int) -> None:
        if len(counts) != len(self.base_counts):
            # A bucket-grid change between versions: fold everything
            # into +Inf rather than misattribute latencies.
            folded = [0] * len(self.base_counts)
            folded[-1] = int(sum(counts))
            counts = folded
        self.base_counts = [int(c) for c in counts]
        self.base_sum = float(total)
        self.base_count = int(count)


def _label_key(labels: dict[str, str]) -> tuple:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """All metrics of one telemetry instance, keyed by (name, labels).

    Thread-safe for the single-writer / concurrent-reader shape the
    watcher has: the poll loop mutates, the exposition HTTP thread
    renders. Creation and snapshotting take the lock; the hot-path
    ``inc``/``observe`` on an already-created metric are plain
    attribute updates (atomic enough under the GIL for monotonic
    floats — a torn read costs a scrape one sample, never corruption).
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple], object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind: str, labels: dict[str, str]):
        spec = metric_spec(name)
        if spec[0] != kind:
            raise ReproError(
                f"metric {name!r} is declared as a {spec[0]}, "
                f"used as a {kind}")
        declared = spec[3] if len(spec) > 3 else ()
        if tuple(sorted(labels)) != tuple(sorted(declared)):
            raise ReproError(
                f"metric {name!r} declares labels {declared}, "
                f"got {tuple(sorted(labels))}")
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    if kind == "counter":
                        metric = Counter(name, key[1])
                    elif kind == "gauge":
                        metric = Gauge(name, key[1])
                    else:
                        metric = Histogram(name, key[1], spec[2])
                    self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(name, "counter", labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(name, "gauge", labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(name, "histogram", labels)

    def counter_sum(self, name: str) -> float:
        """Total across every label set of a counter family (0 if the
        family was never touched)."""
        metric_spec(name)
        with self._lock:
            return sum(m.value for (n, _), m in self._metrics.items()
                       if n == name)

    def families(self) -> list[tuple[str, list]]:
        """Declared-order (name, [metric, ...]) pairs of every metric
        family that has been touched, label sets sorted."""
        with self._lock:
            items = sorted(self._metrics.items())
        by_name: dict[str, list] = {}
        for (name, _), metric in items:
            by_name.setdefault(name, []).append(metric)
        return [(name, by_name[name]) for name in METRICS
                if name in by_name]


def rss_bytes() -> int:
    """Current resident set size, best effort.

    ``/proc/self/statm`` where available (Linux — the deployment
    target); the peak-RSS ``getrusage`` reading elsewhere (close
    enough for a leak-or-not health signal); 0 if neither works.
    """
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - exotic platforms
        return 0
