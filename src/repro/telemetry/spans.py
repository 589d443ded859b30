"""Poll spans and the `Telemetry` facade threaded through the live path.

One :class:`PollSpan` covers one poll of the watch loop: everything
from ``begin_poll()`` to ``end_poll()`` — the engine poll itself,
alert evaluation, sink fan-out, and the checkpoint save. Inside the
span, instrumented call sites open named *phases* (``scan``, ``tail``,
``decode``, ``seal``, ``emit``, ``fold``, ``stats``, ``alerts``,
``sink:<label>``, ``checkpoint``, ``render``) that record wall-clock
and CPU time. Phases re-enter freely — the tail phase opens once per
chunk, the seal phase once per feed — and the span accumulates them.

The :class:`Telemetry` object owns one :class:`MetricsRegistry` and
the span lifecycle. It is **injected**, never global: an engine holds
exactly one, tests can hold several side by side, and the default is
:data:`NULL_TELEMETRY` — a shared no-op whose ``phase()`` returns a
reusable null context manager, so the uninstrumented hot path costs
one attribute load and one falsy branch per call site and allocates
nothing.

The observer must not perturb: whether telemetry is on or off changes
no DFG edge, no statistic, no alert — a property test pins this
byte-for-byte (``tests/test_live/test_telemetry_live.py``).
"""

from __future__ import annotations

import time
from typing import Callable

from repro._util.errors import ReproError
from repro.telemetry.metrics import METRICS, MetricsRegistry, rss_bytes

#: Version of the snapshot / persisted-state layout.
SNAPSHOT_VERSION = 1


class PhaseTiming:
    """Accumulated wall/CPU seconds and entry count of one phase
    within one span."""

    __slots__ = ("name", "wall_s", "cpu_s", "entries")

    def __init__(self, name: str) -> None:
        self.name = name
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.entries = 0

    def to_json(self) -> dict:
        return {"name": self.name, "wall_s": self.wall_s,
                "cpu_s": self.cpu_s, "entries": self.entries}


class PollSpan:
    """Per-phase timing of one watch poll (see module docstring)."""

    __slots__ = ("n_poll", "started_unix", "wall_s", "cpu_s", "phases",
                 "n_sealed", "n_files", "_t0", "_c0")

    def __init__(self, n_poll: int, *, unix_time: float) -> None:
        self.n_poll = n_poll
        self.started_unix = unix_time
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.phases: dict[str, PhaseTiming] = {}
        self.n_sealed = 0
        self.n_files = 0
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()

    def finish(self) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = time.process_time() - self._c0

    def phase(self, name: str) -> PhaseTiming:
        timing = self.phases.get(name)
        if timing is None:
            timing = self.phases[name] = PhaseTiming(name)
        return timing

    def top_phases(self, n: int = 3) -> list[PhaseTiming]:
        return sorted(self.phases.values(),
                      key=lambda p: p.wall_s, reverse=True)[:n]

    def to_json(self) -> dict:
        return {
            "n_poll": self.n_poll,
            "started_unix": self.started_unix,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "n_sealed": self.n_sealed,
            "n_files": self.n_files,
            "phases": [t.to_json() for t in
                       sorted(self.phases.values(),
                              key=lambda p: p.wall_s, reverse=True)],
        }


class _PhaseContext:
    """Times one entry of one phase; records into the open span (if
    any) and the cumulative registry histograms."""

    __slots__ = ("_telemetry", "_name", "_t0", "_c0")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self._name = name

    def __enter__(self) -> "_PhaseContext":
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def __exit__(self, *exc_info) -> None:
        wall = time.perf_counter() - self._t0
        cpu = time.process_time() - self._c0
        self._telemetry._record_phase(self._name, wall, cpu)


class _NullContext:
    """Reusable no-op context manager (one instance, zero allocation
    per phase on the disabled path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class NullTelemetry:
    """The disabled implementation: every recording call is a no-op.

    ``enabled`` is False so call sites can skip work that exists only
    to feed telemetry (building label strings, reading RSS); the
    methods still exist so call sites never need a None check.
    """

    enabled = False
    last_span = None
    overrun_streak = 0

    __slots__ = ()

    def begin_poll(self) -> None:
        return None

    def end_poll(self, result=None) -> None:
        return None

    def abort_poll(self) -> None:
        return None

    def phase(self, name: str) -> _NullContext:
        return _NULL_CONTEXT

    def count(self, name: str, amount: float = 1, **labels: str) -> None:
        return None

    def count_total(self, name: str, total: float, **labels: str) -> None:
        return None

    def gauge_set(self, name: str, value: float, **labels: str) -> None:
        return None

    def observe(self, name: str, value: float, **labels: str) -> None:
        return None

    def record_overrun(self, n_poll: int, overshoot_s: float) -> None:
        return None

    def record_cadence_ok(self) -> None:
        return None


#: The shared disabled instance — the default everywhere.
NULL_TELEMETRY = NullTelemetry()


class Telemetry:
    """Live instrumentation: span lifecycle + metrics registry.

    One instance per watched engine. All recording goes through this
    facade so the call sites stay one-liners and the null
    implementation can mirror them exactly.
    """

    enabled = True

    def __init__(self, *, unix_clock: Callable[[], float] = time.time) -> None:
        self.registry = MetricsRegistry()
        self.last_span: PollSpan | None = None
        self.overrun_streak = 0
        self._span: PollSpan | None = None
        self._unix_clock = unix_clock
        self._n_spans = 0

    # -- span lifecycle -------------------------------------------------

    def begin_poll(self) -> PollSpan:
        if self._span is not None:
            raise ReproError("telemetry: begin_poll with a span open")
        self._n_spans += 1
        self._span = PollSpan(self._n_spans, unix_time=self._unix_clock())
        return self._span

    def end_poll(self, result=None) -> PollSpan:
        span = self._span
        if span is None:
            raise ReproError("telemetry: end_poll without begin_poll")
        self._span = None
        span.finish()
        if result is not None:
            span.n_poll = result.n_poll
            span.n_sealed = result.n_sealed
            span.n_files = result.n_files
        self.registry.histogram("poll_seconds").observe(span.wall_s)
        self.last_span = span
        return span

    def abort_poll(self) -> None:
        """Discard an open span after a failed poll (no observation —
        a poll that raised measured nothing meaningful). The fleet
        scheduler calls this before parking a job in ``failed`` state
        so the next ``begin_poll`` does not trip the open-span guard."""
        self._span = None

    # -- recording ------------------------------------------------------

    def phase(self, name: str) -> _PhaseContext:
        return _PhaseContext(self, name)

    def _record_phase(self, name: str, wall: float, cpu: float) -> None:
        span = self._span
        if span is not None:
            timing = span.phase(name)
            timing.wall_s += wall
            timing.cpu_s += cpu
            timing.entries += 1
        self.registry.histogram("phase_seconds", phase=name).observe(wall)
        self.registry.counter("phase_cpu_seconds_total",
                              phase=name).inc(max(cpu, 0.0))

    def count(self, name: str, amount: float = 1, **labels: str) -> None:
        self.registry.counter(name, **labels).inc(amount)

    def count_total(self, name: str, total: float, **labels: str) -> None:
        """Mirror an externally owned this-life monotonic total."""
        self.registry.counter(name, **labels).set_live_total(total)

    def gauge_set(self, name: str, value: float, **labels: str) -> None:
        self.registry.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        self.registry.histogram(name, **labels).observe(value)

    # -- cadence --------------------------------------------------------

    def record_overrun(self, n_poll: int, overshoot_s: float) -> None:
        self.overrun_streak += 1
        self.registry.counter("poll_overruns_total").inc()
        self.registry.gauge("poll_overrun_streak").set(self.overrun_streak)

    def record_cadence_ok(self) -> None:
        self.overrun_streak = 0
        self.registry.gauge("poll_overrun_streak").set(0)

    # -- snapshot / persistence -----------------------------------------

    def snapshot(self) -> dict:
        """The full current state as plain JSON-able data: the unit of
        the metrics log, the ``/healthz`` input, and the persisted
        checkpoint payload."""
        counters, gauges, histograms = [], [], []
        for name, metrics in self.registry.families():
            for metric in metrics:
                labels = dict(metric.labels)
                if hasattr(metric, "buckets"):
                    histograms.append({
                        "name": name, "labels": labels,
                        "buckets": list(metric.buckets),
                        "counts": metric.merged_counts(),
                        "sum": metric.merged_sum,
                        "count": metric.merged_count,
                    })
                elif hasattr(metric, "base"):
                    counters.append({"name": name, "labels": labels,
                                     "value": metric.value})
                else:
                    gauges.append({"name": name, "labels": labels,
                                   "value": metric.value})
        return {
            "version": SNAPSHOT_VERSION,
            "unix_time": self._unix_clock(),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "last_poll": (self.last_span.to_json()
                          if self.last_span is not None else None),
            "overrun_streak": self.overrun_streak,
        }

    def update_rss(self) -> None:
        self.registry.gauge("rss_bytes").set(rss_bytes())

    def to_state(self) -> dict:
        """Checkpoint payload (see :mod:`repro.live.checkpoint`)."""
        return {"snapshot": self.snapshot()}

    def restore_state(self, state: dict | None) -> None:
        """Adopt a previous life's totals as counter/histogram bases.

        ``None`` — every previous life ran uninstrumented — restores
        nothing. Gauges and the last span are point-in-time and not
        restored; ``overrun_streak`` deliberately resets — a streak is
        a this-life cadence property. Sidecars load at one version, so
        a missing key (``KeyError``) or a metric this build does not
        declare (``ValueError``) means the sidecar is corrupt.
        """
        if state is None:
            return
        snapshot = state["snapshot"]
        for entry in snapshot["counters"]:
            self._restored("counter", entry).restore(entry["value"])
        for entry in snapshot["histograms"]:
            self._restored("histogram", entry).restore(
                entry["counts"], entry["sum"], entry["count"])

    def _restored(self, kind: str, entry: dict):
        """The registry metric a snapshot entry restores into."""
        name = entry["name"]
        if name not in METRICS:
            raise ValueError(f"unknown {kind} {name!r}")
        return getattr(self.registry, kind)(name, **entry["labels"])
