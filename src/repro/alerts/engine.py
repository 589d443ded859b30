"""The alert engine: rules × one refresh delta → routed alerts.

:class:`AlertEngine` is evaluated once per
:meth:`~repro.live.engine.LiveIngest.poll` by the watch loop. Each
:meth:`~AlertEngine.evaluate`:

1. snapshots the live engine (graph, O(delta)-assembled statistics,
   watermark ages) into one shared
   :class:`~repro.alerts.rules.RefreshContext` — rules never touch the
   live engine directly;
2. runs every rule, collecting the alerts whose latched conditions
   newly tripped this refresh;
3. appends them to the persistent :attr:`history` *first*, then fans
   them out to the sinks (a crashing sink cannot lose an alert).

Attach the engine to the :class:`~repro.live.engine.LiveIngest`
(``LiveIngest(..., alerts=engine)``) and checkpoint sidecars
persist the rule latches and the alert history: a restarted watcher
neither re-fires alerts its previous life already paged nor forgets
them.

Basic programmatic use (files usually come from ``--rules``)::

    >>> from repro.alerts import AlertEngine, StatThresholdRule
    >>> engine = AlertEngine()
    >>> engine.add_rule(StatThresholdRule(
    ...     "hot-activity", metric="event_count", op=">", value=1000))
    AlertEngine(1 rules, 0 sinks, 0 fired)
    >>> [rule.name for rule in engine.rules]
    ['hot-activity']
"""

from __future__ import annotations

import os
import time
import warnings
from typing import TYPE_CHECKING, Callable

from repro.alerts.config import load_rules_file
from repro.alerts.model import Alert
from repro.alerts.queue import DeliveryQueue, QueueConfig
from repro.alerts.rules import AlertConfigError, RefreshContext, Rule
from repro.alerts.sinks import (AlertSink, SinkFailureThrottle,
                                throttled_warn)
from repro.core.dfg import DFG
from repro.core.statistics import IOStatistics
from repro.telemetry.spans import NULL_TELEMETRY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.live.engine import LiveIngest, PollResult


def empty_alert_state() -> dict:
    """The alert state a fresh (or alert-less) watch persists."""
    return {"rules": {}, "history": []}


class AlertEngine:
    """Declarative threshold rules over live refresh deltas.

    Parameters
    ----------
    rules:
        Initial :class:`~repro.alerts.rules.Rule` list (extend with
        :meth:`add_rule`).
    sinks:
        Where fired alerts are routed besides :attr:`history` and the
        watch pane (:mod:`repro.alerts.sinks`).
    baseline:
        Optional reference run to compare against: any trace-source
        spec (``"elog:good.elog"``, ``"sim:ior?ranks=4"``, a bare
        path). Resolved lazily on first evaluation *with the live
        engine's mapping*, so baseline activities live in the same
        namespace as live ones.
    history_limit:
        Cap on the full alert records kept in :attr:`history` (and
        therefore rewritten into every checkpoint). Oldest records
        beyond the cap are *compacted* into per-identity counts —
        :attr:`n_fired` and restart-dedup stay exact while the
        sidecar stops growing with a chatty rule. ``None`` (default)
        keeps everything.
    clock:
        Wall-clock source for rule cooldown windows (injectable for
        tests); ``None`` disables cooldown gating entirely.
    queue:
        Optional :class:`~repro.alerts.queue.QueueConfig`: route fired
        alerts through a bounded background
        :class:`~repro.alerts.queue.DeliveryQueue` instead of emitting
        to the sinks inline, so poll wall-time stays independent of
        sink latency. ``None`` (default) keeps synchronous delivery.
        Call :meth:`shutdown` (the watch loop's ``finalize()`` does)
        to drain it.
    """

    def __init__(self, rules: "list[Rule] | None" = None, *,
                 sinks: "list[AlertSink] | None" = None,
                 baseline: str | os.PathLike[str] | None = None,
                 history_limit: int | None = None,
                 clock: Callable[[], float] | None = time.time,
                 queue: QueueConfig | None = None) -> None:
        if history_limit is not None and history_limit < 1:
            raise AlertConfigError(
                f"history_limit must be >= 1 (got {history_limit})")
        self.rules: list[Rule] = list(rules or [])
        self.sinks: list[AlertSink] = list(sinks or [])
        self.baseline = os.fspath(baseline) if baseline is not None \
            else None
        self.history_limit = history_limit
        self.clock = clock
        #: The newest alert records, full-fidelity (checkpoint-
        #: persisted, so the span covers watcher restarts); bounded
        #: by ``history_limit``.
        self.history: list[Alert] = []
        #: identity -> count of alerts compacted out of :attr:`history`
        #: (empty until a ``history_limit`` overflows).
        self.compacted: dict[tuple[str, str, str], int] = {}
        #: Pre-compaction export callback: called with the full alert
        #: records *about to* be folded into :attr:`compacted` counts,
        #: before the fold discards their detail. The run catalog's
        #: :class:`~repro.catalog.export.AlertExportBuffer` is the
        #: standard consumer; any ``Callable[[list[Alert]], None]``
        #: works. Without a hook, the first lossy compaction warns
        #: once.
        self.export_hook: Callable[[list[Alert]], None] | None = None
        self._warned_compaction_loss = False
        self._baseline_pair: tuple[DFG, IOStatistics] | None = None
        self._prev_dfg: DFG | None = None
        self._prev_stats: IOStatistics | None = None
        # Warning throttles for sinks that *raise* out of emit() (a
        # sink's own failure handling uses its .throttle); keyed by
        # sink index so two instances of one class stay independent.
        self._sink_throttles: dict[int, SinkFailureThrottle] = {}
        #: Background delivery queue (``[sinks.queue]``), or ``None``
        #: for synchronous inline delivery.
        self.delivery: DeliveryQueue | None = None
        if queue is not None:
            self.delivery = DeliveryQueue(
                self._deliver_alert, maxsize=queue.maxsize)

    @classmethod
    def from_rules_file(cls, path: str | os.PathLike[str], *,
                        baseline: str | os.PathLike[str] | None = None,
                        extra_sinks: "list[AlertSink] | None" = None,
                        ) -> "AlertEngine":
        """Build from a TOML/JSON rules file (see ``docs/rules.md``).

        ``baseline`` overrides the file's ``baseline =`` entry (the
        CLI's ``--baseline`` flag). ``extra_sinks`` are appended after
        the file's ``[sinks]`` (the CLI's ``--alert-log`` jsonl sink,
        a fleet job's per-job ``alert_log``). The configuration is
        :meth:`validate`-d before returning: a baseline-requiring rule
        without a baseline, or an unresolvable baseline source, fails
        here — at startup — not minutes into the first poll of a huge
        directory.
        """
        config = load_rules_file(path)
        chosen = baseline if baseline is not None else config.baseline
        engine = cls(config.rules,
                     sinks=[*config.sinks, *(extra_sinks or [])],
                     baseline=chosen,
                     history_limit=config.history_limit,
                     queue=config.queue)
        engine.validate()
        return engine

    # -- configuration -----------------------------------------------------

    def validate(self) -> "AlertEngine":
        """Fail fast on configurations that cannot ever evaluate.

        Checks that every baseline-requiring rule
        (``absent_from_baseline``, ``against = "baseline"``) has a
        baseline configured, and that the baseline spec itself
        resolves to a source (missing path, unknown scheme). Called by
        :meth:`from_rules_file`; call it yourself after programmatic
        :meth:`add_rule` chains if you want the same startup
        guarantee — evaluation re-checks lazily either way.
        """
        if self.baseline is None:
            needy = [rule.name for rule in self.rules
                     if rule.needs_baseline]
            if needy:
                raise AlertConfigError(
                    f"rule(s) {', '.join(map(repr, needy))} compare "
                    f"against a baseline, but no baseline source is "
                    f"configured (set baseline = \"...\" in the rules "
                    f"file or pass --baseline)")
        else:
            from repro.sources import open_source

            # Resolve (not ingest) the spec: catches missing paths and
            # unknown schemes now; the log itself is built lazily at
            # first evaluation, with the live engine's mapping.
            open_source(self.baseline)
        return self

    def add_rule(self, rule: Rule) -> "AlertEngine":
        """Register a rule (chainable)."""
        self.rules.append(rule)
        return self

    def add_sink(self, sink: AlertSink) -> "AlertEngine":
        """Register a sink (chainable)."""
        self.sinks.append(sink)
        return self

    @property
    def n_fired(self) -> int:
        """Alerts fired over the (checkpoint-spanning) lifetime —
        full records still in :attr:`history` plus everything
        compacted into counts."""
        return len(self.history) + sum(self.compacted.values())

    # -- evaluation --------------------------------------------------------

    def evaluate(self, engine: "LiveIngest",
                 result: "PollResult") -> list[Alert]:
        """Run every rule against the refresh that produced ``result``.

        Returns the alerts fired by *this* refresh (already recorded
        in :attr:`history` and routed to the sinks). Call once per
        poll — the previous-snapshot baseline the ``against =
        "previous"`` rules compare to advances here.
        """
        telemetry = getattr(engine, "telemetry", None) or NULL_TELEMETRY
        with telemetry.phase("alerts"):
            current = engine.snapshot_dfg()
            stats = engine.statistics()
            baseline_dfg, baseline_stats = self._baseline_for(engine)
            ctx = RefreshContext(
                n_poll=result.n_poll,
                total_events=result.total_events,
                current=current,
                previous=self._prev_dfg,
                stats=stats,
                previous_stats=self._prev_stats,
                baseline_dfg=baseline_dfg,
                baseline_stats=baseline_stats,
                watermark_ages=engine.watermark_ages(),
                now=self.clock() if self.clock is not None else None,
            )
            fired: list[Alert] = []
            for rule in self.rules:
                fired.extend(rule.evaluate(ctx))
            self._prev_dfg = current
            self._prev_stats = stats
            self.history.extend(fired)
            self._compact()
        for alert in fired:
            if self.delivery is not None:
                # Background road: evaluate() returns as soon as the
                # alert is queued; the worker thread runs the same
                # _deliver_alert fan-out later. The alert is already
                # safe in the history (and the next checkpoint) above.
                self.delivery.submit(alert, telemetry)
            else:
                self._deliver_alert(alert, telemetry, in_phase=True)
        if telemetry.enabled:
            if fired:
                telemetry.count("alerts_fired_total", len(fired))
            self._record_sink_metrics(telemetry)
            if self.delivery is not None:
                telemetry.gauge_set("sink_queue_depth",
                                    self.delivery.depth)
                telemetry.count_total("sink_queue_dropped_total",
                                      self.delivery.n_dropped)
                telemetry.count_total("sink_queue_delivered_total",
                                      self.delivery.n_delivered)
        return fired

    def _deliver_alert(self, alert: Alert, telemetry,
                       *, in_phase: bool = False) -> None:
        """Fan one alert out to every sink.

        Shared by inline delivery (from :meth:`evaluate`, inside the
        poll) and the background :class:`DeliveryQueue` worker —
        throttles, warnings and per-sink metrics are identical on both
        roads. ``in_phase`` wraps each emit in a per-sink telemetry
        phase; only the poll thread may do that (poll spans are not
        thread-safe), so the queue worker leaves it off.
        """
        for index, sink in enumerate(self.sinks):
            # The paging path must not take down the monitoring
            # path: a crashing sink (full disk, dead pager, buggy
            # user sink) warns — rate-limited per sink — and the
            # alert is already safe in the history.
            label = f"{type(sink).__name__}#{index}"
            began = time.perf_counter()
            try:
                if in_phase:
                    with telemetry.phase(f"sink:{label}"):
                        sink.emit(alert)
                else:
                    sink.emit(alert)
            except Exception as exc:
                throttled_warn(
                    self._sink_throttle(index),
                    f"alert sink {type(sink).__name__} failed for "
                    f"{alert.identity}: {exc}")
            else:
                self._sink_throttle(index).record_success()
            if telemetry.enabled:
                telemetry.observe(
                    "sink_seconds", time.perf_counter() - began,
                    sink=label)

    def drain(self, timeout: float | None = None) -> bool:
        """Wait for every queued alert to reach the sinks (no-op and
        True when delivery is synchronous)."""
        if self.delivery is None:
            return True
        return self.delivery.drain(timeout)

    def shutdown(self, timeout: float | None = None) -> bool:
        """Drain and stop the background delivery queue. Idempotent;
        a no-op (returning True) for synchronous engines. Called by
        ``LiveIngest.close()`` / the watch loop's ``finalize()``."""
        if self.delivery is None:
            return True
        return self.delivery.close(timeout)

    def _sink_throttle(self, index: int) -> SinkFailureThrottle:
        throttle = self._sink_throttles.get(index)
        if throttle is None:
            throttle = self._sink_throttles[index] = SinkFailureThrottle()
        return throttle

    def _record_sink_metrics(self, telemetry) -> None:
        """Mirror sink-owned tallies into the registry and publish the
        worst failure streak (the ``/healthz`` sink check)."""
        telemetry.count_total(
            "alerts_suppressed_total",
            sum(rule.n_suppressed for rule in self.rules))
        worst_streak = 0
        for index, sink in enumerate(self.sinks):
            label = f"{type(sink).__name__}#{index}"
            own = getattr(sink, "throttle", None)
            raised = self._sink_throttles.get(index)
            failures = suppressed = 0
            for throttle in (own, raised):
                if throttle is None:
                    continue
                failures += throttle.n_failures
                suppressed += throttle.n_suppressed
                worst_streak = max(worst_streak, throttle.streak)
            telemetry.count_total("sink_failures_total", failures,
                                  sink=label)
            telemetry.count_total("sink_warnings_suppressed_total",
                                  suppressed, sink=label)
            retries = getattr(sink, "n_retries", None)
            if retries is not None:
                telemetry.count_total("sink_retries_total", retries,
                                      sink=label)
        telemetry.gauge_set("sink_failure_streak", worst_streak)

    def _baseline_for(self, engine: "LiveIngest",
                      ) -> tuple[DFG | None, IOStatistics | None]:
        if self.baseline is None:
            return None, None
        if self._baseline_pair is None:
            from repro.sources import open_source

            source = open_source(self.baseline)
            supplier = getattr(source, "baseline_pair", None)
            if supplier is not None:
                # A source that stores aggregates rather than events
                # (the run catalog) mines (DFG, stats) directly for
                # the live mapping instead of replaying an event-log.
                self._baseline_pair = supplier(engine.mapping)
            else:
                log = source.event_log()
                mapped = log.with_mapping(engine.mapping)
                self._baseline_pair = (DFG(mapped), IOStatistics(mapped))
        return self._baseline_pair

    def _compact(self) -> None:
        """Fold history overflow into per-identity counts.

        The newest ``history_limit`` records stay full-fidelity;
        everything older degrades to ``identity -> count`` — exactly
        the information :attr:`n_fired` and duplicate accounting need,
        at O(distinct identities) instead of O(firings). This is what
        bounds the sidecar under a flapping rule.

        When an :attr:`export_hook` is attached, the full records are
        handed to it *before* the fold, so detail loss is opt-out (the
        run catalog captures them for the run's alert history);
        without one, the first lossy compaction warns once.
        """
        if self.history_limit is None:
            return
        excess = len(self.history) - self.history_limit
        if excess <= 0:
            return
        discarded = self.history[:excess]
        if self.export_hook is not None:
            try:
                self.export_hook(discarded)
            except Exception as exc:
                # Export is a capture path, not the monitoring path: a
                # failing hook must not take down compaction.
                warnings.warn(
                    f"alert export hook failed; {len(discarded)} "
                    f"compacted alert(s) lost full detail: {exc}",
                    RuntimeWarning, stacklevel=2)
        elif not self._warned_compaction_loss:
            self._warned_compaction_loss = True
            warnings.warn(
                f"alert history_limit={self.history_limit} reached: "
                f"compaction is folding older alerts into counts and "
                f"discarding their detail (attach an export hook or "
                f"record runs to a catalog to capture them); this "
                f"warning fires once per engine",
                RuntimeWarning, stacklevel=2)
        for alert in discarded:
            key = alert.identity
            self.compacted[key] = self.compacted.get(key, 0) + 1
        del self.history[:excess]

    # -- checkpoint state --------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serializable latch + history state (checkpoint
        sidecars).

        Latches are keyed by rule name; a restart with a different
        rules file restores what still matches and starts the rest
        fresh. The previous-refresh snapshot is deliberately *not*
        persisted — ``against = "previous"`` deltas are a per-process
        notion, and the first refresh of a new life has no previous.
        The ``"compacted"`` counts appear only once compaction
        happened.
        """
        state = {
            "rules": {rule.name: rule.latch_state()
                      for rule in self.rules},
            "history": [alert.to_json() for alert in self.history],
        }
        if self.compacted:
            state["compacted"] = [
                [list(identity), count]
                for identity, count in sorted(self.compacted.items())]
        return state

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`to_state` (called by checkpoint load).

        ``"rules"`` and ``"history"`` are always written, so a missing
        one raises ``KeyError`` (a corrupt sidecar); ``"compacted"`` is
        absent until compaction happened.
        """
        latches = state["rules"]
        for rule in self.rules:
            if rule.name in latches:
                rule.restore_latch(latches[rule.name])
        self.history = [Alert.from_json(data) for data in state["history"]]
        self.compacted = {
            (str(rule), str(kind), str(subject)): int(count)
            for (rule, kind, subject), count
            in state.get("compacted", [])}
        self._compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AlertEngine({len(self.rules)} rules, "
                f"{len(self.sinks)} sinks, {self.n_fired} fired)")
