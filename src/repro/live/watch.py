"""The ``st-inspector watch`` refresh loop.

Periodically polls a :class:`~repro.live.engine.LiveIngest` and prints
a status block; whenever the graph moved, the block includes the
ASCII-rendered DFG (:mod:`repro.core.render.ascii`) with the elements
that changed since the previous refresh highlighted: the current and
previous snapshots act as the green/red halves of a
:class:`~repro.core.coloring.PartitionColoring` — new nodes/edges tag
``[G]``, vanished ones are reported by the numeric
:class:`~repro.core.diff.DFGDiff` summary (an edge *can* vanish live:
a case's closing ``(a, ■)`` edge moves when the case grows).

If the engine carries an :class:`~repro.alerts.AlertEngine`
(``LiveIngest(alerts=...)`` — the CLI's ``--rules``), the loop
evaluates it after every poll and the refresh block gains a
highlighted ``ALERTS`` pane listing what fired; the status line also
surfaces sealing starvation (per-file watermark age, the same
:meth:`~repro.live.engine.LiveIngest.watermark_ages` accessor the
``watermark_age`` rule reads).

The loop is dependency-injectable (``out``, ``sleep``) so tests drive
it without a terminal or a clock; the CLI passes the defaults.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Callable

from repro._util.errors import ReproError
from repro.core.coloring import PartitionColoring
from repro.core.dfg import DFG
from repro.core.diff import DFGDiff
from repro.core.render.ascii import render_ascii
from repro.live.engine import LiveIngest, PollResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.alerts import Alert


class WatchView:
    """Stateful renderer of watch refreshes (remembers the baseline)."""

    def __init__(self, engine: LiveIngest, *, show_dfg: bool = True,
                 show_stats: bool = True, top: int = 5) -> None:
        self.engine = engine
        self.show_dfg = show_dfg
        self.show_stats = show_stats
        self.top = top
        self._baseline: DFG | None = None

    def refresh(self, result: PollResult,
                alerts: "list[Alert] | None" = None) -> str:
        """Render one poll's outcome; advances the change baseline.

        ``alerts`` are the records fired by this refresh — rendered as
        a pane right under the status line, *before* the diff and the
        graph, so a paging condition is the first thing an operator
        scanning the refresh sees.
        """
        engine = self.engine
        lines = [self._status_line(result)]
        telemetry_row = self._telemetry_line()
        if telemetry_row:
            lines.append(telemetry_row)
        if alerts:
            lines.append(self._alerts_pane(alerts))
        if result.changed or self._baseline is None:
            current = engine.snapshot_dfg()
            if self._baseline is not None:
                diff = DFGDiff(current, self._baseline)
                lines.append(diff.report(top=self.top).rstrip("\n"))
            if self.show_dfg:
                lines.append(self._render_dfg(current).rstrip("\n"))
            self._baseline = current
        return "\n".join(lines) + "\n"

    def _status_line(self, result: PollResult) -> str:
        engine = self.engine
        news = (f" (+{len(result.new_files)} new: "
                f"{', '.join(result.new_files[:4])}"
                f"{', …' if len(result.new_files) > 4 else ''})"
                if result.new_files else "")
        return (f"poll {result.n_poll}: {result.n_files} files{news}, "
                f"{engine.incremental.n_cases} cases, "
                f"{result.total_events} events "
                f"(+{result.n_sealed} sealed, {result.n_pending} "
                f"in-flight, {result.n_buffered} buffered), "
                f"DFG {engine.incremental.n_nodes} nodes / "
                f"{engine.incremental.n_edges} edges"
                f"{self._starvation_note()}")

    def _starvation_note(self) -> str:
        """Sealing-starvation suffix: which files hold records back,
        and by how much trace time (the ROADMAP diagnostic — an
        unfinished call that never resumes parks everything behind
        it until finalize)."""
        ages = self.engine.watermark_ages()
        if not ages:
            return ""
        worst = max(ages, key=lambda case: (ages[case], case))
        return (f", sealing starved: {len(ages)} file(s), "
                f"worst {worst} at {ages[worst] / 1e6:.3f}s")

    def _telemetry_line(self) -> str:
        """One TELEMETRY row under the status line when the engine is
        instrumented: the completed poll's wall/CPU time, its heaviest
        phases, and the two tallies an operator wants at a glance
        (cadence overruns, sink failures). Empty — no row at all —
        when telemetry is off, keeping the uninstrumented rendering
        byte-identical."""
        telemetry = self.engine.telemetry
        span = telemetry.last_span
        if span is None:
            return ""
        top = ", ".join(f"{p.name} {p.wall_s * 1e3:.1f}ms"
                        for p in span.top_phases(3))
        registry = telemetry.registry
        overruns = registry.counter("poll_overruns_total").value
        failures = registry.counter_sum("sink_failures_total")
        extras = ""
        if overruns:
            extras += f", overruns {int(overruns)}"
        if failures:
            extras += f", sink failures {int(failures)}"
        return (f"  TELEMETRY: poll {span.wall_s * 1e3:.1f}ms wall / "
                f"{span.cpu_s * 1e3:.1f}ms cpu"
                + (f" [{top}]" if top else "") + extras)

    def _alerts_pane(self, alerts: "list[Alert]") -> str:
        total = (self.engine.alerts.n_fired
                 if self.engine.alerts is not None else len(alerts))
        header = (f"  ALERTS: {len(alerts)} fired this refresh "
                  f"({total} total)")
        body = [f"  {alert.render_line()}" for alert in alerts]
        return "\n".join([header, *body])

    def _render_dfg(self, current: DFG) -> str:
        """ASCII DFG with change highlighting.

        Statistics are assembled from the engine's standing
        accumulators (:meth:`~repro.live.engine.LiveIngest.statistics`)
        — O(delta) per refresh, full history even after checkpoint
        restarts, so the Load/DR labels always describe the same span
        of events as the graph they annotate.
        """
        stats = None
        if self.show_stats:
            computed = self.engine.statistics()
            if len(computed):
                stats = computed
        styler = (PartitionColoring(current, self._baseline, stats)
                  if self._baseline is not None else None)
        return render_ascii(current, stats, styler)


def run_watch(engine: LiveIngest, *,
              interval: float = 2.0,
              polls: int | None = None,
              show_dfg: bool = True,
              show_stats: bool = True,
              top: int = 5,
              metrics_port: int | None = None,
              metrics_log: str | os.PathLike[str] | None = None,
              spec=None,
              out: Callable[[str], None] = print,
              sleep: Callable[[float], None] = time.sleep,
              clock: Callable[[], float] = time.monotonic) -> int:
    """Poll → render → checkpoint → sleep, until stopped.

    ``polls`` bounds the number of refreshes (``1`` is the CLI's
    ``--once``); ``None`` runs until KeyboardInterrupt. When the
    engine carries an alert engine, it is evaluated after every poll —
    *before* the checkpoint save, so the sidecar always holds the
    latches of the alerts it has seen fire and a kill between the two
    can at worst replay one refresh of sink deliveries, never lose a
    latch that was persisted. The engine's
    checkpoint (when configured) is saved after every poll that moved
    any state — including carry-only progress with nothing sealed —
    so a kill at any point loses at most one interval of work, while
    idle intervals skip the sidecar rewrite entirely (it is still
    written once if it does not exist yet). The
    interrupt handler deliberately does NOT save: a ^C landing inside
    ``poll()`` can leave byte offsets advanced past records not yet
    folded into the graph, and persisting that torn state would
    silently break the restart-equals-batch guarantee — the last
    post-poll sidecar is always consistent. Returns a process exit
    code.

    Scheduling is against *deadlines*, not fixed post-work sleeps:
    each poll is due ``interval`` after the previous one was due
    (``next = max(now, next + interval)``), so the work of a refresh —
    parsing a burst of trace bytes, a slow sink — does not silently
    stretch the cadence. A poll that overruns its successor's deadline
    starts the successor immediately and re-anchors (no sleepless
    catch-up bursts). ``clock`` is the monotonic time source, paired
    with ``sleep`` for tests.

    When the engine was constructed with ``emit=`` the destination
    ``.elog`` is packed from the durable journal on *every* exit path
    (poll budget exhausted, ^C, or an exception escaping the loop), so
    the file on disk always reflects everything sealed up to the stop.

    Telemetry (engine constructed with ``telemetry=``): every loop
    iteration is one :class:`~repro.telemetry.PollSpan` covering poll,
    alert evaluation and the checkpoint save; the rendering phase is
    timed into the cumulative histograms but deliberately sits outside
    the span, so the TELEMETRY row describes the poll it belongs to.
    ``metrics_port`` serves ``/metrics`` + ``/healthz`` from a daemon
    thread for the life of the loop (``0`` binds an ephemeral port,
    announced via ``out``); ``metrics_log`` appends one JSON snapshot
    line per poll. Both require an instrumented engine. A poll whose
    work overran the interval logs a structured ``OVERRUN`` line —
    with the span's phase breakdown when telemetry is on — instead of
    silently re-anchoring the cadence.

    Since the :mod:`repro.fleet` refactor this function is a one-job
    fleet: the loop body lives in
    :meth:`~repro.fleet.job.WatchJob.poll_once`, the cadence in
    :class:`~repro.fleet.scheduler.FleetScheduler` (no view, no fault
    isolation — exceptions propagate to the caller). The emitted
    bytes are identical to the pre-refactor loop.
    """
    # Lazy: repro.fleet.job imports WatchView from this module.
    from repro.fleet.job import WatchJob
    from repro.fleet.scheduler import FleetScheduler

    telemetry = engine.telemetry
    if (metrics_port is not None or metrics_log is not None) \
            and not telemetry.enabled:
        raise ReproError(
            "metrics exposition needs an instrumented engine: "
            "construct LiveIngest(telemetry=Telemetry()) (the CLI "
            "does this for --metrics-port/--metrics-log)")
    server = None
    if metrics_port is not None:
        from repro.telemetry.exposition import MetricsServer

        server = MetricsServer(telemetry, metrics_port)
        out(f"serving metrics on http://{server.host}:{server.port}"
            f"/metrics (health: /healthz)")
    # A JobSpec (the CLI passes its own) rides along for finalize-time
    # policy the bare engine cannot carry — today the --catalog commit
    # (run name, catalog path, recorded window/mapping metadata).
    job = WatchJob(engine, interval=interval, polls=polls,
                   show_dfg=show_dfg, show_stats=show_stats, top=top,
                   metrics_log=metrics_log, spec=spec)
    scheduler = FleetScheduler([job], out=out, sleep=sleep,
                               clock=clock)
    try:
        return scheduler.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        out(f"stopped after {job.completed} poll(s); "
            + (f"checkpoint as of the last completed poll: "
               f"{engine.checkpoint_path}"
               if engine.checkpoint_path is not None and job.completed
               else "no checkpoint written"))
        return 0
    finally:
        # Packs on *every* exit path — poll budget (already packed by
        # the scheduler; idempotent no-op here), ^C (after the stop
        # message), and an unexpected exception mid-watch: the durable
        # journal always reaches the destination .elog. Closing then
        # releases the journal's append handle, as the fleet does.
        try:
            packed = job.finalize()
            if packed is not None:
                out(f"emitted event log: {packed}")
        finally:
            job.close()
            if server is not None:
                server.close()
