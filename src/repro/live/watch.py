"""The ``st-inspector watch`` refresh view.

:class:`WatchView` renders one poll of a
:class:`~repro.live.engine.LiveIngest` as a status block; whenever the
graph moved, the block includes the ASCII-rendered DFG
(:mod:`repro.core.render.ascii`) with the elements that changed since
the previous refresh highlighted: the current and previous snapshots
act as the green/red halves of a
:class:`~repro.core.coloring.PartitionColoring` — new nodes/edges tag
``[G]``, vanished ones are reported by the numeric
:class:`~repro.core.diff.DFGDiff` summary (an edge *can* vanish live:
a case's closing ``(a, ■)`` edge moves when the case grows).

Alerts fired by the poll (the CLI's ``--rules``) render as a
highlighted ``ALERTS`` pane; the status line also surfaces sealing
starvation (per-file watermark age, the same
:meth:`~repro.live.engine.LiveIngest.watermark_ages` accessor the
``watermark_age`` rule reads). The loop that drives the view — poll,
alerts, checkpoint, render, sleep — is a one-job
:class:`~repro.fleet.scheduler.FleetScheduler`
(:class:`~repro.fleet.job.WatchJob` owns one view).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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
