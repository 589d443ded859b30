"""The scheduler layer: many jobs, one cooperative loop.

:class:`FleetScheduler` deadline-schedules N :class:`~repro.fleet.job.
WatchJob`\\ s on one thread under deadline scheduling
(``next = max(now, next + interval)``), per job: each job's next poll
is due ``interval`` after its previous one was *due*, so one job's
slow refresh never silently stretches its own cadence, and the
scheduler simply runs whichever job's deadline is earliest (FIFO
among ties, so zero-interval jobs round-robin instead of starving
each other). ``st-inspector watch`` is the one-job case.

**Fault isolation** (``isolate=True``, the fleet CLI): a job whose
poll raises transitions to ``failed`` instead of taking the process
down — the open telemetry span is aborted, a structured ``JOB FAILED``
event and a fleet status frame are emitted, and the job is re-due
after an exponential backoff (doubling from its interval, capped).
When its backoff deadline arrives the scheduler *rebuilds* the job
from its spec — the in-process equivalent of kill/restart, restoring
from the job's own checkpoint — and resumes polling. ``max_restarts``
bounds the consecutive attempts; beyond it the job is ``stopped``
(its emit journal still packs) and its siblings keep running.

With ``isolate=False`` (the single-job ``watch`` path) exceptions
propagate to the caller unchanged.

On every exit from :meth:`FleetScheduler.run` — budget spent, ^C, an
exception — each job is finalized (its ``--emit`` destination packed,
its catalog run committed) and closed.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from repro.fleet.job import PollOutcome, WatchJob

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fleet.view import FleetView
    from repro.telemetry.spans import PollSpan


def _overrun_line(n_poll: int, interval: float, overshoot: float,
                  span: "PollSpan | None") -> str:
    """The structured overrun event: which poll, by how much, and —
    when telemetry is on — where the time went."""
    line = (f"OVERRUN poll {n_poll}: work exceeded the {interval:g}s "
            f"interval by {overshoot:.3f}s; cadence re-anchored")
    if span is not None:
        breakdown = ", ".join(
            f"{p.name} {p.wall_s:.3f}s" for p in span.top_phases(3))
        if breakdown:
            line += f" ({breakdown})"
    return line


class FleetScheduler:
    """Cooperative deadline scheduler over a list of jobs.

    ``out``/``sleep``/``clock`` are injectable — tests drive a whole
    fleet without a terminal or a wall clock. ``view`` (a
    :class:`~repro.fleet.view.FleetView`) turns on the interleaved
    presentation: per-job ``[name]`` line prefixes and fleet status
    frames on every state change. With ``view=None`` output is raw —
    the single-job ``watch`` mode.
    """

    def __init__(self, jobs: "list[WatchJob]", *,
                 out: Callable[[str], None] = print,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic,
                 view: "FleetView | None" = None,
                 isolate: bool = False,
                 max_restarts: int | None = None,
                 max_backoff: float = 300.0) -> None:
        self.jobs = list(jobs)
        self._out = out
        self._sleep = sleep
        self._clock = clock
        self._view = view
        self._isolate = isolate
        self._max_restarts = max_restarts
        self._max_backoff = max_backoff
        self._seq = 0

    # -- the loop ----------------------------------------------------------

    def run(self) -> int:
        """Poll every job on its own cadence until all are done.

        Returns a process exit code (0). KeyboardInterrupt propagates
        — the presentation layer owns the stop message — once every
        job is finalized and closed.
        """
        now = self._clock()
        for index, job in enumerate(self.jobs):
            job.deadline = now
            job._order = index
        self._seq = len(self.jobs)
        if self._view is not None and self.jobs:
            self._out(self._view.status_frame(self.jobs))
        try:
            while True:
                job = self._next_job()
                if job is None:
                    return 0
                delay = job.deadline - self._clock()
                if delay > 0:
                    self._sleep(delay)
                self._visit(job)
        finally:
            # Every exit path — budget spent, ^C, a poll raising under
            # isolate=False — packs the durable journal into the .elog,
            # so the file on disk reflects everything sealed up to the
            # stop. Nothing here saves a checkpoint: the last post-poll
            # sidecar is the consistent one.
            self._finalize_all()

    def _finalize_all(self) -> None:
        """Finalize (idempotent) and close every job. Under isolation
        a failed pack is reported and the other jobs still finalize;
        without it the job is closed and the failure re-raised."""
        for job in self.jobs:
            try:
                packed = job.finalize()
            except Exception as exc:
                if not self._isolate:
                    raise
                self._emit_line(job, f"emit pack failed: {exc}")
                packed = None
            finally:
                job.close()
            if packed is not None:
                self._emit_line(job, f"emitted event log: {packed}")

    def _next_job(self) -> "WatchJob | None":
        runnable = [job for job in self.jobs
                    if job.state not in ("done", "stopped")]
        if not runnable:
            return None
        return min(runnable, key=lambda job: (job.deadline, job._order))

    # -- one visit ---------------------------------------------------------

    def _visit(self, job: WatchJob) -> None:
        # FIFO tie-break: after a visit the job queues behind every
        # same-deadline sibling (zero-interval fleets round-robin).
        job._order = self._seq
        self._seq += 1
        if job.state == "failed":
            try:
                job.rebuild()
            except KeyboardInterrupt:  # pragma: no cover - interactive
                raise
            except Exception as exc:
                self._record_failure(job, exc)
                return
            job.restarts += 1
            telemetry = job.engine.telemetry
            if telemetry.enabled:
                telemetry.count("job_restarts_total")
            self._emit_line(job, f"JOB RESTARTED (restart "
                                 f"{job.restarts})")
        try:
            outcome = job.poll_once()
        except KeyboardInterrupt:  # pragma: no cover - interactive
            raise
        except Exception as exc:
            if not self._isolate:
                raise
            self._record_failure(job, exc)
            return
        job.failures = 0
        self._emit(job, outcome.text)
        job.record_snapshot()
        if job.state != "running":
            self._set_state(job, "running")
        if job.exhausted:
            packed = job.finalize()
            if packed is not None:
                self._emit_line(job, f"emitted event log: {packed}")
            self._set_state(job, "done")
            return
        self._advance_deadline(job, outcome)

    def _advance_deadline(self, job: WatchJob,
                          outcome: PollOutcome) -> None:
        due = job.deadline + job.interval
        now = self._clock()
        telemetry = job.engine.telemetry
        if job.interval > 0 and now > due:
            telemetry.record_overrun(outcome.result.n_poll, now - due)
            self._emit_line(job, _overrun_line(
                outcome.result.n_poll, job.interval, now - due,
                outcome.span))
        else:
            telemetry.record_cadence_ok()
        job.deadline = max(now, due)

    # -- failure handling --------------------------------------------------

    def _record_failure(self, job: WatchJob, exc: Exception) -> None:
        job.failures += 1
        # A poll that raised mid-span leaves it open; discard it so
        # the rebuilt (or retried) job's begin_poll doesn't trip the
        # open-span guard.
        job.engine.telemetry.abort_poll()
        if self._max_restarts is not None \
                and job.failures > self._max_restarts:
            self._emit_line(
                job, f"JOB STOPPED: {exc}; gave up after "
                     f"{job.failures} consecutive failure(s)")
            self._set_state(job, "stopped")
            try:
                packed = job.finalize()
            except Exception as pack_exc:
                self._emit_line(job, f"emit pack failed: {pack_exc}")
                packed = None
            if packed is not None:
                self._emit_line(job, f"emitted event log: {packed}")
            return
        backoff = min(self._max_backoff,
                      max(job.interval, 1.0) * 2 ** (job.failures - 1))
        self._emit_line(
            job, f"JOB FAILED: {exc}; restart in {backoff:g}s "
                 f"(failure {job.failures})")
        self._set_state(job, "failed")
        job.deadline = self._clock() + backoff

    # -- presentation ------------------------------------------------------

    def _emit(self, job: WatchJob, text: str) -> None:
        if self._view is None:
            self._out(text)
        else:
            self._out(self._view.frame(job, text))

    def _emit_line(self, job: WatchJob, line: str) -> None:
        if self._view is None:
            self._out(line)
        else:
            self._out(self._view.line(job, line))

    def _set_state(self, job: WatchJob, state: str) -> None:
        job.state = state
        if self._view is not None:
            self._out(self._view.status_frame(self.jobs))


def run_fleet(jobs: "list[WatchJob]", *,
              metrics_port: int | None = None,
              max_restarts: int | None = None,
              out: Callable[[str], None] = print,
              sleep: Callable[[float], None] = time.sleep,
              clock: Callable[[], float] = time.monotonic) -> int:
    """Drive a fleet to completion — the presentation entry point.

    Wraps :class:`FleetScheduler` with the interleaved
    :class:`~repro.fleet.view.FleetView`, fault isolation, a shared
    metrics endpoint (``metrics_port`` serves every instrumented job's
    registry under a ``job`` label, ``/healthz`` aggregates
    worst-of-jobs) and a fleet stop message on ^C.
    """
    from repro.fleet.view import FleetView

    view = FleetView()
    server = None
    if metrics_port is not None:
        from repro.fleet.telemetry import FleetTelemetry
        from repro.telemetry.exposition import MetricsServer

        server = MetricsServer(FleetTelemetry(jobs), metrics_port)
        out(f"serving fleet metrics on http://{server.host}:"
            f"{server.port}/metrics (health: /healthz)")
    scheduler = FleetScheduler(jobs, out=out, sleep=sleep, clock=clock,
                               view=view, isolate=True,
                               max_restarts=max_restarts)
    try:
        return scheduler.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        out("fleet stopped: " + ", ".join(
            f"{job.name} {job.completed} poll(s)" for job in jobs))
        return 0
    finally:
        if server is not None:
            server.close()
