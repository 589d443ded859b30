"""The job layer: one watched trace directory as a schedulable unit.

A :class:`WatchJob` owns one :class:`~repro.live.engine.LiveIngest`
plus everything wired around it — the alert engine, the checkpoint
sidecar, the emit journal, per-job telemetry and its ``--metrics-log``,
the stateful :class:`~repro.live.watch.WatchView` — with an explicit
lifecycle::

    create (JobSpec.build) → restore (checkpoint, inside the engine)
        → poll_once, repeatedly (the scheduler's unit of work)
        → finalize (pack the --emit .elog)

:class:`JobSpec` is the declarative half: the watch-argument wiring
extracted from ``cli.py`` (engine construction from a source spec,
rules loading, checkpoint restore) as a value object, so the same
recipe builds a job for ``st-inspector watch``, one entry of a
``fleet.toml``, or a *rebuild* after the scheduler isolated a failure
— a rebuilt job re-restores from its own checkpoint exactly like a
killed-and-restarted watch process.

``poll_once`` is one refresh, in this order: poll → alert evaluation
→ checkpoint save → engine gauges → span end → render. The scheduler
owns everything between polls (cadence, sleeping, output); the job
owns everything within one.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro._util.errors import ReproError
from repro.core.mapping import CallOnly, CallPath, CallTopDirs, SiteVariables
from repro.live.options import ENGINE_MINIMUMS, check_engine_options

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.alerts import Alert
    from repro.live.engine import LiveIngest, PollResult
    from repro.telemetry.spans import PollSpan

#: Source schemes a fleet job can follow live. Only strace directories
#: grow in place today; elog/csv/sim sources are complete artifacts
#: with nothing to poll.
_WATCHABLE_SCHEMES = ("strace",)


def _site_variables(levels: int) -> SiteVariables:
    from repro.simulate.workloads.ior import JUWELS_SITE_VARIABLES

    return SiteVariables(JUWELS_SITE_VARIABLES, extra_levels=levels - 1)


#: Each event→activity mapping a job can name, built for ``levels``.
_MAPPING_FACTORIES = {
    "topdirs": lambda levels: CallTopDirs(levels=levels),
    "path": lambda levels: CallPath(),
    "call": lambda levels: CallOnly(),
    "site": _site_variables,
}

#: The names ``--mapping`` and a job's ``mapping`` key accept.
MAPPING_NAMES = tuple(_MAPPING_FACTORIES)


def mapping_from_name(name: str, levels: int = 2):
    """The event→activity mapping behind ``--mapping NAME`` — shared
    by the CLI and job specs."""
    factory = _MAPPING_FACTORIES.get(name)
    if factory is None:
        raise ReproError(f"unknown mapping {name!r}")
    return factory(levels)


#: What a :class:`JobSpec` field accepts, by the text of its
#: annotation (less any ``| None``), and the words a rejection uses; a
#: fleet file spells every path as a string.
_KINDS = {"bool": (bool, "a boolean"), "int": (int, "an integer"),
          "float": ((int, float), "a number"), "str": (str, "a string"),
          "str | os.PathLike[str]": ((str, os.PathLike), "a string")}

#: The least value of each numeric field. The ``watch`` flags check
#: theirs against this table at parse time, so the error names the
#: flag.
MINIMUMS = {"interval": 0, "polls": 1, "top": 1, **ENGINE_MINIMUMS}

#: Fields that mean nothing alone: field → (the field it needs, why).
REQUIRES = {
    "alert_log": ("rules", "nothing to fire: --alert-log and "
                           "--baseline require --rules"),
    "baseline": ("rules", "nothing to compare: --alert-log and "
                          "--baseline require --rules"),
    "run_name": ("catalog", "run names label cataloged runs"),
}


def check_requires(values) -> None:
    """Reject a set field whose needed field (:data:`REQUIRES`) is
    unset; ``values`` maps field names to values."""
    for key, (needs, why) in REQUIRES.items():
        if values.get(key) and not values.get(needs):
            raise ReproError(f"{key} but no {needs} ({why})")


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to (re)build one watch job.

    Frozen so a spec can be shared between the scheduler (which
    rebuilds failed jobs from it) and whoever constructed it; derive
    variants with :func:`dataclasses.replace`.
    """

    source: str | os.PathLike[str]
    name: str = "watch"
    interval: float = 2.0
    polls: int | None = None
    checkpoint: str | os.PathLike[str] | None = None
    rules: str | os.PathLike[str] | None = None
    baseline: str | None = None
    alert_log: str | os.PathLike[str] | None = None
    emit: str | os.PathLike[str] | None = None
    window: int | None = None
    #: Adaptive interval-buffer budget (bytes): derives ``window``
    #: from measured accumulator footprint instead of a fixed cap.
    #: Mutually exclusive with ``window``.
    memory_budget: int | None = None
    #: Rolling journal compaction threshold (bytes of checkpointed
    #: journal): pack the durable prefix into the ``emit`` destination
    #: and truncate the journal whenever it exceeds this. Requires
    #: both ``emit`` and ``checkpoint``.
    compact_emit: int | None = None
    mapping: str = "topdirs"
    levels: int = 2
    recursive: bool = False
    lenient: bool = False
    show_dfg: bool = True
    top: int = 5
    telemetry: bool = False
    metrics_log: str | os.PathLike[str] | None = None
    #: Run catalog the job commits its finished run into (shared
    #: between fleet jobs — the catalog is multi-writer).
    catalog: str | os.PathLike[str] | None = None
    #: Name the cataloged run is recorded under (defaults to the job
    #: name; ``runs list --app NAME`` and ``catalog:...?app=NAME``
    #: filter on it).
    run_name: str | None = None

    def with_overrides(self, **changes) -> "JobSpec":
        return replace(self, **changes)

    def validate(self) -> None:
        """Reject a job no front end may start, before anything of it
        is built.

        The one home of every per-job rule: each field's type, bound
        and choices; the fields another needs (:data:`REQUIRES`) and
        the engine's own rules
        (:func:`~repro.live.engine.check_engine_options`); and one
        file per write path. ``watch`` and a ``fleet.toml`` both go
        through here, so they admit the same jobs with the same
        messages.
        """
        try:
            for item in fields(self):
                value = getattr(self, item.name)
                if value is None and item.type.endswith(" | None"):
                    continue
                kinds, want = _KINDS[item.type.removesuffix(" | None")]
                minimum = MINIMUMS.get(item.name)
                if item.name == "mapping":
                    want = f"one of {MAPPING_NAMES}"
                elif minimum is not None:
                    want = f"{want} >= {minimum}"
                # bool is an int subclass: a number must not accept it.
                if (not isinstance(value, kinds)
                        or (isinstance(value, bool) and kinds is not bool)
                        or (minimum is not None and value < minimum)
                        or (item.name == "mapping"
                            and value not in MAPPING_NAMES)):
                    raise ReproError(f"key {item.name!r} must be {want} "
                                     f"(got {value!r})")
            check_requires(vars(self))
            check_engine_options(
                window=self.window, memory_budget=self.memory_budget,
                compact_emit=self.compact_emit, emit=self.emit,
                checkpoint=self.checkpoint)
            seen: dict[str, str] = {}
            for key, path in self.write_paths().items():
                if path in seen:
                    raise ReproError(
                        f"{key} {path!r} collides with the job's "
                        f"{seen[path]} — each write path needs its own "
                        f"file")
                seen[path] = key
        except ReproError as exc:
            raise ReproError(f"job {self.name!r}: {exc}") from None

    def write_paths(self) -> dict[str, str]:
        """Every file the job writes, by key, normalized the way write
        paths are compared: the exclusive ones, then the ``catalog``
        (which fleet jobs may share)."""
        from repro.live.checkpoint import segment_path
        from repro.live.emit import journal_path

        paths = {"checkpoint": self.checkpoint,
                 "checkpoint segment":
                     self.checkpoint and segment_path(self.checkpoint),
                 "emit": self.emit,
                 "emit journal": self.emit and journal_path(self.emit),
                 "alert_log": self.alert_log,
                 "metrics_log": self.metrics_log,
                 "catalog": self.catalog}
        return {key: os.path.normpath(path)
                for key, path in paths.items() if path}

    def resolve_directory(self) -> Path:
        """The trace directory behind ``source`` — a bare path or a
        ``strace:`` URI (:func:`~repro.sources.parse_source_spec`
        grammar); complete-artifact schemes are rejected."""
        from repro.sources import parse_source_spec

        spec = parse_source_spec(str(self.source))
        if spec.scheme is None:
            return Path(spec.target)
        if spec.scheme in _WATCHABLE_SCHEMES:
            if spec.options:
                raise ReproError(
                    f"job {self.name!r}: source {spec.raw!r} takes no "
                    f"?options for live watching")
            return Path(spec.target)
        raise ReproError(
            f"job {self.name!r}: cannot watch source {spec.raw!r} — "
            f"live ingestion follows growing strace directories "
            f"(a bare path or strace:DIR), not {spec.scheme}: sources")

    def build_engine(self) -> LiveIngest:
        """Construct the engine — the ``cmd_watch`` wiring, extracted.

        Raises :class:`~repro._util.errors.ReproError` for anything a
        startup should reject (a job :meth:`validate` rejects, a
        missing directory, malformed rules) so callers can keep
        configuration errors (exit 2) apart from runtime failures
        (exit 1).
        """
        self.validate()
        directory = self.resolve_directory()
        if not directory.is_dir():
            raise ReproError(
                f"no such trace directory: {directory} (job "
                f"{self.name!r} watches a directory that must exist, "
                f"even if still empty)")
        alerts = None
        if self.rules:
            from repro.alerts import AlertEngine, JsonlSink

            # A malformed rules file raises AlertConfigError (a
            # ReproError) naming the offending rule.
            extra = [JsonlSink(self.alert_log)] if self.alert_log else None
            alerts = AlertEngine.from_rules_file(
                self.rules, baseline=self.baseline, extra_sinks=extra)
        if self.catalog:
            from repro.catalog import AlertExportBuffer, RunCatalog

            # Create/validate the catalog now so a bad path or an
            # unsupported schema version is a startup (exit 2) error,
            # not a surprise at finalize after a week of watching.
            RunCatalog(self.catalog)
            if alerts is not None:
                # Capture full alert detail before history_limit
                # compaction folds it into counts (the finalize-time
                # catalog commit stores exported + surviving history).
                alerts.export_hook = AlertExportBuffer()
        telemetry = None
        if self.telemetry:
            from repro.telemetry import Telemetry

            telemetry = Telemetry()
        from repro.live.engine import LiveIngest

        return LiveIngest(
            directory,
            mapping=mapping_from_name(self.mapping, self.levels),
            strict=not self.lenient,
            recursive=self.recursive,
            # The graph and statistics are both maintained
            # incrementally, so a watcher never needs the raw records.
            keep_records=False,
            window=self.window,
            memory_budget=self.memory_budget,
            emit=self.emit,
            compact_emit=self.compact_emit,
            checkpoint=self.checkpoint,
            # Attached before checkpoint load so a resumed sidecar
            # restores rule latches, alert history and telemetry
            # counter bases into this life.
            alerts=alerts,
            telemetry=telemetry,
        )

    def build(self) -> "WatchJob":
        return WatchJob(self.build_engine(), spec=self)


@dataclass
class PollOutcome:
    """What one ``poll_once`` produced, for the scheduler to present."""

    result: PollResult
    fired: "list[Alert] | None"
    span: "PollSpan | None"
    text: str


class WatchJob:
    """One engine + policy/IO, driven one poll at a time.

    The scheduler reads/writes the bookkeeping attributes (``state``,
    ``deadline``, ``failures``); the job itself only knows how to do
    one poll, how to rebuild itself after a failure, and how to
    finalize its emit destination.
    """

    def __init__(self, engine: LiveIngest, *,
                 name: str | None = None,
                 interval: float = JobSpec.interval,
                 polls: int | None = JobSpec.polls,
                 show_dfg: bool = JobSpec.show_dfg,
                 top: int = JobSpec.top,
                 metrics_log: str | os.PathLike[str] | None = None,
                 spec: JobSpec | None = None) -> None:
        if spec is not None:
            name = name if name is not None else spec.name
            interval = spec.interval
            polls = spec.polls
            show_dfg = spec.show_dfg
            top = spec.top
            metrics_log = spec.metrics_log
        if metrics_log is not None and not engine.telemetry.enabled:
            raise ReproError(
                "metrics exposition needs an instrumented engine: "
                "construct LiveIngest(telemetry=Telemetry()) (the CLI "
                "does this for --metrics-port/--metrics-log)")
        self.engine = engine
        self.spec = spec
        self.name = name if name is not None else JobSpec.name
        self.interval = interval
        self.polls = polls
        self.show_dfg = show_dfg
        self.top = top
        self.metrics_log = metrics_log
        self.view = self._new_view()
        #: pending → running → done; failed/stopped via the scheduler.
        self.state = "pending"
        self.completed = 0
        self.failures = 0
        self.restarts = 0
        self.deadline = 0.0
        self._order = 0
        self._emit_packed = False
        self._cataloged = False
        self._started = time.monotonic()

    def _new_view(self):
        from repro.live.watch import WatchView

        return WatchView(self.engine, show_dfg=self.show_dfg, top=self.top)

    @property
    def exhausted(self) -> bool:
        """Poll budget spent (``polls=None`` never exhausts)."""
        return self.polls is not None and self.completed >= self.polls

    def poll_once(self) -> PollOutcome:
        """One refresh.

        Alert evaluation runs *before* the checkpoint save, so the
        sidecar always holds the latches of the alerts it has seen
        fire and a kill between the two can at worst replay one
        refresh of sink deliveries. The sidecar is saved after every
        poll that moved any state — carry-only progress included — so
        a kill loses at most one interval of work, while idle polls
        skip the rewrite (it is still written once if it does not
        exist yet). The render phase sits outside the span so the
        TELEMETRY row describes the poll it belongs to.
        """
        engine = self.engine
        telemetry = engine.telemetry
        telemetry.begin_poll()
        result = engine.poll()
        fired = (engine.alerts.evaluate(engine, result)
                 if engine.alerts is not None else None)
        if engine.checkpoint_path is not None \
                and (result.state_moved
                     or not engine.checkpoint_path.exists()
                     or fired):
            engine.save_checkpoint()
        if telemetry.enabled:
            record_engine_gauges(telemetry, engine)
        span = telemetry.end_poll(result)
        with telemetry.phase("render"):
            text = self.view.refresh(result, fired)
        self.completed += 1
        return PollOutcome(result=result, fired=fired, span=span,
                           text=text)

    def record_snapshot(self) -> None:
        """Append one telemetry snapshot line (``--metrics-log``)."""
        if self.metrics_log is not None:
            from repro.telemetry.exposition import append_snapshot

            append_snapshot(self.metrics_log,
                            self.engine.telemetry.snapshot())

    def rebuild(self) -> None:
        """Replace the engine with a freshly built one — the in-process
        equivalent of kill/restart: the old engine's resources are
        released first (so the new engine is the emit journal's only
        appender), the new engine restores from the job's checkpoint,
        and the view baseline resets exactly as a restarted watch
        process would."""
        if self.spec is None:
            raise ReproError(
                f"job {self.name!r} was built from a bare engine — "
                f"only spec-built jobs can be rebuilt after a failure")
        self.engine.close()
        self.engine = self.spec.build_engine()
        self.view = self._new_view()
        self._emit_packed = False
        self._cataloged = False

    def finalize(self) -> Path | None:
        """Drain background alert delivery, pack the ``--emit``
        destination and commit the run to the catalog, each once
        (idempotent); returns the packed path the first time, None
        after (or with no emit)."""
        if self.engine.alerts is not None:
            # Queued alerts must reach their sinks before the run is
            # declared finished (late submits deliver inline).
            self.engine.alerts.shutdown()
        packed = None
        if self.engine.emit_journal is not None and not self._emit_packed:
            packed = self.engine.pack_emit()
            self._emit_packed = True
        self._commit_catalog()
        return packed

    def _commit_catalog(self) -> int | None:
        """Record the finished run (DFG, statistics, alert history —
        exported pre-compaction detail included) into the job's
        catalog; returns the run id, or None without a catalog."""
        spec = self.spec
        if spec is None or not spec.catalog or self._cataloged:
            return None
        from repro.catalog import AlertExportBuffer, RunCatalog, RunRecord

        engine = self.engine
        alerts: tuple = ()
        if engine.alerts is not None:
            hook = engine.alerts.export_hook
            if isinstance(hook, AlertExportBuffer):
                alerts = hook.full_history(engine.alerts.history)
            else:
                alerts = tuple(engine.alerts.history)
        record = RunRecord.create(
            name=spec.run_name or spec.name,
            source=str(spec.source),
            mapping=engine.mapping.name,
            levels=spec.levels,
            dfg=engine.snapshot_dfg(),
            stats=engine.statistics(),
            n_events=engine.total_events,
            n_cases=engine.incremental.n_cases,
            alerts=alerts,
            window=spec.window,
            n_polls=engine.n_polls,
            wall_span_s=time.monotonic() - self._started)
        run_id = RunCatalog(spec.catalog).record_run(record)
        self._cataloged = True
        return run_id

    def close(self) -> None:
        self.engine.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WatchJob({self.name!r}, state={self.state!r}, "
                f"completed={self.completed})")


def record_engine_gauges(telemetry, engine: LiveIngest) -> None:
    """Point-in-time engine gauges, refreshed once per poll (after the
    checkpoint save, so they describe the state the sidecar holds)."""
    ages = engine.watermark_ages()
    telemetry.gauge_set("starving_files", len(ages))
    telemetry.gauge_set(
        "watermark_age_seconds",
        max(ages.values()) / 1e6 if ages else 0.0)
    telemetry.gauge_set("interval_buffer_entries",
                        engine.stats.n_buffered_intervals())
    telemetry.gauge_set("interval_buffer_window", engine.window or 0)
    telemetry.update_rss()
