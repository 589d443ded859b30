"""The live ingestion engine: directory polls → standing EventLog/DFG.

:class:`LiveIngest` is the orchestrator of the live subsystem. Each
:meth:`~LiveIngest.poll`:

1. re-scans the trace directory (optionally recursively) for new
   ``<cid>_<host>_<rid>.st`` files, enforcing the same naming and
   duplicate-case rules as batch discovery (a listing equal to the
   previous poll's reuses that poll's discovery);
2. lets every file's :class:`~repro.live.tail.FileTail` consume its
   newly appended bytes, which yields the records *sealed* by this
   poll — records whose final position in the case can no longer
   change (see :class:`~repro.strace.resume.IncrementalMerger`);
3. absorbs every file's sealed records as one batch: one block of the
   ``--emit`` journal, then one pass that maps them to activities and
   folds them per case into an
   :class:`~repro.core.incremental.IncrementalDFG` — the union algebra
   of Sec. IV-A applied as a running fold.

The standing invariants (pinned by ``tests/test_live``):

* ``DFG(snapshot_log with mapping)`` equals :meth:`snapshot_dfg` after
  every poll — log and graph never disagree;
* after the directory stops growing, one last :meth:`poll` plus
  :meth:`finalize` make both equal one-shot batch ingestion of the
  final directory, byte for byte (frame columns, pools, merge stats).

Besides the graph, every sealed record is folded into a standing
:class:`~repro.core.statistics.StatsAccumulator`, so
:meth:`LiveIngest.statistics` yields the full-history per-activity
statistics (Sec. IV-B node annotations) at O(delta) — no rebuild of
the snapshot log per refresh.

Passing ``checkpoint=`` makes ingestion resumable across process
restarts: the sidecar persists every byte offset, line carry, merge
slot, the incremental graph *and* the statistics accumulators, so a
restarted watcher continues from where the killed one stopped instead
of re-parsing gigabytes. After a restart the graph and the statistics
carry the full history — records parsed by the previous process are
not kept (that is what ``.elog`` conversion is for), so
:meth:`snapshot_log` then covers this process's lifetime only, while
:meth:`snapshot_dfg` and :meth:`statistics` still equal batch.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from repro._util.errors import ReproError, TraceParseError
from repro.core.dfg import DFG
from repro.core.diff import DFGDiff
from repro.core.event import Event
from repro.core.eventlog import EventLog
from repro.core.incremental import IncrementalDFG
from repro.core.mapping import CallTopDirs, Mapping, mapping_from_callable
from repro.core.statistics import (MIN_WINDOW, IOStatistics,
                                   StatsAccumulator)
from repro.live.options import check_engine_options
from repro.live.tail import FileTail
from repro.strace.naming import TraceFileName
from repro.telemetry.spans import NULL_TELEMETRY
from repro.strace.parser import ParsedRecord
from repro.strace.reader import (TraceCase, discover_trace_files,
                                 list_trace_files)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.alerts import AlertEngine


@dataclass(slots=True)
class PollResult:
    """What one :meth:`LiveIngest.poll` observed."""

    #: 1-based poll sequence number (counts across checkpoint restarts).
    n_poll: int
    #: Case ids of files first seen by this poll, in path order.
    new_files: list[str] = field(default_factory=list)
    #: Records sealed by this poll, per case (cases with none omitted).
    sealed: dict[str, int] = field(default_factory=dict)
    #: Files tracked after the scan.
    n_files: int = 0
    #: Total records sealed so far (across restarts).
    total_events: int = 0
    #: Unfinished calls still awaiting their resumed half.
    n_pending: int = 0
    #: Completed records still buffered behind the seal watermark.
    n_buffered: int = 0
    #: Bytes consumed by this poll across all files. Can be non-zero
    #: with nothing sealed (bytes went into a line carry or behind an
    #: in-flight unfinished call) — follower state moved even though
    #: the graph did not, which matters for checkpointing.
    n_bytes: int = 0

    @property
    def n_sealed(self) -> int:
        """Records sealed by this poll across all cases."""
        return sum(self.sealed.values())

    @property
    def changed(self) -> bool:
        """Whether the *graph-visible* state moved (files or events)."""
        return bool(self.new_files or self.sealed)

    @property
    def state_moved(self) -> bool:
        """Whether *any* engine state moved, including carry-only
        progress — i.e. whether a checkpoint written before this poll
        is now stale."""
        return self.changed or bool(self.n_bytes)


class LiveIngest:
    """Maintain an always-current EventLog/DFG over a growing directory.

    Parameters
    ----------
    directory:
        The trace directory to follow. May start empty (unlike batch
        discovery, which treats that as an error).
    mapping:
        Event→activity mapping applied to sealed records before they
        enter the graph; defaults to the paper's f̂
        (:class:`~repro.core.mapping.CallTopDirs` with two levels).
    cids:
        Optional restriction to a subset of command identifiers.
    strict:
        Forwarded to decoding and the merger, as in batch ingestion.
    recursive:
        Descend into nested per-host subdirectories.
    add_endpoints:
        Wrap cases in ● / ■ (the batch default).
    keep_records:
        Keep every sealed :class:`ParsedRecord` in memory so
        :meth:`snapshot_log` / :meth:`cases` cover the full run (the
        default). ``False`` drops records once folded: memory shrinks
        to the graph, carry state and the compact statistics buffers
        (two int64s per event, no record objects),
        and :meth:`snapshot_log` stays empty — the same trade a
        checkpoint restart makes. :meth:`statistics` covers the full
        history either way.
    window:
        Optional cap (≥ 2) on the per-case interval buffers of the
        statistics accumulators — the bounded-memory mode for
        week-long watchers. Scalar statistics stay exact (and
        bit-identical to batch); once a buffer exceeds the cap it is
        coarsened and the activity's max concurrency / timeline are
        reported as approximate upper bounds
        (:class:`~repro.core.statistics.StatsAccumulator`).
    memory_budget:
        Alternative to ``window``: a byte budget for the interval
        buffers. After every poll the engine takes the buffers'
        footprint, 16 bytes per interval
        (:meth:`~repro.core.statistics.StatsAccumulator.approx_buffer_bytes`),
        and re-derives the per-buffer cap so the total stays within
        the budget — the cap shrinks as the watch accumulates cases
        instead of being a guessed constant. The floor is the minimum
        window of 2 intervals per buffer; below that the budget is
        best-effort. Mutually exclusive with ``window``.
    emit:
        Optional ``.elog`` destination: every sealed record is also
        journaled durably (``<emit>.journal``) so :meth:`pack_emit`
        can write the full event log of the run — byte-identical to
        batch conversion, surviving kill/restart cycles when combined
        with ``checkpoint`` (see :mod:`repro.live.emit`).
    compact_emit:
        Optional rolling-compaction threshold in journal bytes
        (requires ``emit`` and ``checkpoint``). After each checkpoint
        save, once the un-packed durable journal prefix exceeds this
        many bytes it is packed into the destination ``.elog`` and
        dropped from the journal
        (:meth:`~repro.live.emit.EmitJournal.compact`), keeping the
        journal's disk footprint O(threshold + recent) over a
        week-long watch instead of O(events).
    checkpoint:
        Optional sidecar path. If the file exists, the engine resumes
        from it; :meth:`save_checkpoint` rewrites it atomically and
        appends the intervals sealed since the previous save to the
        segment ``<checkpoint>.intervals`` beside it
        (:mod:`repro.live.checkpoint`). A fresh engine deletes a
        leftover segment.
    alerts:
        Optional :class:`~repro.alerts.AlertEngine` evaluated by the
        watch loop after every poll. Attached here (rather than at the
        loop) so checkpoints can persist its latch/history state:
        pass it *before* construction and a resumed sidecar restores
        the alert state into it — restarted watchers neither re-fire
        nor forget fired alerts.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` recording
        per-phase poll timings and pipeline counters (see
        :mod:`repro.telemetry`). Defaults to the shared no-op
        instance, so the uninstrumented hot path is unchanged.
        Attached here (like ``alerts``) so checkpoints can persist
        the monotonic counters: a resumed sidecar restores them as
        bases and scraped rates survive kill/restart.

    Unlike batch discovery, an empty (not-yet-populated) directory is
    a normal state for a watcher:

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as empty:
    ...     engine = LiveIngest(empty)
    ...     result = engine.poll()
    >>> (result.n_poll, result.n_files, result.changed)
    (1, 0, False)
    >>> engine.snapshot_dfg().n_nodes
    0
    """

    def __init__(self, directory: str | os.PathLike[str], *,
                 mapping: "Mapping | Callable[[Event], str | None] | None"
                 = None,
                 cids: set[str] | None = None,
                 strict: bool = True,
                 recursive: bool = False,
                 add_endpoints: bool = True,
                 keep_records: bool = True,
                 window: int | None = None,
                 memory_budget: int | None = None,
                 emit: str | os.PathLike[str] | None = None,
                 compact_emit: int | None = None,
                 checkpoint: str | os.PathLike[str] | None = None,
                 alerts: "AlertEngine | None" = None,
                 telemetry=None) -> None:
        check_engine_options(window=window, memory_budget=memory_budget,
                             compact_emit=compact_emit, emit=emit,
                             checkpoint=checkpoint)
        self.directory = Path(directory)
        self.mapping = mapping_from_callable(
            mapping if mapping is not None else CallTopDirs(levels=2))
        self.cids = set(cids) if cids is not None else None
        self.strict = strict
        self.recursive = recursive
        self.incremental = IncrementalDFG(add_endpoints=add_endpoints)
        self.memory_budget = memory_budget
        self.window = window
        self.stats = StatsAccumulator(window=window)
        self.keep_records = keep_records
        self.n_polls = 0
        self.total_events = 0
        #: True once state from a previous process was loaded — in that
        #: case :meth:`snapshot_log` covers this process only while the
        #: graph and statistics cover the full history.
        self.restored = False
        self._tails: dict[Path, FileTail] = {}
        self._case_paths: dict[str, Path] = {}
        # The last scan's listing and discovery (see scan()).
        self._listing: list[str] | None = None
        self._found: list[tuple[Path, TraceFileName]] = []
        self._records: dict[str, list[ParsedRecord]] = {}
        # Per-(call, fp) activity memo for call/fp-only mappings — the
        # live analogue of the batch broadcast in eventlog._apply_mapping.
        self._activity_memo: dict[tuple[str, str | None], str | None] = {}
        self.alerts = alerts
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        # Alert state carried verbatim from a loaded sidecar when no
        # AlertEngine is attached this life, so a watch restarted
        # without --rules still re-saves (and never loses) the alert
        # history a previous life accumulated. Telemetry state gets
        # the same treatment for watches restarted with telemetry off.
        self._alert_state: dict | None = None
        self._telemetry_state: dict | None = None
        # The checkpoint's interval segment (repro.live.checkpoint),
        # set by the first save or by a restore.
        self._segment = None
        if emit is not None:
            from repro.live.emit import EmitJournal

            self.emit_journal: "EmitJournal | None" = EmitJournal(
                emit, telemetry=self.telemetry)
        else:
            self.emit_journal = None
        self.compact_emit = compact_emit
        self.checkpoint_path = Path(checkpoint) if checkpoint else None
        if self.checkpoint_path is not None \
                and self.checkpoint_path.exists():
            from repro.live.checkpoint import load_checkpoint

            load_checkpoint(self, self.checkpoint_path)
            self.restored = True
        else:
            if self.checkpoint_path is not None:
                from repro.live.checkpoint import segment_path

                # A fresh watch owns its interval segment: a leftover
                # one belongs to a sidecar that is gone.
                segment_path(self.checkpoint_path).unlink(missing_ok=True)
            if self.emit_journal is not None:
                # A fresh watch owns its journal: a leftover journal
                # (and its compacted .elog prefix) from an earlier run
                # would pollute the pack with records this engine
                # re-seals.
                self.emit_journal.reset()

    # -- discovery ---------------------------------------------------------

    def scan(self) -> list[tuple[Path, TraceFileName]]:
        """Current ``.st`` files in deterministic (sorted-path) order.

        Batch discovery's grammar and duplicate-case rules verbatim
        (it *is* :func:`~repro.strace.reader.discover_trace_files`),
        with the two live adjustments: an empty / not-yet-populated
        directory is a normal state for a watcher, and duplicate
        detection extends across polls via the followed-case map. A
        followed file vanishing from the scan is an error — its
        records cannot be un-folded.

        While the listing (:func:`~repro.strace.reader.list_trace_files`)
        equals the previous scan's, the previous discovery is returned
        as is: the same files pass the same rules. A new, vanished or
        renamed file changes the listing and takes the full discovery.
        """
        listing = list_trace_files(self.directory, recursive=self.recursive)
        if listing == self._listing:
            return self._found
        found = discover_trace_files(
            self.directory, cids=self.cids, recursive=self.recursive,
            allow_empty=True, known_cases=self._case_paths,
            listing=listing)
        missing = set(self._tails) - {path for path, _ in found}
        if missing:
            raise TraceParseError(
                f"tracked trace file(s) disappeared: "
                f"{sorted(str(p) for p in missing)[:3]}")
        self._listing, self._found = listing, found
        return found

    # -- polling -----------------------------------------------------------

    def poll(self) -> PollResult:
        """One incremental pass: discover, tail, map, fold."""
        return self._pass(final=False)

    def finalize(self) -> PollResult:
        """Treat the directory as finished: one last poll (files and
        bytes that appeared since the previous one are not lost), then
        flush carries, orphan in-flight unfinished calls (batch EOF
        semantics), and fold the remaining buffered records. After
        this, snapshots equal batch ingestion of the final directory.
        """
        return self._pass(final=True)

    def _pass(self, *, final: bool) -> PollResult:
        """Tail every file, then absorb what they sealed as one batch.

        The rows sealed before an error — a later file's located parse
        error — are absorbed all the same: their tails have moved past
        them, so the graph, the statistics and the journal must hold
        them, exactly as if the poll had stopped there.
        """
        telemetry = self.telemetry
        self.n_polls += 1
        result = PollResult(n_poll=self.n_polls)
        with telemetry.phase("scan"):
            found = self.scan()
        batch: list[tuple[TraceFileName, list[ParsedRecord]]] = []
        try:
            for path, name in found:
                tail = self._tail_for(path, name, result)
                if final and tail.finished:
                    continue  # repeated finalize is a no-op per file
                before = tail.offset
                sealed = tail.poll() + tail.finish() if final \
                    else tail.poll()
                result.n_bytes += tail.offset - before
                if sealed:
                    batch.append((name, sealed))
                    result.sealed[name.case_id] = len(sealed)
        finally:
            if batch:
                self._absorb(batch)
        self._adapt_window()
        self._fill_result(result)
        if telemetry.enabled:
            if final:
                telemetry.count("finalizes_total")
            self._count_poll(result)
        return result

    def _adapt_window(self) -> None:
        """Re-derive the interval-buffer cap from the byte budget.

        Runs after every poll when ``memory_budget`` is set: the
        budget buys ``memory_budget / 16`` intervals
        (:meth:`~repro.core.statistics.StatsAccumulator.approx_buffer_bytes`),
        they are divided over the current buffer count, and the
        accumulators are re-capped in place (shrinking coarsens
        immediately). The cap floors at 2 intervals per buffer — the
        smallest window that still yields a concurrency bound.
        """
        if self.memory_budget is None:
            return
        entries = self.stats.n_buffered_intervals()
        n_buffers = self.stats.n_interval_buffers()
        if entries == 0 or n_buffers == 0:
            return
        per_entry = self.stats.approx_buffer_bytes() / entries
        target_entries = int(self.memory_budget / per_entry)
        window = max(MIN_WINDOW, target_entries // n_buffers)
        if window != self.window:
            self.stats.set_window(window)
            self.window = window

    def _tail_for(self, path: Path, name: TraceFileName,
                  result: PollResult) -> FileTail:
        """The follower of a discovered file, registering new ones."""
        tail = self._tails.get(path)
        if tail is None:
            tail = FileTail(
                path, name, strict=self.strict, telemetry=self.telemetry,
                relpath=path.relative_to(self.directory).as_posix())
            self._tails[path] = tail
            self._case_paths[name.case_id] = path
            result.new_files.append(name.case_id)
            self.telemetry.count("files_discovered_total")
        return tail

    def _fill_result(self, result: PollResult) -> None:
        result.n_files = len(self._tails)
        result.total_events = self.total_events
        result.n_pending = sum(t.merger.n_pending
                               for t in self._tails.values())
        result.n_buffered = sum(t.merger.n_buffered
                                for t in self._tails.values())

    def _count_poll(self, result: PollResult) -> None:
        """Pipeline counters/gauges for one completed poll (telemetry
        on only — the null facade never reaches this)."""
        telemetry = self.telemetry
        telemetry.count("polls_total")
        if result.n_sealed:
            telemetry.count("events_sealed_total", result.n_sealed)
        if result.n_bytes:
            telemetry.count("bytes_tailed_total", result.n_bytes)
        telemetry.gauge_set("files_tracked", result.n_files)

    def _absorb(self, batch: list[tuple[TraceFileName, list[ParsedRecord]]],
                ) -> None:
        """Keep, journal (one block) and fold one poll's sealed rows;
        ``batch`` is (name, sealed rows) per case, in path order."""
        telemetry = self.telemetry
        if self.keep_records:
            for name, sealed in batch:
                self._records.setdefault(name.case_id, []).extend(sealed)
        if self.emit_journal is not None:
            with telemetry.phase("emit"):
                self.emit_journal.append(batch)
        feed = self.stats.feed_event
        with telemetry.phase("fold"):
            for name, sealed in batch:
                case_id = name.case_id
                rid = name.rid
                self.total_events += len(sealed)
                activities: list[str] = []
                for record, activity in self._map_records(name, sealed):
                    if activity is None:
                        continue
                    activities.append(activity)
                    feed(activity, case_id, rid=rid,
                         start_us=record.start_us, dur_us=record.dur_us,
                         size=record.size)
                self.incremental.extend_case(case_id, activities)

    def _map_records(self, name: TraceFileName,
                     records: list[ParsedRecord],
                     ) -> Iterator[tuple[ParsedRecord, str | None]]:
        """Sealed records with their mapped activities (None=unmapped)."""
        mapping = self.mapping
        if mapping.uses_only_call_fp:
            memo = self._activity_memo
            for record in records:
                key = (record.call, record.fp)
                try:
                    activity = memo[key]
                except KeyError:
                    activity = memo[key] = mapping.map_call_fp(*key)
                yield record, activity
            return
        for record in records:
            yield record, mapping.map_event(Event(
                cid=name.cid, host=name.host, rid=name.rid,
                pid=record.pid, call=record.call, start=record.start_us,
                dur=record.dur_us, fp=record.fp, size=record.size))

    # -- snapshots ---------------------------------------------------------

    def snapshot_dfg(self) -> DFG:
        """Immutable copy of the standing graph (cheap, O(graph))."""
        return self.incremental.snapshot()

    def statistics(self) -> IOStatistics:
        """Full-history per-activity statistics (Sec. IV-B), assembled
        from the standing accumulators.

        Covers every record sealed since the watch began — across
        checkpoint restarts and regardless of ``keep_records`` — and
        equals batch ``IOStatistics`` of the final directory once
        growth stops (every field, including timelines and max
        concurrency; pinned by ``tests/test_live``). Cost is
        O(activities + events of activities touched since the last
        call): untouched activities reuse their cached scalars, while
        a touched activity re-runs its max-concurrency sweep over its
        full interval buffer (the recompute granularity the
        accumulator design trades for exactness — an always-hot
        activity therefore costs O(its history) per refresh, still
        far below rebuilding the whole snapshot log).
        """
        with self.telemetry.phase("stats"):
            return self.stats.statistics(case_order=self._case_order())

    def _case_order(self) -> list[str]:
        """Case ids in sorted-path order — the batch interning order of
        the final directory, which fixes cross-case statistics layout."""
        return [self._tails[path].name.case_id
                for path in sorted(self._tails)]

    def diff_since(self, baseline: DFG) -> DFGDiff:
        """Diff the standing graph against an earlier snapshot."""
        return self.incremental.diff_since(baseline)

    def watermark_ages(self) -> dict[str, int]:
        """Per-case sealing-starvation age in µs of *trace* time.

        An in-flight ``<unfinished ...>`` call holds every later
        completed record of its file behind the seal watermark; the
        age is how far the newest held-back record's start lies above
        the watermark (see
        :attr:`~repro.strace.resume.IncrementalMerger.watermark_age_us`).
        Only starving cases appear (age > 0); the result is empty for
        a healthy directory. One accessor feeds both the ``watch``
        status line and the ``watermark_age`` alerting rule, so the
        number a rule fires on is the number the operator sees.
        """
        ages: dict[str, int] = {}
        for path in sorted(self._tails):
            tail = self._tails[path]
            age = tail.merger.watermark_age_us
            if age > 0:
                ages[tail.name.case_id] = age
        return ages

    def cases(self) -> list[TraceCase]:
        """Parsed cases held in memory, in batch (sorted-path) order.

        One case per followed file — including files with no sealed
        record yet (empty traces, or everything dropped/orphaned):
        batch parsing interns those cases and reports their merge
        diagnostics too, and byte-identity covers them. Record lists
        are the sealed sequences, already in the final start-timestamp
        order batch parsing produces. Empty under
        ``keep_records=False``, where nothing is retained.
        """
        if not self.keep_records:
            return []
        result: list[TraceCase] = []
        for path in sorted(self._tails):
            tail = self._tails[path]
            records = self._records.get(tail.name.case_id, [])
            result.append(TraceCase(
                name=tail.name, records=list(records),
                merge_stats=tail.merger.stats, source=path))
        return result

    def snapshot_log(self) -> EventLog:
        """The unmapped EventLog of every record sealed so far.

        Built in batch interning order, so once the directory is final
        (and :meth:`finalize` ran) it is byte-identical to
        ``EventLog.from_source`` over the same directory. Note the
        log covers this process's lifetime — after a checkpoint
        restart, earlier records live only in the graph.
        """
        return EventLog.from_cases(self.cases())

    # -- checkpointing -----------------------------------------------------

    def save_checkpoint(self,
                        path: str | os.PathLike[str] | None = None) -> Path:
        """Atomically write the resumable state sidecar, appending
        the new intervals to its segment (a ``path`` other than the
        engine's checkpoint gets a complete segment of its own)."""
        from repro.live.checkpoint import save_checkpoint

        target = Path(path) if path is not None else self.checkpoint_path
        if target is None:
            raise ReproError(
                "no checkpoint path: pass one here or at construction")
        with self.telemetry.phase("checkpoint"):
            saved = save_checkpoint(self, target)
        self.telemetry.count("checkpoint_saves_total")
        if (self.compact_emit is not None
                and self.emit_journal is not None
                and target == self.checkpoint_path):
            # The sidecar just recorded the journal's durable offset
            # (no appends happen between the save and here), so that
            # offset is a safe compaction bound: a restore from this
            # sidecar accounts for exactly the packed prefix.
            durable = self.emit_journal.sync()
            if durable - self.emit_journal.packed_offset \
                    >= self.compact_emit:
                with self.telemetry.phase("compact"):
                    self.emit_journal.compact(self, up_to=durable)
        return saved

    def pack_emit(self) -> Path:
        """Write the ``--emit`` destination ``.elog`` from the durable
        journal — the full run, across every life of this watch."""
        if self.emit_journal is None:
            raise ReproError(
                "no emit destination: construct with emit=... "
                "(the CLI's --emit)")
        return self.emit_journal.pack(self)

    def close(self) -> None:
        """Release held OS resources (the emit journal's append
        handle) and drain any background alert delivery. The engine
        object stays readable — statistics, snapshots — but must not
        ingest further. Idempotent; the fleet scheduler calls this
        before rebuilding a failed job so the replacement engine is
        the journal's only appender (and the only delivery worker)."""
        if self.emit_journal is not None:
            self.emit_journal.close()
        if self.alerts is not None:
            self.alerts.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LiveIngest({str(self.directory)!r}, "
                f"{len(self._tails)} files, {self.total_events} events, "
                f"{self.incremental.n_edges} edges)")
