"""JSON sidecar persistence for resumable live ingestion.

A checkpoint captures everything a restarted watcher needs to continue
*exactly* where the killed one stopped, without re-reading a single
already-parsed byte:

- per file: the byte offset, the undecoded line carry (base64 — it may
  end mid-UTF-8-sequence), the cumulative line number and merge
  diagnostics, the in-flight unfinished halves, and the
  completed-but-unsealed records of the merge buffer;
- the incremental graph: edge counts, node frequencies and each case's
  tail activity (:meth:`~repro.core.incremental.IncrementalDFG.to_state`);
- the statistics accumulators: per-activity counts, sums, rank sets,
  the exact-sum rate partials and the interval buffers of coarsened
  (``approximate``) activities, base64 of little-endian int64
  ``start, end`` pairs
  (:meth:`~repro.core.statistics.StatsAccumulator.to_state`), so a
  restarted watcher renders *full-history* node annotations instead of
  statistics covering only its own lifetime;
- the interval segment's durable length and name table (below);
- the alert state: per-rule latch sets, per-subject cooldown
  timestamps, the fired-alert history and its compacted counts of an
  attached :class:`~repro.alerts.AlertEngine`, so a restarted watcher
  neither re-fires already-paged alerts nor forgets them
  (``LiveIngest(alerts=...)``);
- the durable emit-journal offset: how many ``--emit``-journal bytes
  were fsynced when this sidecar was saved, so a restore can cut the
  journal back to exactly the records the restored engine state
  accounts for, and the pack offset — how much of the journal was
  already compacted into the ``.elog`` (:mod:`repro.live.emit`);
- the telemetry snapshot: the monotonic counters and histogram totals
  of an attached :class:`~repro.telemetry.Telemetry`, restored as
  *bases* so scraped rates see a kill/restart as a flat spot, not a
  counter reset (``LiveIngest(telemetry=...)``);
- engine counters and the settings the state depends on (mapping name,
  recursiveness, strictness), which are checked on load — resuming a
  checkpoint under a different mapping would silently corrupt the
  graph, so it is an error instead.

Versions. A sidecar loads only if it carries exactly
:data:`CHECKPOINT_VERSION`; any other version is rejected with
instructions to delete it and re-watch the directory. A sidecar that
parses but lacks a key or holds a value of the wrong shape is a
corrupt checkpoint, and says so, like one that is not JSON at all.

The interval segment. The interval buffers of activities never
coarsened only grow at the end, and they are the one part of the state
that grows with every event. They live in ``<sidecar>.intervals``
(:func:`segment_path`), an append-only file of blocks: a header of
three little-endian uint32 — the activity's and the case's index in
the sidecar's ``"segment"`` name table, and ``n`` — then ``n``
little-endian int64 ``start, end`` pairs. Each save appends one block
per buffer that grew since the previous save, holding only the new
intervals, and records the segment's new length in the sidecar. A
restore reads the segment up to the recorded length, checks every
block against it and the name table, appends each block to its buffer
and only then applies the window; bytes past the recorded length (a
save killed before its sidecar landed) are truncated away — the emit
journal's discipline (:mod:`repro.live.emit`). Blocks of an activity
coarsened since are dead: its buffers ride inline in the sidecar.
This module is the only one that knows the format.

Durability. The sidecar is written atomically *and* durably: the
segment delta is fsynced first, then the temp file is fsynced before
``os.replace`` and the directory is fsynced after, so a crash or power
loss at any point surfaces either the previous complete sidecar or the
new complete sidecar — never a torn or empty one — and the segment
holds at least every byte the surviving sidecar records. A stale
``*.tmp`` from a kill between write and replace is removed on the next
load. File paths are stored relative to the trace directory, so a
checkpoint travels with the directory (e.g. onto another node of the
cluster).

Cost. A save is O(files + activities + edges + new intervals): the
sidecar holds per-file follower state, the graph, per-activity
scalars, the alert and telemetry state and the coarsened buffers
(which a window bounds), and the segment gains 16 bytes per interval
sealed since the previous save plus 12 per grown buffer.
"""

from __future__ import annotations

import base64
import json
import os
import struct
import sys
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from repro._util.errors import ReproError
from repro.core.incremental import IncrementalDFG
from repro.core.statistics import StatsAccumulator
from repro.live.tail import FileTail
from repro.strace.parser import ParsedRecord
from repro.strace.resume import MergeStats
from repro.strace.tokenizer import RecordKind, Token

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.live.engine import LiveIngest

#: Bump when the state layout changes; :func:`restore_engine` loads
#: only this version and rejects every other one.
CHECKPOINT_VERSION = 9

#: A segment block header: the activity's name index, the case's name
#: index, and the number of ``start, end`` int64 pairs that follow.
_BLOCK = struct.Struct("<III")


def segment_path(checkpoint: str | os.PathLike[str]) -> Path:
    """The interval segment behind a sidecar: ``<name>.intervals``
    beside it — the one place its name is derived."""
    checkpoint = Path(checkpoint)
    return checkpoint.with_name(checkpoint.name + ".intervals")


def _write_segment(handle, data: bytes) -> None:
    """Durability seam: append one save's blocks (fault-injection
    target)."""
    handle.write(data)


def _fsync_segment(handle) -> None:
    """Durability seam: fsync the flushed segment (fault-injection
    target)."""
    os.fsync(handle.fileno())


class _Append(NamedTuple):
    """One save's segment delta, computed before anything is written."""

    #: The blocks to append.
    data: bytes
    #: The segment length and name table once they are appended.
    length: int
    names: list[str]
    #: ``((activity, case), entries)``: how many int64 entries of each
    #: grown buffer the segment holds once they are appended.
    saved: list[tuple[tuple[str, str], int]]


class IntervalSegment:
    """The append-only interval segment beside one sidecar, and how much
    of each exact buffer it holds (see the module docstring).

    ``length`` and ``names`` are what the sidecar on disk records;
    :meth:`delta` computes a save's append without changing them, and
    :meth:`commit` adopts it once the sidecar recording it is in place.
    ``path`` is None for a segment whose deltas are never written.
    """

    def __init__(self, path: Path | None) -> None:
        self.path = path
        self.length = 0
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._saved: dict[tuple[str, str], int] = {}

    def delta(self, stats: StatsAccumulator) -> _Append:
        """Blocks for every exact buffer entry the segment lacks, in
        (activity, case) order. A segment holding anything looks only
        at the cells fed since its last save (``stats.fed``, cleared
        by :func:`save_checkpoint`); an empty one at every cell."""
        saved = self._saved
        grown = []
        for activity, case, buffer in stats.exact_buffers(
                stats.fed if self.length else None):
            done = saved.get((activity, case), 0)
            if len(buffer) > done:
                grown.append((activity, case, done, buffer))
        grown.sort()
        index = self._index
        added: dict[str, int] = {}

        def code(name: str) -> int:
            found = index.get(name)
            if found is None:
                found = added.setdefault(name, len(index) + len(added))
            return found

        parts: list = []
        entries = []
        for activity, case, done, buffer in grown:
            chunk = buffer[done:]
            if sys.byteorder == "big":  # pragma: no cover - LE hosts
                chunk.byteswap()
            parts += (_BLOCK.pack(code(activity), code(case),
                                  len(chunk) // 2), chunk)
            entries.append(((activity, case), done + len(chunk)))
        data = b"".join(parts)
        return _Append(data, self.length + len(data),
                       self.names + list(added), entries)

    def write(self, append: _Append) -> None:
        """Append a delta at the recorded length, durably. Bytes past
        that length — left by a save that died before its sidecar
        landed — are cut first."""
        with open(self.path, "ab") as handle:
            size = handle.tell()
            if size < self.length:
                raise ReproError(
                    f"checkpoint segment {self.path} holds {size} bytes, "
                    f"fewer than the {self.length} its sidecar records "
                    f"— it was cut behind the watch")
            if size > self.length:
                handle.truncate(self.length)
            _write_segment(handle, append.data)
            handle.flush()
            _fsync_segment(handle)

    def commit(self, append: _Append) -> None:
        """Adopt a delta whose sidecar is in place."""
        for name in append.names[len(self.names):]:
            self._index[name] = len(self.names)
            self.names.append(name)
        self._saved.update(append.saved)
        self.length = append.length

    @classmethod
    def replay(cls, path: Path, record: dict, stats_state: dict,
               ) -> tuple["IntervalSegment", dict[str, dict[str, array]]]:
        """Read the segment a sidecar records; returns it with the
        buffers of every activity the sidecar keeps no ``"cases"`` for
        (activity -> case -> buffer).

        Raises ValueError naming the segment for a segment shorter
        than recorded, a block naming an unknown name index or running
        past the recorded length, and buffers that disagree with the
        sidecar's event counts — never a silently short buffer.
        """
        segment = cls(path)
        segment.length = int(record["length"])
        segment.names = [str(name) for name in record["names"]]
        segment._index = {name: i for i, name in enumerate(segment.names)}
        activities = stats_state["activities"]
        buffers: dict[str, dict[str, array]] = {
            activity: {} for activity, acc_state in activities.items()
            if "cases" not in acc_state}
        data, longer = b"", False
        try:
            with open(path, "rb") as handle:
                data = handle.read(segment.length)
                longer = bool(handle.read(1))
        except FileNotFoundError:
            pass
        if len(data) < segment.length:
            raise ValueError(
                f"segment {path} holds {len(data)} bytes, fewer than "
                f"the {segment.length} the sidecar records")

        def corrupt(block: int, detail: str) -> ValueError:
            return ValueError(
                f"segment {path}: the block at byte {block} {detail}")

        past = f"runs past the recorded length {segment.length}"
        view = memoryview(data)
        names = segment.names
        block = 0
        while block < segment.length:
            start = block + _BLOCK.size
            if start > segment.length:
                raise corrupt(block, past)
            a_code, c_code, n = _BLOCK.unpack_from(view, block)
            end = start + 16 * n
            if end > segment.length:
                raise corrupt(block, past)
            if max(a_code, c_code) >= len(names):
                raise corrupt(block, f"names index {max(a_code, c_code)} "
                                     f"of a {len(names)}-name table")
            activity = names[a_code]
            cases = buffers.get(activity)
            if cases is not None:
                cases.setdefault(names[c_code], array("q")).frombytes(
                    view[start:end])
            elif activity not in activities:
                raise corrupt(block, f"holds intervals of {activity!r}, "
                                     f"an activity the sidecar lacks")
            # Else the activity was coarsened since: its buffers ride
            # inline in the sidecar and this block is dead.
            block = end
        for activity, cases in buffers.items():
            held = sum(map(len, cases.values())) // 2
            counted = int(activities[activity]["event_count"])
            if held != counted:
                raise ValueError(
                    f"segment {path} holds {held} intervals of "
                    f"{activity!r} but the sidecar counts {counted} "
                    f"events")
            for case, buffer in cases.items():
                if sys.byteorder == "big":  # pragma: no cover
                    buffer.byteswap()
                segment._saved[(activity, case)] = len(buffer)
        if longer:
            os.truncate(path, segment.length)
        return segment, buffers


def _record_to_state(row: tuple) -> dict:
    """A row of a merge buffer as JSON data, keyed by
    :class:`ParsedRecord` field name."""
    return dict(zip(ParsedRecord._fields, row))


def _record_from_state(state: dict) -> tuple:
    """Inverse of :func:`_record_to_state`."""
    return tuple(state[field] for field in ParsedRecord._fields)


def _tail_to_state(tail: FileTail) -> dict:
    return {
        "path": tail.relpath,
        "cid": tail.name.cid,
        "host": tail.name.host,
        "rid": tail.name.rid,
        "offset": tail.offset,
        "carry": base64.b64encode(tail.carry).decode("ascii"),
        "lineno": tail.lineno,
        # MergeStats holds only ints, so a flat copy suffices.
        "stats": dict(vars(tail.merger.stats)),
        "pending": [{"pid": token.pid, "start_us": token.start_us,
                     "body": token.body}
                    for token in tail.merger.pending_tokens()],
        "buffer": [[seq, _record_to_state(record)]
                   for seq, record in tail.merger.buffered_records()],
        "next_seq": tail.merger.next_seq,
    }


def _tail_from_state(state: dict, directory: Path,
                     strict: bool) -> FileTail:
    from repro.strace.naming import TraceFileName

    relpath = str(state["path"])
    name = TraceFileName(cid=state["cid"], host=state["host"],
                         rid=int(state["rid"]))
    tail = FileTail(directory / relpath, name, strict=strict,
                    relpath=relpath)
    tail.offset = int(state["offset"])
    tail.carry = base64.b64decode(state["carry"])
    tail.lineno = int(state["lineno"])
    tail.merger.restore(
        pending=[Token(pid=int(t["pid"]), start_us=int(t["start_us"]),
                       kind=RecordKind.UNFINISHED, body=t["body"])
                 for t in state["pending"]],
        buffered=[(int(seq), _record_from_state(record))
                  for seq, record in state["buffer"]],
        next_seq=int(state["next_seq"]),
        stats=MergeStats(**state["stats"]),
    )
    return tail


def engine_state(engine: "LiveIngest",
                 append: _Append | None = None) -> dict:
    """The full resumable state of a :class:`LiveIngest`, as JSON data.

    ``append`` is the interval-segment delta saved with it (default:
    the one the engine's next save to its own checkpoint appends); the
    state records the segment's length and name table once it is
    appended.

    When an emit journal is attached, it is fsynced *here* and the
    durable offset recorded — the sidecar must never account for
    records the journal does not durably hold (the restore path
    truncates the journal back to this offset).
    """
    if append is None:
        own = engine._segment or IntervalSegment(None)
        append = own.delta(engine.stats)
    emit_offset = (engine.emit_journal.sync()
                   if engine.emit_journal is not None else None)
    emit_packed = (engine.emit_journal.packed_offset
                   if engine.emit_journal is not None else None)
    return {
        "version": CHECKPOINT_VERSION,
        "mapping": engine.mapping.name,
        "recursive": engine.recursive,
        "strict": engine.strict,
        "cids": sorted(engine.cids) if engine.cids is not None else None,
        "window": engine.window,
        "n_polls": engine.n_polls,
        "total_events": engine.total_events,
        "emit_offset": emit_offset,
        "emit_packed": emit_packed,
        "files": [_tail_to_state(engine._tails[path])
                  for path in sorted(engine._tails)],
        "dfg": engine.incremental.to_state(),
        "stats": engine.stats.to_state(with_exact_buffers=False),
        "segment": {"length": append.length, "names": append.names},
        "alerts": _alert_state(engine),
        "telemetry": _telemetry_state(engine),
    }


def _alert_state(engine: "LiveIngest") -> dict:
    """The alert state to persist: the attached engine's live state,
    or the stashed state of a previous life (a watch restarted without
    rules must not erase the alert history it cannot interpret), or
    the empty default."""
    from repro.alerts import empty_alert_state

    if engine.alerts is not None:
        return engine.alerts.to_state()
    if engine._alert_state is not None:
        return engine._alert_state
    return empty_alert_state()


def _telemetry_state(engine: "LiveIngest") -> dict | None:
    """The telemetry state to persist: the live snapshot when
    telemetry is on, the stashed previous-life state when it is off
    (a watch restarted without --metrics-* must not erase the counter
    history a previous life accumulated), else nothing."""
    if engine.telemetry.enabled:
        return engine.telemetry.to_state()
    return engine._telemetry_state


def _segment_for(engine: "LiveIngest", target: Path) -> IntervalSegment:
    """The segment a save to ``target`` appends to: the engine's own
    when ``target`` is its checkpoint, else an empty one, so a sidecar
    saved anywhere else gets a complete segment of its own."""
    if target != engine.checkpoint_path:
        return IntervalSegment(segment_path(target))
    if engine._segment is None:
        engine._segment = IntervalSegment(segment_path(target))
    return engine._segment


def restore_engine(engine: "LiveIngest", state: dict,
                   path: str | os.PathLike[str]) -> None:
    """Load :func:`engine_state` output, saved at ``path``, into a
    freshly built engine."""
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise ReproError(
            f"unsupported checkpoint version {version!r} in {path} (this "
            f"build reads and writes only {CHECKPOINT_VERSION}) — delete "
            f"the sidecar and re-watch the directory to rebuild it")
    current_cids = sorted(engine.cids) if engine.cids is not None else None
    for attribute, current in (("mapping", engine.mapping.name),
                               ("recursive", engine.recursive),
                               ("strict", engine.strict),
                               ("cids", current_cids)):
        if state[attribute] != current:
            raise ReproError(
                f"checkpoint was taken with {attribute}="
                f"{state[attribute]!r} but the engine runs with "
                f"{current!r} — resuming would corrupt the graph")
    engine.n_polls = int(state["n_polls"])
    engine.total_events = int(state["total_events"])
    engine.incremental = IncrementalDFG.from_state(state["dfg"])
    if engine.emit_journal is not None:
        emit_offset = state["emit_offset"]
        if emit_offset is None:
            # The previous life ran without --emit.
            if engine.total_events > 0:
                raise ReproError(
                    f"checkpoint accounts for {engine.total_events} "
                    f"sealed events that were never emit-journaled — "
                    f"--emit cannot reconstruct them; resume without "
                    f"--emit, or delete the checkpoint (and any stale "
                    f"journal) to re-watch from scratch")
            engine.emit_journal.truncate_to(0)
        else:
            # The journal's compaction base can only be *ahead* of the
            # sidecar (a compaction ran after this save — its packed
            # prefix is already durable in the .elog, and the header's
            # per-case counts keep replay exact). A journal *behind*
            # the sidecar's pack offset means the journal/.elog pair
            # was swapped for older files, and the packed records the
            # sidecar accounts for may be gone.
            emit_packed = int(state["emit_packed"])
            if engine.emit_journal.packed_offset < emit_packed:
                raise ReproError(
                    f"checkpoint says {emit_packed} emit-journal "
                    f"bytes were compacted into "
                    f"{engine.emit_journal.elog_path} but the journal "
                    f"header claims only "
                    f"{engine.emit_journal.packed_offset} — the "
                    f"journal was replaced behind the checkpoint; "
                    f"delete checkpoint, journal and .elog and "
                    f"re-watch")
            engine.emit_journal.truncate_to(int(emit_offset))
    segment, buffers = IntervalSegment.replay(
        segment_path(path), state["segment"], state["stats"])
    # The segment is replayed first; passing the engine's window then
    # coarsens buffers saved unwindowed (or under a wider window) down
    # to this life's cap.
    engine.stats = StatsAccumulator.from_state(
        state["stats"], window=engine.window, exact_buffers=buffers)
    # A well-formed wrong count would restore silently, and every later
    # poll would carry it.
    engine.incremental.check_laws(engine.stats.event_counts())
    if Path(path) == engine.checkpoint_path:
        # Saves to the engine's checkpoint append to this segment;
        # any other load leaves them to write a complete one.
        engine._segment = segment
    alert_state = state["alerts"]
    engine._alert_state = alert_state
    if engine.alerts is not None:
        engine.alerts.restore_state(alert_state)
    # None when every previous life ran uninstrumented.
    telemetry_state = state["telemetry"]
    engine._telemetry_state = telemetry_state
    if engine.telemetry.enabled:
        engine.telemetry.restore_state(telemetry_state)
    for tail_state in state["files"]:
        tail = _tail_from_state(tail_state, engine.directory,
                                engine.strict)
        engine._tails[tail.path] = tail
        engine._case_paths[tail.name.case_id] = tail.path
        tail.telemetry = engine.telemetry


def save_checkpoint(engine: "LiveIngest",
                    path: str | os.PathLike[str]) -> Path:
    """Serialize the engine atomically *and durably* to ``path``.

    The intervals sealed since the previous save are appended to the
    segment beside ``path`` and fsynced first; then the sidecar's temp
    file is fsynced before ``os.replace`` and the directory entry is
    fsynced after: a crash or power loss at any instant of this
    function leaves either the previous complete sidecar or the new
    complete one on disk — never a zero-length or torn file
    (``os.replace`` alone guarantees only name atomicity, not that the
    replacing *contents* reached the platter) — and a segment holding
    every byte that sidecar records. Pinned by the crash-consistency
    tests in ``tests/test_live``. A ``path`` other than the engine's
    own checkpoint gets a complete segment of its own.

    Cost: O(files + activities + edges + new intervals) — the sidecar
    is rewritten whole (compactly — no whitespace) but holds no
    per-event state except the buffers of coarsened activities, which
    the window bounds, while the segment grows by 16 bytes per new
    interval. Bound a chatty alert history with the rules file's
    ``history_limit``.
    """
    target = Path(path)
    segment = _segment_for(engine, target)
    append = segment.delta(engine.stats)
    payload = json.dumps(engine_state(engine, append), sort_keys=True,
                         separators=(",", ":"))
    if append.data:
        segment.write(append)
    temp = target.with_name(target.name + ".tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, target)
    # The sidecar on disk records the delta now, so the next save
    # appends after it even if the directory fsync below fails.
    segment.commit(append)
    if segment is engine._segment:
        engine.stats.fed.clear()
    _fsync_directory(target.parent)
    return target


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry (the rename) to stable storage."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_checkpoint(engine: "LiveIngest",
                    path: str | os.PathLike[str]) -> None:
    """Restore a fresh engine from a sidecar written by
    :func:`save_checkpoint`.

    A stale ``<name>.tmp`` next to the sidecar — a save killed between
    temp write and replace — is removed: it may be torn, and the
    sidecar proper is by construction the newest *complete* state.
    """
    target = Path(path)
    stale = target.with_name(target.name + ".tmp")
    stale.unlink(missing_ok=True)
    try:
        state = json.loads(target.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReproError(f"corrupt checkpoint {path}: {exc}") from exc
    # Valid JSON of the wrong shape (a key missing, a value of the
    # wrong type) is as corrupt as a torn file.
    try:
        restore_engine(engine, state, target)
    except KeyError as exc:
        raise ReproError(
            f"corrupt checkpoint {path}: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ReproError(f"corrupt checkpoint {path}: {exc}") from exc
