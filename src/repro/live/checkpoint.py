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
  the exact-sum rate partials and the per-case interval buffers
  (base64 of little-endian int64 ``start, end`` pairs)
  (:meth:`~repro.core.statistics.StatsAccumulator.to_state`), so a
  restarted watcher renders *full-history* node annotations instead of
  statistics covering only its own lifetime;
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

Durability. The sidecar is written atomically *and* durably: the temp
file is fsynced before ``os.replace`` and the directory is fsynced
after, so a crash or power loss at any point surfaces either the
previous complete sidecar or the new complete sidecar — never a torn
or empty one. A stale ``*.tmp`` from a kill between write and replace
is removed on the next load. File paths are stored relative to the
trace directory, so a checkpoint travels with the directory (e.g.
onto another node of the cluster).
"""

from __future__ import annotations

import base64
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

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
CHECKPOINT_VERSION = 7


def _record_to_state(record: tuple) -> dict:
    """A record or row as JSON data, keyed by :class:`ParsedRecord`
    field name."""
    return dict(zip(ParsedRecord._fields, record))


def _record_from_state(state: dict) -> ParsedRecord:
    """Inverse of :func:`_record_to_state`. Reads only the record's
    fields, so records saved with the ``args``/``retval``/``requested``
    keys the parser no longer produces still load."""
    return ParsedRecord._make(state[field] for field in ParsedRecord._fields)


def _tail_to_state(tail: FileTail, directory: Path) -> dict:
    return {
        "path": tail.path.relative_to(directory).as_posix(),
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

    path = directory / state["path"]
    name = TraceFileName(cid=state["cid"], host=state["host"],
                         rid=int(state["rid"]))
    tail = FileTail(path, name, strict=strict)
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


def engine_state(engine: "LiveIngest") -> dict:
    """The full resumable state of a :class:`LiveIngest`, as JSON data.

    When an emit journal is attached, it is fsynced *here* and the
    durable offset recorded — the sidecar must never account for
    records the journal does not durably hold (the restore path
    truncates the journal back to this offset).
    """
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
        "files": [_tail_to_state(engine._tails[path], engine.directory)
                  for path in sorted(engine._tails)],
        "dfg": engine.incremental.to_state(),
        "stats": engine.stats.to_state(),
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


def restore_engine(engine: "LiveIngest", state: dict) -> None:
    """Load :func:`engine_state` output into a freshly built engine."""
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise ReproError(
            f"unsupported checkpoint version {version!r} (this build "
            f"reads and writes only {CHECKPOINT_VERSION}) — delete the "
            f"sidecar and re-watch the directory to rebuild it")
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
    # Passing the engine's window coarsens buffers saved unwindowed
    # (or under a wider window) down to this life's cap on load.
    engine.stats = StatsAccumulator.from_state(state["stats"],
                                               window=engine.window)
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

    The temp file is fsynced before ``os.replace`` and the directory
    entry is fsynced after: a crash or power loss at any instant of
    this function leaves either the previous complete sidecar or the
    new complete one on disk — never a zero-length or torn file
    (``os.replace`` alone guarantees only name atomicity, not that the
    replacing *contents* reached the platter). Pinned by the
    crash-consistency tests in ``tests/test_live``.

    Cost: O(accumulated state), not O(delta) — each save rewrites the
    whole sidecar (compactly — no whitespace). The interval buffers
    dominate, at ~21 bytes of base64 per interval and one C-level
    encode per buffer; bound them with ``LiveIngest(window=...)`` for
    week-long watches, and bound a chatty alert history with the rules
    file's ``history_limit``.
    """
    target = Path(path)
    payload = json.dumps(engine_state(engine), sort_keys=True,
                         separators=(",", ":"))
    temp = target.with_name(target.name + ".tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, target)
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
    except json.JSONDecodeError as exc:
        raise ReproError(f"corrupt checkpoint {path}: {exc}") from exc
    # Valid JSON of the wrong shape (a key missing, a value of the
    # wrong type) is as corrupt as a torn file.
    try:
        restore_engine(engine, state)
    except KeyError as exc:
        raise ReproError(
            f"corrupt checkpoint {path}: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ReproError(f"corrupt checkpoint {path}: {exc}") from exc
