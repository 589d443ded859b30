"""Durable streaming emission: every sealed record survives restarts.

``watch --emit run.elog`` asks the live engine to keep the *full*
event log of a watched run — not just the graph and statistics the
checkpoint carries — so that after any number of kill/restart cycles
the run can be packed into an ``.elog`` byte-identical to batch
ingestion of the final directory.

The mechanism is a sidecar **journal** (``run.elog.journal``): an
append-only JSONL file gaining one line per ``(case, sealed batch)``
as records seal. Append-only is what makes it crash-safe to combine
with the checkpoint:

- :meth:`EmitJournal.sync` (flush + ``fsync``) runs *before* every
  checkpoint save, and the checkpoint records the synced byte offset —
  so the sidecar never claims records the journal does not durably
  hold;
- on restore, :meth:`EmitJournal.truncate_to` cuts the journal back to
  the checkpointed offset — bytes past it (records sealed after the
  last save, or a torn final line) describe trace bytes the restored
  engine will re-read and re-seal, so dropping them is exactly what
  prevents duplicates.

Packing (:meth:`EmitJournal.pack`) replays the journal per case and
streams the cases through
:meth:`~repro.elstore.writer.EventLogWriter.add_case_records` in
sorted-path order — the same columnarization
(:func:`~repro.ingest.parallel.rows_to_columns`) and the same case
order as batch ``convert`` over the directory, which is what makes
the output *byte*-identical, global string pools included. Cases the
engine follows but that sealed nothing are packed empty, as batch
does.

Rolling compaction (:meth:`EmitJournal.compact`) keeps the journal's
disk footprint O(recent) over a week-long watch instead of O(events):
the *checkpointed* journal prefix is packed into the destination
``.elog`` (same pack path as above) and the journal is rewritten to
hold only the un-packed suffix, led by a **header line**::

    {"journal": 2, "base": B, "cases": {case_id: n_records}}

``base`` is the *logical* offset of the file's first post-header byte
— all offsets exchanged with the checkpoint stay logical (bytes ever
appended), so compaction never invalidates a sidecar. ``cases`` pins
how many leading records of each case in the ``.elog`` belong to the
packed prefix ``[0, base)``. That count is what makes every step
crash-safe: a kill after the ``.elog`` replace but before the journal
rewrite leaves an ``.elog`` holding *more* than the header claims, and
the next replay simply cuts each case back to the header's count — the
extra records are still in the journal and are replayed from there.
Per-case record lists grow append-only across prefix extensions, so
the cut is exact, never approximate.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

from repro._util.errors import ReproError
from repro.strace.naming import TraceFileName
from repro.telemetry.spans import NULL_TELEMETRY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.live.engine import LiveIngest
    from repro.strace.parser import ParsedRecord

#: Journal header format written by compaction (headerless = format 1).
JOURNAL_FORMAT = 2


def journal_path(elog_path: str | os.PathLike[str]) -> Path:
    """The journal behind an emit destination: ``<name>.journal``
    beside it — the one place its name is derived."""
    elog_path = Path(elog_path)
    return elog_path.with_name(elog_path.name + ".journal")


def _fsync_handle(handle) -> None:
    """Durability seam: fsync an open file (fault-injection target)."""
    os.fsync(handle.fileno())


def _replace(source: Path, dest: Path) -> None:
    """Durability seam: atomic rename (fault-injection target)."""
    os.replace(source, dest)


def _fsync_directory(path: Path) -> None:
    """Durability seam: fsync a directory so a rename survives power
    loss (fault-injection target, independent of the checkpoint's)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _records_from_columns(data: dict, pools: dict,
                          count: int) -> "list[ParsedRecord]":
    """First ``count`` stored rows of one case, as parsed records.

    Only the six column-backed fields matter downstream — packing
    (:func:`~repro.ingest.parallel.rows_to_columns`) reads nothing
    else — so ``errno``, which the container does not store, is
    reconstructed as absent.
    """
    from repro.strace.parser import ParsedRecord

    calls = pools["calls"]
    paths = pools["paths"]
    rows = zip(data["pid"][:count].tolist(),
               data["call"][:count].tolist(),
               data["start"][:count].tolist(),
               data["dur"][:count].tolist(),
               data["fp"][:count].tolist(),
               data["size"][:count].tolist())
    return [ParsedRecord(pid=pid, start_us=start, call=calls[call],
                         fp=None if fp < 0 else paths[fp],
                         size=None if size < 0 else size,
                         dur_us=None if dur < 0 else dur, errno=None)
            for pid, call, start, dur, fp, size in rows]


class EmitJournal:
    """Append-only durable journal of sealed records + ``.elog`` pack.

    Construct with the *destination* ``.elog`` path; the journal lives
    next to it as ``<name>.journal`` and is deliberately kept after a
    successful pack — it is the source of truth for a future life of
    the same watch (delete both to start over). After compaction the
    ``.elog`` holds the packed prefix and the journal only the suffix;
    the two together still cover every sealed record.
    """

    def __init__(self, elog_path: str | os.PathLike[str], *,
                 telemetry=None) -> None:
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        self.elog_path = Path(elog_path)
        self.journal_path = journal_path(elog_path)
        parent = self.journal_path.parent
        if not parent.is_dir():
            raise ReproError(
                f"--emit {self.elog_path}: parent directory "
                f"{parent} does not exist")
        self._handle = None
        self._state_loaded = False
        self._base = 0
        self._header_len = 0
        self._packed_cases: dict[str, int] = {}

    # -- header state ------------------------------------------------------

    def _load_state(self) -> None:
        """Read the compaction header (if any) once, lazily."""
        if self._state_loaded:
            return
        self._base = 0
        self._header_len = 0
        self._packed_cases = {}
        if self.journal_path.exists():
            with open(self.journal_path, "rb") as handle:
                first = handle.readline()
            header = None
            if first:
                try:
                    header = json.loads(first)
                except (UnicodeDecodeError, json.JSONDecodeError):
                    header = None  # headerless (format-1) record line
            if isinstance(header, dict) and "journal" in header:
                if int(header["journal"]) != JOURNAL_FORMAT:
                    raise ReproError(
                        f"{self.journal_path}: unsupported journal "
                        f"format {header['journal']} (this build "
                        f"writes format {JOURNAL_FORMAT})")
                self._base = int(header["base"])
                self._header_len = len(first)
                self._packed_cases = {
                    str(case): int(count)
                    for case, count in header["cases"].items()}
        self._state_loaded = True

    @property
    def packed_offset(self) -> int:
        """Logical journal offset already packed into the ``.elog``."""
        self._load_state()
        return self._base

    def _physical_size(self) -> int:
        return self.journal_path.stat().st_size \
            if self.journal_path.exists() else 0

    # -- appending ---------------------------------------------------------

    def append(self, name: TraceFileName,
               records: "list[ParsedRecord]") -> None:
        """Journal one sealed batch of one case (buffered)."""
        from repro.live.checkpoint import _record_to_state

        if self._handle is None:
            self._load_state()
            self._handle = open(self.journal_path, "ab")
        line = json.dumps(
            {"cid": name.cid, "host": name.host, "rid": name.rid,
             "records": [_record_to_state(r) for r in records]},
            sort_keys=True, separators=(",", ":"))
        self._handle.write(line.encode("utf-8") + b"\n")

    def sync(self) -> int:
        """Flush + fsync; returns the durable *logical* byte offset.

        Called before every checkpoint save, so the offset the sidecar
        records is never ahead of what the disk holds. Logical offsets
        count every byte ever appended — compaction moves the physical
        file under them without renumbering.
        """
        self._load_state()
        if self._handle is None:
            physical = self._physical_size()
            self.telemetry.gauge_set("emit_journal_bytes", physical)
            return self._base + max(physical - self._header_len, 0)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.telemetry.count("journal_fsyncs_total")
        physical = self._handle.tell()
        self.telemetry.gauge_set("emit_journal_bytes", physical)
        return self._base + physical - self._header_len

    def truncate_to(self, offset: int) -> None:
        """Cut the journal back to a checkpointed offset (restore path).

        Records past the offset were sealed after the last checkpoint
        save — the restored engine's tails will re-read those trace
        bytes and re-journal them, so keeping the old lines would
        duplicate them in the pack. Also disposes of a torn final line
        from a crash mid-append.
        """
        if self._handle is not None:
            raise ReproError(
                "emit journal already open for append; truncate on "
                "restore must happen before the first append")
        self._load_state()
        physical = self._physical_size()
        current = self._base + max(physical - self._header_len, 0)
        if offset > current:
            raise ReproError(
                f"checkpoint claims {offset} durable emit-journal "
                f"bytes but {self.journal_path} holds {current} — the "
                f"journal was truncated or replaced behind the "
                f"checkpoint; delete both and re-watch")
        if offset < self._base:
            raise ReproError(
                f"checkpoint claims {offset} durable emit-journal "
                f"bytes but {self.journal_path} was already compacted "
                f"through {self._base} — the checkpoint is older than "
                f"the journal behind it; delete checkpoint, journal "
                f"and .elog and re-watch")
        if physical and offset < current:
            with open(self.journal_path, "r+b") as handle:
                handle.truncate(self._header_len + offset - self._base)

    def reset(self) -> None:
        """Start the journal over (fresh watch without a checkpoint).

        A leftover journal/compacted ``.elog`` pair describes a
        previous watch whose engine state is gone — replaying it would
        duplicate every record the fresh engine re-seals, so the
        journal is removed outright and the compaction base forgotten
        (a later pack overwrites the stale ``.elog``).
        """
        if self._handle is not None:
            raise ReproError(
                "emit journal already open for append; reset must "
                "happen before the first append")
        self.journal_path.unlink(missing_ok=True)
        self._state_loaded = True
        self._base = 0
        self._header_len = 0
        self._packed_cases = {}

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- packing -----------------------------------------------------------

    def _apply_line(self, cases: dict, raw: bytes) -> None:
        data = json.loads(raw)
        from repro.live.checkpoint import _record_from_state

        name = TraceFileName(cid=data["cid"], host=data["host"],
                             rid=int(data["rid"]))
        entry = cases.setdefault(name.case_id, (name, []))
        entry[1].extend(
            _record_from_state(r) for r in data["records"])

    def _read_packed(self) -> dict[str, tuple[TraceFileName,
                                              "list[ParsedRecord]"]]:
        """Replay the compacted prefix out of the destination ``.elog``.

        Each case is cut back to the header's record count: an
        ``.elog`` written by a compaction that died before the journal
        rewrite legitimately holds more, and those extra records are
        still in the journal — cutting is what keeps the two sources
        a partition instead of an overlap.
        """
        from repro.elstore.reader import EventLogStore

        self._load_state()
        cases: dict[str, tuple[TraceFileName, list]] = {}
        if self._base == 0:
            return cases
        if not self.elog_path.exists():
            raise ReproError(
                f"{self.journal_path} was compacted through "
                f"{self._base} but the packed {self.elog_path} is "
                f"missing — the packed prefix is unrecoverable; "
                f"delete the journal (and any checkpoint) and "
                f"re-watch")
        store = EventLogStore(self.elog_path)
        for case_id, count in self._packed_cases.items():
            if count <= 0:
                continue
            meta = store.case_meta(case_id)
            name = TraceFileName(cid=meta.cid, host=meta.host,
                                 rid=int(meta.rid))
            data = store.read_case(case_id)
            cases[case_id] = (
                name, _records_from_columns(data, store.pools, count))
        return cases

    def replay(self) -> dict[str, tuple[TraceFileName,
                                        "list[ParsedRecord]"]]:
        """case id -> (name, sealed records in sealed order).

        Packed prefix (from the ``.elog``) first, then the journal
        suffix — together every sealed record of every life, exactly
        once.
        """
        cases = self._read_packed()
        if self._handle is not None:
            self._handle.flush()
        if not self.journal_path.exists():
            return cases
        with open(self.journal_path, "rb") as handle:
            handle.seek(self._header_len)
            for line in handle:
                self._apply_line(cases, line)
        return cases

    def _write_elog(self, engine: "LiveIngest",
                    replayed: dict, *, dest: Path) -> dict[str, int]:
        """Stream ``replayed`` into ``dest`` durably (tmp → fsync →
        rename → dir fsync); returns per-case record counts written.

        Cases follow the engine's sorted-path order — batch ``convert``
        order — with any replayed case the engine no longer names
        (defensive: should not happen) appended after, so no sealed
        record is ever dropped by a rewrite.
        """
        from repro.elstore.writer import EventLogWriter

        counts: dict[str, int] = {}
        tmp = dest.with_name(dest.name + ".tmp")
        with EventLogWriter(tmp) as writer:
            for path in sorted(engine._tails):
                name = engine._tails[path].name
                _, records = replayed.get(name.case_id, (name, []))
                writer.add_case_records(name, records)
                counts[name.case_id] = len(records)
            for case_id in sorted(replayed):
                if case_id in counts:
                    continue
                name, records = replayed[case_id]
                writer.add_case_records(name, records)
                counts[case_id] = len(records)
        with open(tmp, "rb") as handle:
            _fsync_handle(handle)
        _replace(tmp, dest)
        _fsync_directory(dest.parent)
        return counts

    def pack(self, engine: "LiveIngest") -> Path:
        """Write the ``.elog`` from the journal — byte-identical to
        batch conversion of the directory in its current sealed state.

        ``engine`` supplies the followed files (for case order and for
        cases with nothing sealed); the records come from the packed
        prefix plus the journal suffix, so the pack covers every life
        of the watch, not just the current process. The write is
        atomic (tmp + rename): a kill mid-pack leaves the previous
        ``.elog`` — which a compacted journal depends on — untouched.
        """
        replayed = self.replay()
        self._write_elog(engine, replayed, dest=self.elog_path)
        return self.elog_path

    def compact(self, engine: "LiveIngest", *, up_to: int) -> bool:
        """Pack the journal prefix ``[0, up_to)`` into the ``.elog``
        and drop it from the journal; returns True if anything moved.

        ``up_to`` must be a *checkpointed* logical offset: the sidecar
        on disk must already account for every record in the prefix,
        otherwise a restore would re-seal records the journal no
        longer holds. Each step is individually durable, and the
        header's per-case counts make every intermediate state
        replayable (see module docstring), so a kill at any point
        leaves either the old or the new compaction level — never a
        torn one.
        """
        self._load_state()
        if up_to <= self._base:
            return False
        if self._handle is not None:
            self._handle.flush()
        physical_cut = self._header_len + (up_to - self._base)
        physical = self._physical_size()
        if physical_cut > physical:
            raise ReproError(
                f"compaction offset {up_to} is past the journal "
                f"({self._base + physical - self._header_len} logical "
                f"bytes) — compact only up to a checkpointed offset")
        replayed = self._read_packed()
        with open(self.journal_path, "rb") as handle:
            handle.seek(self._header_len)
            body = handle.read(physical_cut - self._header_len)
            remainder = handle.read()
        for line in body.splitlines():
            self._apply_line(replayed, line)
        counts = self._write_elog(engine, replayed,
                                  dest=self.elog_path)
        header = json.dumps(
            {"journal": JOURNAL_FORMAT, "base": up_to,
             "cases": counts},
            sort_keys=True, separators=(",", ":")).encode("utf-8") \
            + b"\n"
        tmp = self.journal_path.with_name(
            self.journal_path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(header)
            handle.write(remainder)
            handle.flush()
            _fsync_handle(handle)
        self.close()  # reopened lazily at the next append
        _replace(tmp, self.journal_path)
        _fsync_directory(self.journal_path.parent)
        self._base = up_to
        self._header_len = len(header)
        self._packed_cases = counts
        self.telemetry.count("journal_compactions_total")
        self.telemetry.gauge_set(
            "emit_journal_bytes", len(header) + len(remainder))
        return True
