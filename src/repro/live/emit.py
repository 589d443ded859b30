"""Durable streaming emission: every sealed record survives restarts.

``watch --emit run.elog`` asks the live engine to keep the *full*
event log of a watched run — not just the graph and statistics the
checkpoint carries — so that after any number of kill/restart cycles
the run can be packed into an ``.elog`` byte-identical to batch
ingestion of the final directory.

The mechanism is a sidecar **journal** (``run.elog.journal``): an
append-only file gaining one column block per poll that sealed
anything (:meth:`EmitJournal.append`). Append-only is what makes it
crash-safe to combine with the checkpoint:

- :meth:`EmitJournal.sync` (flush + ``fsync``) runs *before* every
  checkpoint save, and the checkpoint records the synced byte offset —
  so the sidecar never claims records the journal does not durably
  hold;
- on restore, :meth:`EmitJournal.truncate_to` checks every block up to
  the checkpointed offset and cuts the journal back to it — blocks
  past it (records sealed after the last save, or a torn final block)
  describe trace bytes the restored engine will re-read and re-seal,
  so dropping them is exactly what prevents duplicates.

Format 3, all integers little-endian::

    journal := header block*
    header  := "EMITJRNL" | format u16 = 3 | length u32 | body | crc32 u32
    body    := UTF-8 JSON {"base": B, "cases": {case_id: n_records}}
    block   := offset u64 | length u32 | rows u32 | meta | columns
               | crc32 u32
    meta    := UTF-8 JSON {"cases": [[cid, host, rid, n], ...],
                           "calls": [...], "paths": [...]}
    columns := pid i8[rows] | call i4[rows] | start i8[rows]
               | dur i8[rows] | fp i4[rows] | size i8[rows]

A block holds one poll's sealed rows case by case, in the order of
``meta``'s ``"cases"`` (``n`` rows each, in sealed order). The columns
are the ``.elog``'s (:data:`~repro.elstore.schema.CASE_COLUMNS`);
``call`` and ``fp`` are codes into the block's own ``calls`` and
``paths`` pools, and -1 marks a missing path, size or duration.
``length`` is the byte length of ``meta``, ``offset`` the block's
logical offset (below), and each ``crc32`` covers every byte of its
header or block before it. A flipped byte, a cut inside a block, or a
block copied to where it does not belong is therefore a located
``corrupt emit journal PATH: …`` error, never a different ``.elog``.

Packing (:meth:`EmitJournal.pack`) gathers every case's columns from
the packed prefix and the blocks in O(blocks + cases) NumPy calls and
streams them through
:meth:`~repro.elstore.writer.EventLogWriter.add_case_arrays` in
sorted-path order, each case's string pools rebuilt in first-occurrence
order — the columns, pools and case order batch ``convert`` writes over
the directory, which is what makes the output *byte*-identical, global
string pools included. Cases the engine follows but that sealed
nothing are packed empty, as batch does.

Rolling compaction (:meth:`EmitJournal.compact`) keeps the journal's
disk footprint O(recent) over a week-long watch instead of O(events):
the *checkpointed* journal prefix is packed into the destination
``.elog`` (same pack path as above) and the journal is rewritten as a
new header and the un-packed blocks, copied byte for byte. ``base`` is
the *logical* offset of the file's first post-header byte — all
offsets exchanged with the checkpoint, and each block's ``offset``,
stay logical (bytes ever appended after the header), so compaction
never invalidates a sidecar. ``cases`` pins how many leading records
of each case in the ``.elog`` belong to the packed prefix
``[0, base)``. That count is what makes every step crash-safe: a kill
after the ``.elog`` replace but before the journal rewrite leaves an
``.elog`` holding *more* than the header claims, and the next pack
simply cuts each case back to the header's count — the extra records
are still in the journal and are packed from there. Per-case record
lists grow append-only across prefix extensions, so the cut is exact,
never approximate.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro._util.errors import ReproError
from repro.elstore.schema import CASE_COLUMNS
from repro.strace.naming import TraceFileName
from repro.telemetry.spans import NULL_TELEMETRY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.elstore.writer import EventLogWriter
    from repro.live.engine import LiveIngest
    from repro.strace.parser import ParsedRecord

#: The journal format this build reads and writes (no other is read).
JOURNAL_FORMAT = 3

_MAGIC = b"EMITJRNL"
#: Header frame: magic, format, byte length of the JSON body.
_HEADER = struct.Struct("<8sHI")
#: Block head: logical offset, byte length of the meta JSON, rows.
_BLOCK = struct.Struct("<QII")
_CRC = struct.Struct("<I")
_COLUMNS = tuple(CASE_COLUMNS.items())
#: Bytes one row takes across the six columns.
_ROW_BYTES = sum(np.dtype(dtype).itemsize for _, dtype in _COLUMNS)

#: One decoded block or packed prefix: each case's ``(cid, host, rid)``,
#: each case's row count, the call and path pools its codes index, and
#: its six columns.
_Part = tuple[list[tuple[str, str, int]], list[int], list[str], list[str],
             dict[str, np.ndarray]]


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


def _encode_header(base: int, cases: dict[str, int]) -> bytes:
    body = json.dumps({"base": base, "cases": cases}, sort_keys=True,
                      separators=(",", ":")).encode("ascii")
    framed = _HEADER.pack(_MAGIC, JOURNAL_FORMAT, len(body)) + body
    return framed + _CRC.pack(zlib.crc32(framed))


def _encode_block(offset: int, batch: "list[tuple[TraceFileName, "
                                       "list[ParsedRecord]]]") -> bytes:
    """One block holding ``batch`` — (name, sealed rows) per case, no
    case empty — at logical journal offset ``offset``.

    The poll's rows are columnarized as one case
    (:func:`~repro.ingest.parallel.rows_to_columns`), so the block's
    pools are in first-occurrence order over the whole poll.
    """
    from repro.ingest.parallel import rows_to_columns

    rows = [row for _, sealed in batch for row in sealed]
    case = rows_to_columns(batch[0][0], rows)
    meta = json.dumps(
        {"cases": [[name.cid, name.host, name.rid, len(sealed)]
                   for name, sealed in batch],
         "calls": case.calls, "paths": case.paths},
        separators=(",", ":")).encode("ascii")
    columns = case.columns()
    block = b"".join((
        _BLOCK.pack(offset, len(meta), len(rows)), meta,
        *(columns[name].astype(dtype, copy=False).tobytes()
          for name, dtype in _COLUMNS)))
    return block + _CRC.pack(zlib.crc32(block))


class _Gather:
    """Rows of many cases collected for one ``.elog`` write.

    Each added part's codes are re-coded into gather-wide pools (one
    lookup table per part); :meth:`write` sorts the rows by case once,
    stably, so each case keeps the order its parts were added in.
    """

    def __init__(self) -> None:
        #: Case code -> name, and ``(cid, host, rid)`` -> case code.
        self._names: list[TraceFileName] = []
        self._codes: dict[tuple[str, str, int], int] = {}
        self._pools: tuple[dict[str, int], dict[str, int]] = ({}, {})
        self._parts: list[tuple[np.ndarray, dict[str, np.ndarray]]] = []

    def _case(self, key: tuple[str, str, int]) -> int:
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self._names)
            self._names.append(TraceFileName(*key))
        return code

    def add(self, part: _Part) -> None:
        keys, counts, calls, paths, columns = part
        call_pool, path_pool = self._pools
        call_lut = np.array(
            [call_pool.setdefault(s, len(call_pool)) for s in calls],
            dtype=np.int32)
        # The trailing -1 keeps fp code -1 ("no path") at -1.
        path_lut = np.array(
            [*(path_pool.setdefault(s, len(path_pool)) for s in paths),
             -1], dtype=np.int32)
        coded = dict(columns)
        coded["call"] = call_lut[columns["call"]]
        coded["fp"] = path_lut[columns["fp"]]
        case = self._case
        owner = np.repeat(np.array([case(key) for key in keys],
                                   dtype=np.int64), counts)
        self._parts.append((owner, coded))

    def write(self, writer: "EventLogWriter",
              order: list[TraceFileName]) -> dict[str, int]:
        """Add every case to ``writer``: those of ``order`` first, in
        that order (empty if nothing was gathered for one), then any
        other gathered case by case id — so no sealed record is ever
        dropped. Returns the rows written per case."""
        owner = np.concatenate([o for o, _ in self._parts]
                               or [np.empty(0, np.int64)])
        by_case = np.argsort(owner, kind="stable")
        joined = {
            name: np.concatenate([part[name] for _, part in self._parts]
                                 or [np.empty(0, dtype)])[by_case]
            for name, dtype in _COLUMNS}
        bounds = np.searchsorted(owner[by_case],
                                 np.arange(len(self._names) + 1))
        calls = _Localizer(list(self._pools[0]))
        paths = _Localizer(list(self._pools[1]))
        gathered = {name.case_id: code
                    for code, name in enumerate(self._names)}
        names = {name.case_id: name for name in order}
        names.update((case_id, self._names[gathered[case_id]])
                     for case_id in sorted(gathered)
                     if case_id not in names)
        counts: dict[str, int] = {}
        for case_id, name in names.items():
            code = gathered.get(case_id)
            lo, hi = (0, 0) if code is None \
                else (bounds[code], bounds[code + 1])
            columns = {column: values[lo:hi]
                       for column, values in joined.items()}
            columns["call"], call_strings = calls(columns["call"])
            columns["fp"], path_strings = paths(columns["fp"])
            writer.add_case_arrays(
                case_id=case_id, cid=name.cid, host=name.host,
                rid=name.rid, columns=columns,
                call_strings=call_strings, path_strings=path_strings)
            counts[case_id] = int(hi - lo)
        return counts


class _Localizer:
    """Re-code one case's codes into a pool of its own, built in
    first-occurrence order — the order
    :func:`~repro.ingest.parallel.rows_to_columns` interns in. One
    lookup table serves every case; only the entries a case uses are
    set, then cleared."""

    def __init__(self, pool: list[str]) -> None:
        self.pool = pool
        self._lut = np.full(len(pool) + 1, -1, dtype=np.int32)

    def __call__(self, codes: np.ndarray) -> tuple[np.ndarray, list[str]]:
        used = [code for code in dict.fromkeys(codes.tolist())
                if code >= 0]
        self._lut[used] = np.arange(len(used), dtype=np.int32)
        local = self._lut[codes]
        self._lut[used] = -1
        return local, [self.pool[code] for code in used]


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

    def _corrupt(self, detail: str) -> ReproError:
        return ReproError(
            f"corrupt emit journal {self.journal_path}: {detail}; delete "
            f"both the journal and the checkpoint (and the .elog) and "
            f"re-watch")

    # -- header state ------------------------------------------------------

    def _load_state(self) -> None:
        """Read the header once, lazily. A missing or empty journal has
        none yet: the first append writes it."""
        if self._state_loaded:
            return
        self._base = 0
        self._header_len = 0
        self._packed_cases = {}
        try:
            with open(self.journal_path, "rb") as handle:
                frame = handle.read(_HEADER.size)
                if frame:
                    self._read_header(handle, frame)
        except FileNotFoundError:
            pass
        self._state_loaded = True

    def _read_header(self, handle, frame: bytes) -> None:
        if frame[:len(_MAGIC)] != _MAGIC[:len(frame)]:
            raise self._corrupt(
                "it does not start with a format-3 header (a JSON-lines "
                "journal of an older build is not read)")
        if len(frame) < _HEADER.size:
            raise self._corrupt("its header is cut short")
        _, version, size = _HEADER.unpack(frame)
        if version != JOURNAL_FORMAT:
            raise self._corrupt(
                f"journal format {version}, but this build reads only "
                f"format {JOURNAL_FORMAT}")
        rest = handle.read(size + _CRC.size)
        if len(rest) < size + _CRC.size:
            raise self._corrupt("its header is cut short")
        body = rest[:size]
        if zlib.crc32(frame + body) != _CRC.unpack_from(rest, size)[0]:
            raise self._corrupt("its header fails its checksum")
        try:
            header = json.loads(body)
            base = int(header["base"])
            cases = {str(case): int(count)
                     for case, count in header["cases"].items()}
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise self._corrupt(f"unreadable header: {exc!r}") from exc
        self._base = base
        self._packed_cases = cases
        self._header_len = _HEADER.size + size + _CRC.size

    @property
    def packed_offset(self) -> int:
        """Logical journal offset already packed into the ``.elog``."""
        self._load_state()
        return self._base

    def _physical_size(self) -> int:
        return self.journal_path.stat().st_size \
            if self.journal_path.exists() else 0

    # -- appending ---------------------------------------------------------

    def _open(self):
        """The append handle, opened (and the header written to a
        journal that has none) on first use."""
        if self._handle is None:
            self._load_state()
            self._handle = open(self.journal_path, "ab")
            if self._handle.tell() == 0:
                header = _encode_header(0, {})
                self._handle.write(header)
                self._header_len = len(header)
        return self._handle

    def append(self, batch: "list[tuple[TraceFileName, "
                            "list[ParsedRecord]]]") -> None:
        """Journal one poll's sealed rows as one block (buffered):
        ``batch`` is (name, sealed rows) per case that sealed any, in
        the order they were sealed."""
        handle = self._open()
        handle.write(_encode_block(
            self._base + handle.tell() - self._header_len, batch))

    def sync(self) -> int:
        """Flush + fsync; returns the durable *logical* byte offset.

        Called before every checkpoint save, so the offset the sidecar
        records is never ahead of what the disk holds — the header
        included, which the first sync writes if nothing was appended
        yet. Logical offsets count every byte ever appended after the
        header — compaction moves the physical file under them without
        renumbering.
        """
        handle = self._open()
        handle.flush()
        os.fsync(handle.fileno())
        self.telemetry.count("journal_fsyncs_total")
        physical = handle.tell()
        self.telemetry.gauge_set("emit_journal_bytes", physical)
        return self._base + physical - self._header_len

    def truncate_to(self, offset: int) -> None:
        """Check the journal up to a checkpointed offset and cut it
        back there (restore path).

        Records past the offset were sealed after the last checkpoint
        save — the restored engine's tails will re-read those trace
        bytes and re-journal them, so keeping the old blocks would
        duplicate them in the pack. Also disposes of a torn final block
        from a crash mid-append. Every block before the offset must
        pass its checks and the offset must end one, so a damaged
        durable prefix is refused here, before the watch resumes.
        """
        if self._handle is not None:
            raise ReproError(
                "emit journal already open for append; truncate on "
                "restore must happen before the first append")
        self._load_state()
        physical = self._physical_size()
        current = self._base + max(physical - self._header_len, 0)
        if offset > current:
            raise self._corrupt(
                f"the checkpoint claims {offset} durable bytes but the "
                f"journal holds {current} — it was truncated or replaced "
                f"behind the checkpoint")
        if offset < self._base:
            raise ReproError(
                f"checkpoint claims {offset} durable emit-journal "
                f"bytes but {self.journal_path} was already compacted "
                f"through {self._base} — the checkpoint is older than "
                f"the journal behind it; delete checkpoint, journal "
                f"and .elog and re-watch")
        if not physical:
            return
        cut = self._header_len + offset - self._base
        with open(self.journal_path, "r+b") as handle:
            handle.seek(self._header_len)
            self._blocks(handle.read(cut - self._header_len))
            if cut < physical:
                handle.truncate(cut)

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

    # -- reading -----------------------------------------------------------

    def _blocks(self, data: bytes) -> list[_Part]:
        """Check and decode the blocks of ``data``, the journal bytes
        from the first block on; raises the located corrupt error for
        a block that is cut short, fails its checksum, sits at another
        offset than it records, or codes past its own pools."""
        view = memoryview(data)
        parts: list[_Part] = []
        at = 0
        while at < len(view):
            where = self._base + at
            meta_at = at + _BLOCK.size
            if meta_at > len(view):
                raise self._corrupt(f"the block at offset {where} is cut "
                                    f"short")
            offset, size, rows = _BLOCK.unpack_from(view, at)
            end = meta_at + size + rows * _ROW_BYTES
            if end + _CRC.size > len(view):
                raise self._corrupt(f"the block at offset {where} is cut "
                                    f"short")
            if zlib.crc32(view[at:end]) != _CRC.unpack_from(view, end)[0]:
                raise self._corrupt(f"the block at offset {where} fails "
                                    f"its checksum")
            if offset != where:
                raise self._corrupt(
                    f"the block at offset {where} records offset "
                    f"{offset} — a block copied out of place")
            try:
                meta = json.loads(bytes(view[meta_at:meta_at + size]))
                cases, calls, paths = \
                    meta["cases"], meta["calls"], meta["paths"]
                keys = [(cid, host, rid) for cid, host, rid, _ in cases]
                counts = [n for _, _, _, n in cases]
                consistent = sum(counts) == rows \
                    and min(counts, default=0) >= 0
            except (ValueError, KeyError, TypeError) as exc:
                raise self._corrupt(
                    f"the block at offset {where} has an unreadable "
                    f"header: {exc!r}") from exc
            columns = {}
            column_at = meta_at + size
            for name, dtype in _COLUMNS:
                columns[name] = np.frombuffer(view, dtype=dtype,
                                              count=rows, offset=column_at)
                column_at += columns[name].nbytes
            call, fp = columns["call"], columns["fp"]
            if not consistent or rows and (
                    call.min() < 0 or call.max() >= len(calls)
                    or fp.min() < -1 or fp.max() >= len(paths)):
                raise self._corrupt(
                    f"the block at offset {where} disagrees with its own "
                    f"header")
            parts.append((keys, counts, calls, paths, columns))
            at = end + _CRC.size
        return parts

    def _packed_part(self) -> _Part | None:
        """The compacted prefix, out of the destination ``.elog``.

        Each case is cut back to the header's record count: an
        ``.elog`` written by a compaction that died before the journal
        rewrite legitimately holds more, and those extra records are
        still in the journal — cutting is what keeps the two sources
        a partition instead of an overlap.
        """
        from repro.elstore.reader import EventLogStore

        self._load_state()
        if self._base == 0:
            return None
        if not self.elog_path.exists():
            raise ReproError(
                f"{self.journal_path} was compacted through "
                f"{self._base} but the packed {self.elog_path} is "
                f"missing — the packed prefix is unrecoverable; "
                f"delete the journal (and any checkpoint) and "
                f"re-watch")
        store = EventLogStore(self.elog_path)
        keys, counts, pieces = [], [], []
        for case_id, count in self._packed_cases.items():
            if count <= 0:
                continue
            meta = store.case_meta(case_id)
            if meta.n_events < count:
                raise self._corrupt(
                    f"its header packs {count} records of case "
                    f"{case_id!r} but {self.elog_path} holds "
                    f"{meta.n_events}")
            data = store.read_case(case_id)
            keys.append((meta.cid, meta.host, int(meta.rid)))
            counts.append(count)
            pieces.append({name: values[:count]
                           for name, values in data.items()})
        columns = {name: np.concatenate([p[name] for p in pieces]
                                        or [np.empty(0, dtype)])
                   for name, dtype in _COLUMNS}
        return (keys, counts, store.pools["calls"], store.pools["paths"],
                columns)

    def _gather(self, end: int | None = None) -> _Gather:
        """Packed prefix first, then the journal's blocks up to
        physical byte ``end`` (default: all) — together every sealed
        record of every life, exactly once."""
        gather = _Gather()
        packed = self._packed_part()
        if packed is not None:
            gather.add(packed)
        if self._handle is not None:
            self._handle.flush()
        if self.journal_path.exists():
            with open(self.journal_path, "rb") as handle:
                handle.seek(self._header_len)
                data = handle.read() if end is None \
                    else handle.read(end - self._header_len)
            for part in self._blocks(data):
                gather.add(part)
        return gather

    # -- packing -----------------------------------------------------------

    def _write_elog(self, engine: "LiveIngest", gather: _Gather, *,
                    dest: Path) -> dict[str, int]:
        """Stream ``gather`` into ``dest`` durably (tmp → fsync →
        rename → dir fsync); returns per-case record counts written.

        Cases follow the engine's sorted-path order — batch ``convert``
        order — with any gathered case the engine no longer names
        (defensive: should not happen) appended after, so no sealed
        record is ever dropped by a rewrite.
        """
        from repro.elstore.writer import EventLogWriter

        order = [engine._tails[path].name for path in sorted(engine._tails)]
        tmp = dest.with_name(dest.name + ".tmp")
        with EventLogWriter(tmp) as writer:
            counts = gather.write(writer, order)
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
        prefix plus the journal's blocks, so the pack covers every life
        of the watch, not just the current process. The write is
        atomic (tmp + rename): a kill mid-pack leaves the previous
        ``.elog`` — which a compacted journal depends on — untouched.
        """
        self._write_elog(engine, self._gather(), dest=self.elog_path)
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
        counts = self._write_elog(engine, self._gather(physical_cut),
                                  dest=self.elog_path)
        with open(self.journal_path, "rb") as handle:
            handle.seek(physical_cut)
            remainder = handle.read()
        header = _encode_header(up_to, counts)
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
