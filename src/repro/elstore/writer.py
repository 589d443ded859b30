"""Writing ``.elog`` event-log containers.

:class:`EventLogWriter` streams cases into a single file: column data
is appended in bounded-size chunks as cases are added (O(chunk_size)
memory regardless of trace length), and the binary table of contents
(:func:`~repro.elstore.schema.encode_toc`) is written at close, after
which the header is patched with its location.

The convenience :func:`write_event_log` serializes an in-memory
:class:`~repro.core.eventlog.EventLog` in one call.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro._util.errors import StoreFormatError
from repro.elstore.schema import (
    CASE_COLUMNS,
    CASE_FIELDS,
    FORMAT_VERSION,
    HEADER_FMT,
    HEADER_SIZE,
    MAGIC,
    POOL_NAMES,
    Toc,
    TocColumn,
    encode_toc,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.eventlog import EventLog
    from repro.strace.naming import TraceFileName
    from repro.strace.parser import ParsedRecord

#: Default chunk size in *values* per chunk (not bytes).
DEFAULT_CHUNK_VALUES = 65536


class EventLogWriter:
    """Streaming writer; use as a context manager.

    >>> with EventLogWriter(tmp / "log.elog") as writer:   # doctest: +SKIP
    ...     writer.add_case_records(name, records)
    """

    def __init__(self, path: str | os.PathLike[str], *,
                 chunk_values: int = DEFAULT_CHUNK_VALUES) -> None:
        if chunk_values < 1:
            raise StoreFormatError("chunk_values must be >= 1")
        self.path = Path(path)
        self.chunk_values = chunk_values
        self._handle = open(self.path, "wb")
        self._handle.write(struct.pack(
            HEADER_FMT, MAGIC, FORMAT_VERSION, 0, 0, 0))
        #: Where the next chunk lands: column data is only appended.
        self._position = HEADER_SIZE
        #: The TOC tables, grown a case at a time in append order: one
        #: CASE_FIELDS row per case, and per column the flat
        #: ``offset, nbytes, crc32`` triples of its chunks and each
        #: case's first-chunk index (one more entry than cases).
        self._rows: list[tuple[int, ...]] = []
        self._refs: dict[str, list[int]] = {n: [] for n in CASE_COLUMNS}
        self._starts: dict[str, list[int]] = {n: [0] for n in CASE_COLUMNS}
        # File-global string pools, built as cases stream in.
        self._pools: dict[str, list[str]] = {n: [] for n in POOL_NAMES}
        self._pool_index: dict[str, dict[str, int]] = {
            n: {} for n in POOL_NAMES}
        self._closed = False

    # -- pool helpers -----------------------------------------------------

    def _intern(self, pool: str, value: str) -> int:
        return self._intern_all(pool, (value,))[0]

    def _intern_all(self, pool: str, values: list[str]) -> list[int]:
        """The global codes of ``values``, interning unseen ones in
        order."""
        index = self._pool_index[pool]
        strings = self._pools[pool]
        codes = []
        for value in values:
            code = index.get(value)
            if code is None:
                code = index[value] = len(strings)
                strings.append(value)
            codes.append(code)
        return codes

    # -- public API ----------------------------------------------------------

    def add_case_arrays(
        self,
        *,
        case_id: str,
        cid: str,
        host: str,
        rid: int,
        columns: dict[str, np.ndarray],
        call_strings: list[str],
        path_strings: list[str],
    ) -> None:
        """Add one case from raw column arrays.

        ``columns`` must contain every name in :data:`CASE_COLUMNS`;
        the ``call``/``fp`` columns hold codes into ``call_strings`` /
        ``path_strings`` (local to this call) which are re-encoded
        against the file-global pools. ``fp`` code -1 means "no path".
        The case's chunks go to the file in one write.
        """
        if self._closed:
            raise StoreFormatError("writer is closed")
        if case_id in self._pool_index["cases"]:
            raise StoreFormatError(f"duplicate case {case_id!r}")
        if not -(1 << 63) <= rid < 1 << 63:
            raise StoreFormatError(
                f"rid {rid} of case {case_id!r} does not fit int64")
        missing = set(CASE_COLUMNS) - set(columns)
        if missing:
            raise StoreFormatError(f"missing columns: {sorted(missing)}")
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise StoreFormatError(f"ragged case columns: {lengths}")
        n_events = lengths.pop() if lengths else 0

        # Both pools take their strings before either range check.
        call_lookup = self._intern_all("calls", call_strings)
        path_lookup = self._intern_all("paths", path_strings)
        encoded = dict(columns)
        encoded["call"] = _recode(columns["call"], call_lookup,
                                  "call code out of range of call_strings")
        encoded["fp"] = _recode(columns["fp"], path_lookup,
                                "fp code out of range of path_strings")

        # Lay every chunk down from the running position, then write
        # the case in one call; the position moves once it is written.
        data = []
        position = self._position
        chunks = {}
        for name, dtype in CASE_COLUMNS.items():
            array = np.ascontiguousarray(encoded[name], dtype=dtype)
            raw = memoryview(array).cast("B")
            refs = chunks[name] = []
            step = self.chunk_values * array.itemsize
            for start in range(0, len(raw) or 1, step):
                chunk = raw[start:start + step]
                refs += (position, len(chunk), zlib.crc32(chunk))
                position += len(chunk)
            data.append(raw)
        self._handle.write(b"".join(data))
        self._position = position
        self._append_case(case_id, cid, host, rid, n_events, chunks)

    def _append_case(self, case_id: str, cid: str, host: str, rid: int,
                     n_events: int, chunks: dict[str, list[int]]) -> None:
        """Enter a written case in the TOC tables; ``chunks`` holds
        each column's refs as flat ``offset, nbytes, crc32`` triples."""
        self._rows.append((self._intern("cases", case_id),
                           self._intern("cids", cid),
                           self._intern("hosts", host), rid, n_events))
        for name in CASE_COLUMNS:
            refs = self._refs[name]
            refs += chunks[name]
            self._starts[name].append(len(refs) // 3)

    def add_case_records(self, name: "TraceFileName",
                         records: "list[ParsedRecord]") -> None:
        """Add one case from parsed strace records (reader output).

        Columnarization is shared with the parallel-ingest wire format
        (:func:`repro.ingest.parallel.rows_to_columns`), so records
        stream into the store and across process pools identically.
        """
        from repro.ingest.parallel import rows_to_columns

        case = rows_to_columns(name, records)
        self.add_case_arrays(
            case_id=name.case_id, cid=name.cid, host=name.host,
            rid=name.rid, columns=case.columns(),
            call_strings=case.calls, path_strings=case.paths)

    def close(self) -> None:
        """Write the TOC, patch the header, close the file."""
        if self._closed:
            return
        raw = encode_toc(Toc(
            pools=self._pools,
            cases=np.array(self._rows, dtype=np.int64).reshape(
                len(self._rows), len(CASE_FIELDS)),
            columns={name: TocColumn(
                np.array(self._starts[name], dtype=np.int64),
                np.array(self._refs[name], dtype=np.int64).reshape(-1, 3))
                for name in CASE_COLUMNS}))
        toc_offset = self._handle.tell()
        self._handle.write(raw)
        self._handle.seek(0)
        self._handle.write(struct.pack(
            HEADER_FMT, MAGIC, FORMAT_VERSION, 0, toc_offset, len(raw)))
        self._handle.close()
        self._closed = True

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # leave no half-written file behind on error
            self._handle.close()
            self._closed = True
            self.path.unlink(missing_ok=True)


def _recode(codes: np.ndarray, lookup: list[int],
            out_of_range: str) -> np.ndarray:
    """Local string codes as int32 global codes, by one table lookup:
    code ``i`` becomes ``lookup[i]`` and every negative code -1 ("no
    string"). Raises :class:`StoreFormatError` (``out_of_range``) for
    a code past the end of ``lookup``."""
    # Cast as ``astype`` would, floor at -1, shift onto the table.
    shifted = np.maximum(codes, -1, dtype=np.int64, casting="unsafe")
    shifted += 1
    if len(shifted) and shifted.max() > len(lookup):
        raise StoreFormatError(out_of_range)
    return np.array([-1] + lookup, dtype=np.int32)[shifted]


def write_event_log(event_log: "EventLog",
                    path: str | os.PathLike[str], *,
                    chunk_values: int = DEFAULT_CHUNK_VALUES) -> Path:
    """Serialize an in-memory event-log to an ``.elog`` file.

    Cases are written in sorted case-id order; within each case, events
    keep their start-time order (the EventLog invariant).
    """
    frame = event_log.frame
    pools = frame.pools
    call_pool = list(pools.calls)
    path_pool = list(pools.paths)
    with EventLogWriter(path, chunk_values=chunk_values) as writer:
        for case_id, case_frame in event_log.iter_cases():
            cid_code = int(case_frame.column("cid")[0])
            host_code = int(case_frame.column("host")[0])
            writer.add_case_arrays(
                case_id=case_id,
                cid=pools.cids.decode(cid_code),
                host=pools.hosts.decode(host_code),
                rid=int(case_frame.column("rid")[0]),
                columns={
                    "pid": case_frame.column("pid"),
                    "call": case_frame.column("call"),
                    "start": case_frame.column("start"),
                    "dur": case_frame.column("dur"),
                    "fp": case_frame.column("fp"),
                    "size": case_frame.column("size"),
                },
                call_strings=call_pool,
                path_strings=path_pool,
            )
    return Path(path)
