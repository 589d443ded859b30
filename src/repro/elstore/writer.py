"""Writing ``.elog`` event-log containers.

:class:`EventLogWriter` streams cases into a single file: column data
is appended in bounded-size chunks as cases are added (O(chunk_size)
memory regardless of trace length), and the JSON table of contents is
written at close, after which the header is patched with its location.

The convenience :func:`write_event_log` serializes an in-memory
:class:`~repro.core.eventlog.EventLog` in one call.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro._util.errors import StoreFormatError
from repro.elstore.schema import (
    CASE_COLUMNS,
    FORMAT_VERSION,
    HEADER_FMT,
    HEADER_SIZE,
    MAGIC,
    POOL_NAMES,
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
        #: Each case's TOC entry, JSON-ready, in append order.
        self._toc_cases: list[dict] = []
        self._case_ids: set[str] = set()
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
        if case_id in self._case_ids:
            raise StoreFormatError(f"duplicate case {case_id!r}")
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

        self._intern("cases", case_id)
        self._intern("cids", cid)
        self._intern("hosts", host)
        # Lay every chunk down from the running position, then write
        # the case in one call; the position moves once it is written.
        # The TOC entry is the dict ``CaseMeta.to_json`` would give.
        data = []
        position = self._position
        toc_columns = {}
        for name, dtype in CASE_COLUMNS.items():
            array = np.ascontiguousarray(encoded[name], dtype=dtype)
            raw = memoryview(array).cast("B")
            chunks = []
            step = self.chunk_values * array.itemsize
            for start in range(0, len(raw) or 1, step):
                chunk = raw[start:start + step]
                chunks.append([position, len(chunk), zlib.crc32(chunk)])
                position += len(chunk)
            toc_columns[name] = {"name": name, "dtype": dtype,
                                 "chunks": chunks}
            data.append(raw)
        self._handle.write(b"".join(data))
        self._position = position
        self._toc_cases.append({
            "case_id": case_id, "cid": cid, "host": host, "rid": rid,
            "n_events": n_events, "columns": toc_columns})
        self._case_ids.add(case_id)

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
        toc = {
            "version": FORMAT_VERSION,
            "pools": self._pools,
            "cases": self._toc_cases,
        }
        raw = json.dumps(toc, separators=(",", ":")).encode("utf-8")
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
