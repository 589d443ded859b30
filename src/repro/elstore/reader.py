"""Reading ``.elog`` event-log containers.

:class:`EventLogStore` is the lazy handle — open is O(header + TOC),
and checks that every chunk reference lies inside the file;
individual cases (groups) are read on demand with per-chunk CRC
verification, mirroring how the paper's implementation retrieves
per-case tables from its HDF5 file. :func:`read_event_log` materializes
the whole container into an in-memory
:class:`~repro.core.eventlog.EventLog` in one pass: one read of the
file, every chunk CRC-checked on a slice of it, one join per column.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from repro._util.errors import StoreFormatError
from repro.core.eventlog import EventLog
from repro.core.frame import MISSING, EventFrame, FramePools
from repro.elstore.schema import (
    CASE_COLUMNS,
    FORMAT_VERSION,
    HEADER_FMT,
    HEADER_SIZE,
    MAGIC,
    CaseMeta,
    ChunkRef,
    ColumnMeta,
    POOL_NAMES,
)


class EventLogStore:
    """Open ``.elog`` container with lazy per-case access.

    This is the ``EventLogH5`` of the paper's Fig. 6 listing (aliased
    as such in :mod:`repro.st_inspector`): a pointer to the stored
    event-log from which cases can be pulled.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        with open(self.path, "rb") as handle:
            header = handle.read(HEADER_SIZE)
            if len(header) < HEADER_SIZE:
                raise StoreFormatError(f"{self.path}: truncated header")
            magic, version, _reserved, toc_offset, toc_len = (
                struct.unpack(HEADER_FMT, header))
            if magic != MAGIC:
                raise StoreFormatError(
                    f"{self.path}: bad magic {magic!r} (not an .elog file)")
            if version != FORMAT_VERSION:
                raise StoreFormatError(
                    f"{self.path}: unsupported version {version} "
                    f"(expected {FORMAT_VERSION})")
            if toc_offset == 0:
                raise StoreFormatError(
                    f"{self.path}: missing TOC (writer not closed?)")
            handle.seek(toc_offset)
            raw = handle.read(toc_len)
            if len(raw) < toc_len:
                raise StoreFormatError(f"{self.path}: truncated TOC")
            size = os.fstat(handle.fileno()).st_size
        try:
            toc = json.loads(raw.decode("utf-8"))
            self.pools: dict[str, list[str]] = {
                name: list(toc["pools"].get(name, []))
                for name in POOL_NAMES}
            self._cases: dict[str, CaseMeta] = {}
            for case_json in toc["cases"]:
                case = CaseMeta.from_json(case_json)
                self._cases[case.case_id] = case
        except KeyError as exc:
            raise StoreFormatError(
                f"{self.path}: corrupt TOC: missing key {exc}") from exc
        except (TypeError, ValueError, AttributeError, IndexError) as exc:
            raise StoreFormatError(
                f"{self.path}: corrupt TOC: {exc}") from exc
        for case in self._cases.values():
            missing = set(CASE_COLUMNS) - set(case.columns)
            if missing:
                raise StoreFormatError(
                    f"{self.path}: corrupt TOC: case {case.case_id!r} "
                    f"lacks columns {sorted(missing)}")
            for column in case.columns.values():
                try:
                    np.dtype(column.dtype)
                except TypeError as exc:
                    raise StoreFormatError(
                        f"{self.path}: corrupt TOC: column "
                        f"{column.name!r}: {exc}") from exc
                for chunk in column.chunks:
                    if not (0 <= chunk.offset
                            and 0 <= chunk.nbytes <= size - chunk.offset):
                        raise StoreFormatError(
                            f"{self.path}: chunk of column "
                            f"{column.name!r} in case {case.case_id!r} "
                            f"at offset {chunk.offset} ({chunk.nbytes} "
                            f"bytes) lies outside the file ({size} "
                            f"bytes)")

    # -- metadata ----------------------------------------------------------

    def case_ids(self) -> list[str]:
        """Sorted case identifiers present in the container."""
        return sorted(self._cases)

    def stored_case_ids(self) -> list[str]:
        """Case identifiers in on-file (append) order.

        Streaming consumers that want to reproduce the container —
        e.g. an ``elog`` → ``elog`` repack — must iterate this order,
        not the sorted one, to keep bytes identical.
        """
        return list(self._cases)

    def case_meta(self, case_id: str) -> CaseMeta:
        """Metadata of one case (cid/host/rid/n_events/columns)."""
        try:
            return self._cases[case_id]
        except KeyError:
            raise StoreFormatError(
                f"{self.path}: no case {case_id!r}") from None

    @property
    def n_cases(self) -> int:
        return len(self._cases)

    @property
    def n_events(self) -> int:
        return sum(c.n_events for c in self._cases.values())

    # -- data ------------------------------------------------------------------

    def _checked(self, column: ColumnMeta, chunk: ChunkRef,
                 raw: bytes | memoryview) -> bytes | memoryview:
        """A chunk's bytes, once their length and CRC match its TOC
        reference."""
        if len(raw) != chunk.nbytes:
            raise StoreFormatError(
                f"{self.path}: truncated chunk in column {column.name!r}")
        if zlib.crc32(raw) != chunk.crc32:
            raise StoreFormatError(
                f"{self.path}: CRC mismatch in column {column.name!r} "
                f"at offset {chunk.offset}")
        return raw

    def _count_checked(self, case: CaseMeta, name: str, nbytes: int,
                       itemsize: int) -> None:
        if nbytes != case.n_events * itemsize:
            n_values = (nbytes // itemsize if nbytes % itemsize == 0
                        else nbytes / itemsize)
            raise StoreFormatError(
                f"{self.path}: column {name!r} of case {case.case_id!r} "
                f"has {n_values} values, expected {case.n_events}")

    def _read_column(self, handle, column: ColumnMeta) -> np.ndarray:
        pieces: list[bytes] = []
        for chunk in column.chunks:
            handle.seek(chunk.offset)
            pieces.append(self._checked(column, chunk,
                                        handle.read(chunk.nbytes)))
        return np.frombuffer(b"".join(pieces), dtype=column.dtype).copy()

    def read_case(self, case_id: str,
                  columns: list[str] | None = None,
                  ) -> dict[str, np.ndarray]:
        """Read one case's columns (CRC-verified).

        ``columns`` projects to a subset — a columnar-store payoff:
        reading only ``start``/``dur`` for a timeline touches a third
        of the bytes of a full-row read.
        """
        case = self.case_meta(case_id)
        if columns is None:
            wanted = case.columns
        else:
            unknown = set(columns) - set(case.columns)
            if unknown:
                raise StoreFormatError(
                    f"{self.path}: unknown columns {sorted(unknown)}")
            wanted = {name: case.columns[name] for name in columns}
        with open(self.path, "rb") as handle:
            result = {name: self._read_column(handle, meta)
                      for name, meta in wanted.items()}
        for name, values in result.items():
            self._count_checked(case, name, values.nbytes, values.itemsize)
        return result

    def to_event_log(self, *, cids: set[str] | None = None) -> EventLog:
        """Materialize (a cid-subset of) the container as an EventLog.

        One pass: the file is read once, each chunk CRC-checked on a
        slice of that buffer, and each column assembled with one join
        and one ``np.frombuffer`` in sorted case order; the per-case
        constants (case, cid, host, rid) are ``np.repeat``-ed. The
        frame arrives sorted within cases, so ``EventLog`` keeps it
        as is.
        """
        cases = [self._cases[case_id] for case_id in self.case_ids()
                 if cids is None or self._cases[case_id].cid in cids]
        if not cases:
            raise StoreFormatError(
                f"{self.path}: no cases"
                + (f" for cids {sorted(cids)}" if cids else ""))
        pools = FramePools()
        # Pre-intern in stored order so codes match the file's pools and
        # the store's call/fp codes can be used verbatim.
        for call in self.pools["calls"]:
            pools.calls.intern(call)
        for fp in self.pools["paths"]:
            pools.paths.intern(fp)
        with open(self.path, "rb") as handle:
            data = memoryview(handle.read())
        columns = {
            name: self._joined_column(data, cases, name).astype(
                np.int32 if name in ("call", "fp") else np.int64,
                copy=False)
            for name in CASE_COLUMNS}
        constants = np.array(
            [(pools.cases.intern(case.case_id), pools.cids.intern(case.cid),
              pools.hosts.intern(case.host), case.rid) for case in cases],
            dtype=np.int64).reshape(-1, 4)
        counts = [case.n_events for case in cases]
        for i, name in enumerate(("case", "cid", "host", "rid")):
            columns[name] = np.repeat(constants[:, i], counts).astype(
                np.int64 if name == "rid" else np.int32)
        columns["activity"] = np.full(sum(counts), MISSING, dtype=np.int32)
        return EventLog(EventFrame(pools, columns))

    def _joined_column(self, data: memoryview, cases: list[CaseMeta],
                       name: str) -> np.ndarray:
        """Column ``name`` of ``cases``, end to end, from the file
        bytes ``data``, in the dtype the TOC declares for it."""
        declared = cases[0].columns[name].dtype
        dtype = np.dtype(declared)
        pieces: list[memoryview] = []
        for case in cases:
            column = case.columns[name]
            if column.dtype != declared and np.dtype(column.dtype) != dtype:
                raise StoreFormatError(
                    f"{self.path}: column {name!r} of case "
                    f"{case.case_id!r} is {column.dtype}, not {declared} "
                    f"like the cases before it")
            self._count_checked(case, name, column.nbytes, dtype.itemsize)
            pieces += [self._checked(column, chunk, data[
                chunk.offset:chunk.offset + chunk.nbytes])
                for chunk in column.chunks]
        return np.frombuffer(b"".join(pieces), dtype=dtype)


def read_event_log(path: str | os.PathLike[str], *,
                   cids: set[str] | None = None) -> EventLog:
    """One-call load: open the container and materialize an EventLog."""
    return EventLogStore(path).to_event_log(cids=cids)
