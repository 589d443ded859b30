"""Reading ``.elog`` event-log containers.

:class:`EventLogStore` is the lazy handle — open is O(header + TOC).
The binary TOC is CRC-checked and decoded into its flat tables
(:func:`~repro.elstore.schema.decode_toc`): per case its id, cid, host,
rid and event count, and per column of :data:`CASE_COLUMNS` one int64
``(offset, nbytes, crc32)`` array of chunk references with per-case
starts. Open checks them with one vectorized expression per column,
including that every chunk reference lies inside the file.
Individual cases (groups) are read on demand with per-chunk CRC
verification, mirroring how the paper's implementation retrieves
per-case tables from its HDF5 file. :func:`read_event_log` materializes
the whole container into an in-memory
:class:`~repro.core.eventlog.EventLog` in one pass: one read of the
file, every chunk CRC-checked on a slice of it, one join per column.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Callable

import numpy as np

from repro._util.errors import StoreFormatError
from repro._util.strings import StringPool
from repro.core.eventlog import EventLog
from repro.core.frame import MISSING, EventFrame, FramePools
from repro.elstore.schema import (
    CASE_COLUMNS,
    CASE_FIELDS,
    FORMAT_VERSION,
    HEADER_FMT,
    HEADER_SIZE,
    MAGIC,
    CaseMeta,
    ChunkRef,
    ColumnMeta,
    TocColumn,
    decode_toc,
)

#: Code columns: the pool each one indexes and its lowest code (an fp
#: of -1 is MISSING, no path).
_CODE_POOLS = {"call": ("calls", 0), "fp": ("paths", MISSING)}


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
            magic, version, reserved, toc_offset, toc_len = (
                struct.unpack(HEADER_FMT, header))
            if magic != MAGIC:
                raise StoreFormatError(
                    f"{self.path}: bad magic {magic!r} (not an .elog file)")
            if version != FORMAT_VERSION:
                hint = (" — a JSON-TOC store: re-run convert from the "
                        "traces" if version == 1 else "")
                raise StoreFormatError(
                    f"{self.path}: unsupported version {version} "
                    f"(expected {FORMAT_VERSION}){hint}")
            if reserved != 0:
                raise StoreFormatError(
                    f"{self.path}: reserved header field is {reserved}, "
                    f"not 0")
            if toc_offset == 0:
                raise StoreFormatError(
                    f"{self.path}: missing TOC (writer not closed?)")
            # Bounded before the read: a damaged length must not size
            # an allocation, nor a damaged offset a seek. The TOC ends
            # the file, so a changed offset or length cannot pass.
            size = os.fstat(handle.fileno()).st_size
            if toc_offset + toc_len > size:
                raise StoreFormatError(f"{self.path}: truncated TOC")
            if toc_offset + toc_len < size:
                raise StoreFormatError(
                    f"{self.path}: {size - toc_offset - toc_len} bytes "
                    f"after the TOC")
            handle.seek(toc_offset)
            raw = handle.read(toc_len)
        try:
            toc = decode_toc(raw)
        except ValueError as exc:
            raise StoreFormatError(
                f"{self.path}: corrupt TOC: {exc}") from exc
        self.pools: dict[str, list[str]] = toc.pools
        cases = toc.cases
        # The first three case fields are codes into these pools.
        code_pools = ("cases", "cids", "hosts")
        names = []
        for field, pool, codes in zip(CASE_FIELDS, code_pools, cases.T):
            strings = self.pools[pool]
            at = _first_outside(codes, 0, len(strings))
            if at is not None:
                raise StoreFormatError(
                    f"{self.path}: corrupt TOC: case row {at} holds "
                    f"{field} code {codes[at]}, outside "
                    f"[0, {len(strings)}) of pool {pool!r}")
            names.append([strings[code] for code in codes.tolist()])
        self._ids, self._cids, self._hosts = names
        self._rids = cases[:, CASE_FIELDS.index("rid")]
        self._n_events = cases[:, CASE_FIELDS.index("n_events")]
        self._check_distinct()
        self._columns = toc.columns
        for name, column in self._columns.items():
            self._check_column(name, column, size)
        self._index = {case_id: position
                       for position, case_id in enumerate(self._ids)}

    def _check_column(self, name: str, column: TocColumn,
                      size: int) -> None:
        """Raise unless column ``name``'s chunk starts run from 0 to its
        ref count without decreasing, and its chunks lie inside the
        ``size``-byte file."""
        starts, refs = column
        if starts[0] != 0 or starts[-1] != len(refs) \
                or (np.diff(starts) < 0).any():
            raise StoreFormatError(
                f"{self.path}: corrupt TOC: chunk starts of column "
                f"{name!r} do not run from 0 to its {len(refs)} refs "
                f"without decreasing")
        offsets, nbytes = refs[:, 0], refs[:, 1]
        outside = (offsets < 0) | (nbytes < 0) | (nbytes > size - offsets)
        if outside.any():
            row = int(outside.argmax())
            case = int(np.searchsorted(starts, row, side="right")) - 1
            raise StoreFormatError(
                f"{self.path}: chunk of column {name!r} in case "
                f"{self._ids[case]!r} at offset {offsets[row]} "
                f"({nbytes[row]} bytes) lies outside the file ({size} "
                f"bytes)")

    def _check_distinct(self) -> None:
        """Each case is named once and each pool lists distinct
        strings: a repeat would shadow a case, or shift every later
        code of its pool."""
        repeat = _first_repeat(self._ids)
        if repeat is not None:
            raise StoreFormatError(
                f"{self.path}: corrupt TOC: case {repeat!r} appears more "
                f"than once")
        for name, strings in self.pools.items():
            repeat = _first_repeat(strings)
            if repeat is not None:
                raise StoreFormatError(
                    f"{self.path}: corrupt TOC: pool {name!r} repeats "
                    f"{repeat!r}")

    # -- metadata ----------------------------------------------------------

    def case_ids(self) -> list[str]:
        """Sorted case identifiers present in the container."""
        return sorted(self._ids)

    def stored_case_ids(self) -> list[str]:
        """Case identifiers in on-file (append) order.

        Streaming consumers that want to reproduce the container —
        e.g. an ``elog`` → ``elog`` repack — must iterate this order,
        not the sorted one, to keep bytes identical.
        """
        return list(self._ids)

    def _position(self, case_id: str) -> int:
        try:
            return self._index[case_id]
        except KeyError:
            raise StoreFormatError(
                f"{self.path}: no case {case_id!r}") from None

    def case_name(self, case_id: str) -> tuple[str, str, int]:
        """One case's ``(cid, host, rid)``, read from the flat tables —
        without the per-chunk view :meth:`case_meta` builds."""
        i = self._position(case_id)
        return self._cids[i], self._hosts[i], int(self._rids[i])

    def case_meta(self, case_id: str) -> CaseMeta:
        """Metadata of one case (cid/host/rid/n_events/columns), built
        from the flat tables on each call."""
        i = self._position(case_id)
        columns = {}
        for name, column in self._columns.items():
            rows = column.refs[column.starts[i]:column.starts[i + 1]]
            columns[name] = ColumnMeta(
                name=name, dtype=CASE_COLUMNS[name],
                chunks=[ChunkRef(*row) for row in rows.tolist()])
        return CaseMeta(
            case_id=case_id, cid=self._cids[i], host=self._hosts[i],
            rid=int(self._rids[i]), n_events=int(self._n_events[i]),
            columns=columns)

    @property
    def n_cases(self) -> int:
        return len(self._ids)

    @property
    def n_events(self) -> int:
        return int(self._n_events.sum())

    # -- data ------------------------------------------------------------------

    def _chunk_checked(self, name: str, offset: int, nbytes: int,
                       crc32: int, raw: bytes | memoryview) -> None:
        """Raise unless a chunk's bytes match its TOC length and CRC."""
        if len(raw) != nbytes:
            raise StoreFormatError(
                f"{self.path}: truncated chunk in column {name!r}")
        if zlib.crc32(raw) != crc32:
            raise StoreFormatError(
                f"{self.path}: CRC mismatch in column {name!r} at offset "
                f"{offset}")

    def _count_checked(self, name: str, case_id: str, nbytes: int,
                       itemsize: int, n_events: int) -> None:
        if nbytes != n_events * itemsize:
            n_values = (nbytes // itemsize if nbytes % itemsize == 0
                        else nbytes / itemsize)
            raise StoreFormatError(
                f"{self.path}: column {name!r} of case {case_id!r} has "
                f"{n_values} values, expected {n_events}")

    def _codes_checked(self, name: str, values: np.ndarray,
                       case_at: Callable[[int], str]) -> None:
        """One min/max: every call or fp code lies in its pool.
        ``case_at(i)`` names the case holding value ``i``."""
        if name not in _CODE_POOLS:
            return
        pool, low = _CODE_POOLS[name]
        high = len(self.pools[pool])
        at = _first_outside(values, low, high)
        if at is not None:
            raise StoreFormatError(
                f"{self.path}: column {name!r} of case {case_at(at)!r} "
                f"holds code {values[at]}, outside [{low}, {high}) of "
                f"pool {pool!r}")

    def read_case(self, case_id: str,
                  columns: list[str] | None = None,
                  ) -> dict[str, np.ndarray]:
        """Read one case's columns (CRC-verified).

        ``columns`` projects to a subset — a columnar-store payoff:
        reading only ``start``/``dur`` for a timeline touches a third
        of the bytes of a full-row read.
        """
        i = self._position(case_id)
        if columns is None:
            columns = list(CASE_COLUMNS)
        else:
            unknown = set(columns) - set(CASE_COLUMNS)
            if unknown:
                raise StoreFormatError(
                    f"{self.path}: unknown columns {sorted(unknown)}")
        n_events = int(self._n_events[i])
        result = {}
        with open(self.path, "rb") as handle:
            for name in columns:
                column = self._columns[name]
                pieces = []
                for offset, nbytes, crc32 in column.refs[
                        column.starts[i]:column.starts[i + 1]].tolist():
                    handle.seek(offset)
                    pieces.append(handle.read(nbytes))
                    self._chunk_checked(name, offset, nbytes, crc32,
                                        pieces[-1])
                raw = b"".join(pieces)
                dtype = np.dtype(CASE_COLUMNS[name])
                self._count_checked(name, case_id, len(raw), dtype.itemsize,
                                    n_events)
                values = np.frombuffer(raw, dtype=dtype)
                self._codes_checked(name, values, lambda at: case_id)
                result[name] = values.copy()
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
        order = sorted(range(len(self._ids)), key=self._ids.__getitem__)
        if cids is not None:
            order = [i for i in order if self._cids[i] in cids]
        if not order:
            raise StoreFormatError(
                f"{self.path}: no cases"
                + (f" for cids {sorted(cids)}" if cids else ""))
        positions = np.array(order)
        # Codes are the file's own: the frame's call/fp pools are the
        # store's, in stored order.
        pools = FramePools(calls=StringPool(self.pools["calls"]),
                           paths=StringPool(self.pools["paths"]))
        with open(self.path, "rb") as handle:
            data = memoryview(handle.read())
        columns = {
            name: self._joined_column(data, positions, name).astype(
                np.int32 if name in ("call", "fp") else np.int64,
                copy=False)
            for name in CASE_COLUMNS}
        counts = self._n_events[positions]
        for name, pool, values in (
                ("case", pools.cases, self._ids),
                ("cid", pools.cids, self._cids),
                ("host", pools.hosts, self._hosts)):
            columns[name] = np.repeat(
                pool.intern_all(values[i] for i in order), counts)
        columns["rid"] = np.repeat(self._rids[positions], counts)
        columns["activity"] = np.full(int(counts.sum()), MISSING,
                                      dtype=np.int32)
        return EventLog(EventFrame(pools, columns))

    def _joined_column(self, data: memoryview, positions: np.ndarray,
                       name: str) -> np.ndarray:
        """Column ``name`` of the cases at ``positions``, end to end, from
        the file bytes ``data``. :meth:`read_case`'s checks (value
        counts, chunk lengths and CRCs, codes) run once over all of
        them, each as one array expression."""
        column = self._columns[name]
        dtype = np.dtype(CASE_COLUMNS[name])
        # The chosen cases' chunk rows, in the order of ``positions``.
        begins = column.starts[positions]
        lengths = column.starts[positions + 1] - begins
        ends = np.cumsum(lengths)
        refs = column.refs[np.arange(int(ends[-1]))
                           + np.repeat(begins - (ends - lengths), lengths)]
        # Per-case byte counts as a cumulative-sum difference: a case
        # with no chunks sums to 0.
        summed = np.zeros(len(refs) + 1, dtype=np.int64)
        np.cumsum(refs[:, 1], out=summed[1:])
        nbytes = summed[ends] - summed[ends - lengths]
        expected = self._n_events[positions]
        # Divided, not multiplied: a huge n_events must not wrap.
        n_values, rest = np.divmod(nbytes, dtype.itemsize)
        wrong = (rest != 0) | (n_values != expected)
        if wrong.any():
            case = int(wrong.argmax())
            self._count_checked(name, self._ids[positions[case]],
                                int(nbytes[case]), dtype.itemsize,
                                int(expected[case]))
        spans = refs.tolist()
        pieces = [data[offset:offset + size] for offset, size, _ in spans]
        crcs = np.fromiter(map(zlib.crc32, pieces), dtype=np.int64,
                           count=len(pieces))
        sizes = np.fromiter(map(len, pieces), dtype=np.int64,
                            count=len(pieces))
        bad = (crcs != refs[:, 2]) | (sizes != refs[:, 1])
        if bad.any():
            chunk = int(bad.argmax())
            self._chunk_checked(name, *spans[chunk], pieces[chunk])
        values = np.frombuffer(b"".join(pieces), dtype=dtype)

        def case_at(at: int) -> str:
            case = np.searchsorted(np.cumsum(expected), at, side="right")
            return self._ids[positions[case]]

        self._codes_checked(name, values, case_at)
        return values


def _first_outside(values: np.ndarray, low: int, high: int) -> int | None:
    """The index of the first of ``values`` outside ``[low, high)``, if
    any: one min/max when all lie inside."""
    if len(values) and (values.min() < low or values.max() >= high):
        return int(np.flatnonzero((values < low) | (values >= high))[0])
    return None


def _first_repeat(strings: list[str]) -> str | None:
    """The first of ``strings`` that an earlier one equals, if any."""
    seen: set[str] = set()
    for string in strings:
        if string in seen:
            return string
        seen.add(string)
    return None


def read_event_log(path: str | os.PathLike[str], *,
                   cids: set[str] | None = None) -> EventLog:
    """One-call load: open the container and materialize an EventLog."""
    return EventLogStore(path).to_event_log(cids=cids)
