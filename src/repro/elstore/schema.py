"""On-disk schema of the ``.elog`` event-log container.

File layout (little-endian throughout)::

    +--------------------------------------------------+
    | header: MAGIC (8) | version u16 | reserved u16   |
    |         toc_offset u64 | toc_length u64          |
    +--------------------------------------------------+
    | chunk 0 bytes | chunk 1 bytes | ...              |  (column data)
    +--------------------------------------------------+
    | TOC (below), ending the file                     |
    +--------------------------------------------------+

The TOC is the flat tables the reader works on, as int64 arrays, then
the pool strings, then a CRC32 of every TOC byte before it::

    counts     int64[12]   strings per pool (POOL_NAMES order), cases,
                           chunk refs per column (CASE_COLUMNS order)
    ends       int64[S]    byte end of each pool string in ``text``,
                           the pools one after another
    cases      int64[C, 5] case, cid, host (codes into their pools),
                           rid, n_events
    per column of CASE_COLUMNS:
      starts   int64[C + 1]  case ``i`` owns refs ``starts[i]:starts[i+1]``
      refs     int64[R, 3]   (offset, nbytes, crc32) per chunk
    text       bytes         the pool strings, UTF-8, end to end
    crc32      u32           of every TOC byte before it

The strings are encoded with ``surrogatepass``, so any Python string
round-trips: NUL, non-BMP characters and lone surrogates included. The
column dtypes are fixed by the format version (:data:`CASE_COLUMNS`),
so the TOC does not repeat them per case.

Why binary: the reader needs exactly these tables, and decoding them
from JSON cost more than the rest of the open together (a JSON TOC is
about twice the size and is parsed into per-case objects first). The
CRC covers what the chunk CRCs do not: without it, a flipped TOC byte
could load a different log with no error (a changed host, cid, rid or
path code). :func:`decode_toc` checks the CRC before it decodes any
field. There is no reader for version 1 (a JSON TOC): re-run
``convert`` from the traces.

Why chunked: columns are written in bounded-size chunks so a writer
can stream arbitrarily long cases with O(chunk) memory, and a reader
can verify integrity incrementally. The store chunk-size ablation in
``benchmarks/bench_ablations.py`` sweeps the chunk size.

:class:`CaseMeta`, :class:`ColumnMeta` and :class:`ChunkRef` are the
public per-case view of the tables
(:meth:`~repro.elstore.reader.EventLogStore.case_meta`); the writer and
the whole-log read work on the tables (:class:`Toc`) instead.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

#: File magic — identifies an elstore container, versioned separately.
MAGIC = b"ELOGSTOR"
#: Bumped on incompatible layout changes; 2 is the binary TOC.
FORMAT_VERSION = 2
#: struct format of the fixed-size header (see module docstring).
HEADER_FMT = "<8sHHQQ"
HEADER_SIZE = 8 + 2 + 2 + 8 + 8

#: Per-case column schema: name -> numpy dtype string. These are the
#: event attributes of the paper's HDF5 tables; ``call`` and ``fp`` are
#: int32 codes into the file-global pools; missing fp/size/dur are -1.
CASE_COLUMNS: dict[str, str] = {
    "pid": "<i8",
    "call": "<i4",
    "start": "<i8",
    "dur": "<i8",
    "fp": "<i4",
    "size": "<i8",
}

#: Pool names serialized in the TOC.
POOL_NAMES = ("calls", "paths", "cases", "cids", "hosts")

#: The fields of a TOC case row, in order.
CASE_FIELDS = ("case", "cid", "host", "rid", "n_events")

_COUNTS = len(POOL_NAMES) + 1 + len(CASE_COLUMNS)
_CRC = struct.Struct("<I")


class TocColumn(NamedTuple):
    """One column of every case: case ``i`` owns the chunk refs
    ``refs[starts[i]:starts[i + 1]]``, each an int64
    ``(offset, nbytes, crc32)`` row."""

    starts: np.ndarray
    refs: np.ndarray


class Toc(NamedTuple):
    """The TOC's tables, as stored: no check beyond the layout's own."""

    pools: dict[str, list[str]]
    #: One int64 row of :data:`CASE_FIELDS` per case, in stored order.
    cases: np.ndarray
    columns: dict[str, TocColumn]


def encode_toc(toc: Toc) -> bytes:
    """The TOC bytes of ``toc``, its CRC32 last."""
    encoded = [string.encode("utf-8", "surrogatepass")
               for name in POOL_NAMES for string in toc.pools[name]]
    counts = [len(toc.pools[name]) for name in POOL_NAMES]
    counts.append(len(toc.cases))
    counts.extend(len(toc.columns[name].refs) for name in CASE_COLUMNS)
    ends = np.cumsum(np.fromiter(map(len, encoded), dtype=np.int64,
                                 count=len(encoded)))
    tables = [np.array(counts), ends, toc.cases]
    for name in CASE_COLUMNS:
        tables.extend(toc.columns[name])
    body = b"".join([np.concatenate(
        [np.ravel(table) for table in tables]).astype("<i8").tobytes(),
        *encoded])
    return body + _CRC.pack(zlib.crc32(body))


def decode_toc(raw: bytes) -> Toc:
    """The tables of the TOC bytes ``raw``. Raises :class:`ValueError`
    unless the CRC matches — checked first — and the counts, string
    ends and text fill the TOC exactly."""
    if len(raw) < 8 * _COUNTS + _CRC.size:
        raise ValueError(f"{len(raw)} bytes, too short for a TOC")
    (crc,) = _CRC.unpack_from(raw, len(raw) - _CRC.size)
    body = memoryview(raw)[:-_CRC.size]
    if zlib.crc32(body) != crc:
        raise ValueError(f"CRC mismatch (stored {crc:#010x}, computed "
                         f"{zlib.crc32(body):#010x})")
    counts = np.frombuffer(body, dtype="<i8", count=_COUNTS).tolist()
    if min(counts) < 0:
        raise ValueError(f"negative count in {counts}")
    n_pools = len(POOL_NAMES)
    n_strings, n_cases = sum(counts[:n_pools]), counts[n_pools]
    n_ints = (_COUNTS + n_strings + len(CASE_FIELDS) * n_cases
              + len(CASE_COLUMNS) * (n_cases + 1)
              + 3 * sum(counts[n_pools + 1:]))
    if 8 * n_ints > len(body):
        raise ValueError(f"counts {counts} need {8 * n_ints} bytes, the "
                         f"TOC holds {len(body)}")
    ints = np.frombuffer(body, dtype="<i8", count=n_ints).astype(
        np.int64, copy=False)
    text = raw[8 * n_ints:len(body)]
    at = _COUNTS + n_strings
    bounds = np.concatenate(([0], ints[_COUNTS:at]))
    if (np.diff(bounds) < 0).any() or bounds[-1] != len(text):
        raise ValueError(f"string ends do not run through the "
                         f"{len(text)}-byte text")
    bounds = bounds.tolist()
    strings = [text[begin:end].decode("utf-8", "surrogatepass")
               for begin, end in zip(bounds, bounds[1:])]
    pools, first = {}, 0
    for name, count in zip(POOL_NAMES, counts):
        pools[name] = strings[first:first + count]
        first += count
    cases = ints[at:at + len(CASE_FIELDS) * n_cases].reshape(
        n_cases, len(CASE_FIELDS))
    at += len(CASE_FIELDS) * n_cases
    columns = {}
    for name, n_refs in zip(CASE_COLUMNS, counts[n_pools + 1:]):
        starts = ints[at:at + n_cases + 1]
        at += n_cases + 1
        columns[name] = TocColumn(
            starts, ints[at:at + 3 * n_refs].reshape(n_refs, 3))
        at += 3 * n_refs
    return Toc(pools, cases, columns)


@dataclass(frozen=True, slots=True)
class ChunkRef:
    """Location + checksum of one chunk of column data."""

    offset: int
    nbytes: int
    crc32: int


@dataclass(slots=True)
class ColumnMeta:
    """One column of one case: dtype + chunk list."""

    name: str
    dtype: str
    chunks: list[ChunkRef] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self.chunks)

    @property
    def n_values(self) -> int:
        return self.nbytes // np.dtype(self.dtype).itemsize


@dataclass(slots=True)
class CaseMeta:
    """One case (HDF5-group equivalent) in the container."""

    case_id: str
    cid: str
    host: str
    rid: int
    n_events: int
    columns: dict[str, ColumnMeta] = field(default_factory=dict)
