"""On-disk schema of the ``.elog`` event-log container.

File layout (little-endian throughout)::

    +--------------------------------------------------+
    | header: MAGIC (8) | version u16 | reserved u16   |
    |         toc_offset u64 | toc_length u64          |
    +--------------------------------------------------+
    | chunk 0 bytes | chunk 1 bytes | ...              |  (column data)
    +--------------------------------------------------+
    | TOC: UTF-8 JSON                                  |
    +--------------------------------------------------+

The TOC describes every case (group) and its columns; each column is a
list of chunk references ``(offset, nbytes, crc32)``. String pools
(calls, paths, cases, cids, hosts) live in the TOC itself — they are
small (distinct strings only) and JSON keeps them debuggable with a hex
dump and ``jq``.

Why chunked: columns are written in bounded-size chunks so a writer
can stream arbitrarily long cases with O(chunk) memory, and a reader
can verify integrity incrementally. The store chunk-size ablation in
``benchmarks/bench_ablations.py`` sweeps the chunk size.

:class:`CaseMeta`, :class:`ColumnMeta` and :class:`ChunkRef` are the
public per-case view of one TOC entry
(:meth:`~repro.elstore.reader.EventLogStore.case_meta`); the writer and
the whole-log read work on the TOC's JSON and flat arrays instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: File magic — identifies an elstore container, versioned separately.
MAGIC = b"ELOGSTOR"
#: Bumped on incompatible layout changes.
FORMAT_VERSION = 1
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


@dataclass(frozen=True, slots=True)
class ChunkRef:
    """Location + checksum of one chunk of column data."""

    offset: int
    nbytes: int
    crc32: int

    def to_json(self) -> list[int]:
        return [self.offset, self.nbytes, self.crc32]

    @classmethod
    def from_json(cls, data: list[int]) -> "ChunkRef":
        return cls(offset=int(data[0]), nbytes=int(data[1]),
                   crc32=int(data[2]))


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

    def to_json(self) -> dict:
        return {"name": self.name, "dtype": self.dtype,
                "chunks": [c.to_json() for c in self.chunks]}

    @classmethod
    def from_json(cls, data: dict) -> "ColumnMeta":
        return cls(name=data["name"], dtype=data["dtype"],
                   chunks=[ChunkRef.from_json(c) for c in data["chunks"]])


@dataclass(slots=True)
class CaseMeta:
    """One case (HDF5-group equivalent) in the container."""

    case_id: str
    cid: str
    host: str
    rid: int
    n_events: int
    columns: dict[str, ColumnMeta] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "case_id": self.case_id,
            "cid": self.cid,
            "host": self.host,
            "rid": self.rid,
            "n_events": self.n_events,
            "columns": {n: c.to_json() for n, c in self.columns.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "CaseMeta":
        return cls(
            case_id=data["case_id"],
            cid=data["cid"],
            host=data["host"],
            rid=int(data["rid"]),
            n_events=int(data["n_events"]),
            columns={n: ColumnMeta.from_json(c)
                     for n, c in data["columns"].items()},
        )
