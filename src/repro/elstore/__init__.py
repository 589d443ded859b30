"""``.elog`` — the event-log container (HDF5 substitute).

The paper's implementation stores processed traces "in a single HDF5
file. Each processed trace file (i.e., each case) is stored in a
separate group within the HDF5 file as a table" whose columns are the
event attributes *pid, call, start, dur, fp, size*, sorted by start
timestamp (Sec. V, Implementation). h5py is not available in this
environment, so :mod:`repro.elstore` implements an equivalent
single-file columnar container with the same contract:

- one *group* (table) per case, identified by (cid, host, rid);
- per-case columns ``pid/call/start/dur/fp/size`` in start order;
- string columns dictionary-encoded against file-global pools;
- chunked column storage with per-chunk CRC32 integrity checks;
- O(1) open + per-case lazy reads via a binary, CRC-checked table of
  contents.
"""

from repro._util.lazy import lazy_exports

__all__ = [
    "CASE_COLUMNS",
    "FORMAT_VERSION",
    "MAGIC",
    "CaseMeta",
    "ChunkRef",
    "ColumnMeta",
    "EventLogWriter",
    "write_event_log",
    "EventLogStore",
    "read_event_log",
    "convert_source",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.elstore.schema": ("CASE_COLUMNS", "FORMAT_VERSION", "MAGIC",
                             "CaseMeta", "ChunkRef", "ColumnMeta"),
    "repro.elstore.writer": ("EventLogWriter", "write_event_log"),
    "repro.elstore.reader": ("EventLogStore", "read_event_log"),
    "repro.elstore.convert": ("convert_source",),
})
