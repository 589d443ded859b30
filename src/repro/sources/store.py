"""``elog:`` — the single-file columnar event-log container.

Reading the store back *is* a source like any other: ``event_log`` is
the legacy :func:`~repro.elstore.reader.read_event_log` materializer
(bit-compatible with every existing consumer), and ``iter_cases``
re-slices the container into per-case columns so a store can feed the
streaming consumers too — ``convert`` between two stores (re-chunking/
re-packing) or store → CSV export both ride the same path.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.sources.base import (
    SourceOptions,
    TraceSource,
    _localize_codes,
)
from repro.sources.registry import require_no_options

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.eventlog import EventLog
    from repro.ingest.parallel import CaseColumns


class ElstoreSource(TraceSource):
    """An ``.elog`` container (the paper's HDF5 store, reimplemented)."""

    scheme = "elog"

    def __init__(self, path: str | os.PathLike[str], *,
                 cids: set[str] | None = None) -> None:
        self.path = Path(path)
        self.cids = cids

    @classmethod
    def from_uri(cls, target: str, options: dict[str, str],
                 opts: SourceOptions) -> "ElstoreSource":
        require_no_options(cls.scheme, options)
        return cls(target, cids=opts.cids)

    def describe(self) -> str:
        return f".elog store {self.path}"

    def event_log(self) -> "EventLog":
        from repro.elstore.reader import read_event_log

        return read_event_log(self.path, cids=self.cids)

    def iter_cases(self) -> "Iterator[CaseColumns]":
        """Lazy per-case reads in stored (append) order, CRC-verified.

        Append order — not sorted case-id order — is what makes an
        ``elog`` → ``elog`` repack reproduce the container byte for
        byte: the writer laid cases down in that order, and re-writing
        them in any other would shuffle chunks and pools. Merge
        diagnostics are empty — they belong to the original parse and
        are not persisted in the container.
        """
        from repro.elstore.reader import EventLogStore
        from repro.ingest.parallel import CaseColumns
        from repro.strace.naming import TraceFileName
        from repro.strace.resume import MergeStats

        store = EventLogStore(self.path)
        calls_pool = store.pools["calls"]
        paths_pool = store.pools["paths"]
        for case_id in store.stored_case_ids():
            cid, host, rid = store.case_name(case_id)
            if self.cids is not None and cid not in self.cids:
                continue
            data = store.read_case(case_id)
            call, calls = _localize_codes(
                data["call"].astype(np.int32), calls_pool.__getitem__)
            fp, paths = _localize_codes(
                data["fp"].astype(np.int32), paths_pool.__getitem__)
            yield CaseColumns(
                name=TraceFileName(cid=cid, host=host, rid=rid),
                pid=data["pid"].astype(np.int64),
                start=data["start"].astype(np.int64),
                dur=data["dur"].astype(np.int64),
                size=data["size"].astype(np.int64),
                call=call, fp=fp, calls=calls, paths=paths,
                merge_stats=MergeStats())
