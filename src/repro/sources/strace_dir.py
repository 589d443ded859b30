"""``strace:`` — a directory of ``<cid>_<host>_<rid>.st`` trace files.

The paper's native input (Sec. III), wrapped over the parallel
ingestion engine (:mod:`repro.ingest`): discovery is sorted-path
deterministic and per-file parsing fans out over ``workers`` processes
through the one dispatcher,
:func:`~repro.ingest.parallel.iter_case_columns`. The streaming case
iterator, the whole log and every worker count therefore yield
byte-identical logs — pinned by the golden-fingerprint and
equivalence suites.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.sources.base import SourceOptions, TraceSource
from repro.sources.registry import require_no_options

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.eventlog import EventLog
    from repro.ingest.parallel import CaseColumns


class StraceDirSource(TraceSource):
    """Batch ingestion of a directory of strace text files.

    The only source whose input is a set of independent files, hence
    the only one where ``workers`` buys parse overlap and where
    ``recursive`` changes discovery. It is also tailable: a growing
    directory can be followed live by :mod:`repro.live`.
    """

    scheme = "strace"
    supports_workers = True
    supports_recursive = True
    supports_strict = True
    supports_tail = True

    def __init__(self, directory: str | os.PathLike[str], *,
                 cids: set[str] | None = None,
                 strict: bool = True,
                 recursive: bool = False,
                 workers: int | None = None) -> None:
        self.directory = Path(directory)
        self.cids = cids
        self.strict = strict
        self.recursive = recursive
        self.workers = workers

    @classmethod
    def from_uri(cls, target: str, options: dict[str, str],
                 opts: SourceOptions) -> "StraceDirSource":
        require_no_options(cls.scheme, options)
        return cls(target, cids=opts.cids, strict=opts.strict,
                   recursive=opts.recursive, workers=opts.workers)

    def describe(self) -> str:
        return f"strace trace directory {self.directory}"

    def iter_cases(self) -> "Iterator[CaseColumns]":
        """Stream cases in sorted-path order, ``workers`` at a time.

        Backed by :func:`~repro.ingest.parallel.iter_case_columns`
        (a bounded window of chunk futures), so a slow consumer — the
        ``.elog`` writer — keeps memory bounded however large the
        directory.
        """
        from repro.ingest.parallel import iter_case_columns
        from repro.strace.reader import discover_trace_files

        found = discover_trace_files(self.directory, cids=self.cids,
                                     recursive=self.recursive)
        return iter_case_columns(found, strict=self.strict,
                                 workers=self.workers)

    def event_log(self) -> "EventLog":
        """The whole log, assembled from :meth:`iter_cases` as for every
        source. Defined on this class so that perfbench's
        ``ingest.cases`` span, which looks the method up in
        ``vars(StraceDirSource)``, can wrap it."""
        return super().event_log()
