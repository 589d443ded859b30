"""The :class:`TraceSource` contract — one pluggable "where do events
come from" API.

Sec. II of the paper: "The methodology by itself does not depend on
strace and can be applied over data instrumented by one of the other
existing tools." Before this package every entry point hardcoded its
input shape (a directory of strace text, an ``.elog`` store, a CSV
dump, the simulator); a :class:`TraceSource` factors the common
contract out:

- :meth:`TraceSource.iter_cases` yields the paper's cases one at a
  time as :class:`~repro.ingest.parallel.CaseColumns` — the columnar
  wire format of the parallel ingestion engine, which is also the
  ``.elog`` writer's input shape. Every case carries its
  :class:`~repro.strace.resume.MergeStats`; :func:`combine_merge_stats`
  folds them into one diagnostic record.
- :meth:`TraceSource.event_log` assembles the whole source into an
  :class:`~repro.core.eventlog.EventLog`. The default implementation
  feeds ``iter_cases`` through the engine's shared frame assembly
  (:func:`~repro.ingest.parallel.frame_from_case_columns`), so any
  source that can enumerate cases gets a correct log for free;
  sources with a faster direct path override it.
- Capability flags (:attr:`supports_workers`,
  :attr:`supports_recursive`, :attr:`supports_strict`) declare which
  ingest options a source honors, so a requested-but-unsupported
  option warns (:class:`UnsupportedSourceOptionWarning`) instead of
  being silently dropped.

Sources are constructed directly or through the URI registry
(:func:`repro.sources.open_source`); new backends are one subclass and
one :func:`~repro.sources.registry.register_source` call — no new
plumbing through the consumers.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable, Iterator

import numpy as np

from repro.core.frame import MISSING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.eventlog import EventLog
    from repro.ingest.parallel import CaseColumns
    from repro.strace.resume import MergeStats


class UnsupportedSourceOptionWarning(UserWarning):
    """An ingest option was requested that this source cannot honor."""


@dataclass(frozen=True)
class SourceOptions:
    """The common ingest knobs every consumer may forward to a source.

    Sources pick the subset they support at construction; the registry
    (:func:`~repro.sources.registry.open_source`) checks the rest
    against the capability flags and warns about the remainder.
    """

    workers: int | None = None
    recursive: bool = False
    strict: bool = True
    cids: set[str] | None = None


class TraceSource(abc.ABC):
    """One place events come from: batch, store, foreign format, or
    synthetic.

    Subclasses set :attr:`scheme` (their URI prefix in the registry)
    and the capability flags, and implement :meth:`iter_cases`.
    """

    #: URI scheme under which the source registers (``"strace"`` →
    #: ``open_source("strace:traces/")``).
    scheme: ClassVar[str] = ""
    #: Whether ``workers=N`` fans parsing out (only sources that parse
    #: independent per-case inputs can).
    supports_workers: ClassVar[bool] = False
    #: Whether ``recursive=True`` changes what is discovered.
    supports_recursive: ClassVar[bool] = False
    #: Whether ``strict=False`` (CLI ``--lenient``) relaxes anything —
    #: only sources that run the strace tokenizer/merger have a
    #: lenient mode.
    supports_strict: ClassVar[bool] = False

    @abc.abstractmethod
    def iter_cases(self) -> "Iterator[CaseColumns]":
        """Yield every case in deterministic order.

        The order defines downstream frame layout (and ``.elog``
        append order), so it must be reproducible run to run.
        """

    def event_log(self) -> "EventLog":
        """Materialize the source as an in-memory event-log."""
        from repro.core.eventlog import EventLog
        from repro.ingest.parallel import frame_from_case_columns

        return EventLog(frame_from_case_columns(list(self.iter_cases())))

    def describe(self) -> str:
        """One-line human description (CLI messages, warnings)."""
        return f"{self.scheme} source"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.describe()!r})"


def combine_merge_stats(
        stats: "Iterable[MergeStats]") -> "MergeStats":
    """Fold per-case :class:`MergeStats` into one aggregate record."""
    from repro.strace.resume import MergeStats

    total = MergeStats()
    for part in stats:
        total.merged_pairs += part.merged_pairs
        total.dropped_restarts += part.dropped_restarts
        total.skipped_signals += part.skipped_signals
        total.skipped_exits += part.skipped_exits
        total.orphan_unfinished += part.orphan_unfinished
        total.orphan_resumed += part.orphan_resumed
        total.decode_replacements += part.decode_replacements
    return total


# -- shared case-assembly helpers ---------------------------------------------


def _localize_codes(codes: np.ndarray, decode: Callable[[int], str],
                    ) -> tuple[np.ndarray, list[str]]:
    """Re-encode global pool codes as local first-occurrence codes.

    Returns ``(local_codes, strings)`` in the convention of
    :class:`~repro.ingest.parallel.CaseColumns`: code ``i`` means
    ``strings[i]``, strings ordered by first occurrence in ``codes``,
    and negative input codes (MISSING) pass through unchanged.
    """
    local = np.full(len(codes), MISSING, dtype=np.int32)
    strings: list[str] = []
    present = codes != MISSING
    if not present.any():
        return local, strings
    values = codes[present].astype(np.int64)
    uniq, first, inverse = np.unique(values, return_index=True,
                                     return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int32)
    rank[order] = np.arange(len(uniq), dtype=np.int32)
    local[present] = rank[inverse]
    strings = [decode(int(uniq[i])) for i in order]
    return local, strings


def iter_cases_of_log(event_log: "EventLog") -> "Iterator[CaseColumns]":
    """Slice an in-memory event-log back into per-case columns.

    The generic bridge for sources that materialize a whole
    :class:`EventLog` first (CSV, foreign adapters): cases come out in
    sorted case-id order with local first-occurrence string coding —
    exactly the shape :meth:`EventLogWriter.add_case_arrays` and
    :func:`frame_from_case_columns` consume. Merge diagnostics are
    empty: these sources never see strace's unfinished/resumed splits.

    A case whose events disagree on host, cid or rid (possible in CSV
    input, where the case key is the ``f"{cid}{rid}"`` concatenation:
    distinct hosts always collide, and e.g. cid ``a``/rid ``12`` and
    cid ``a1``/rid ``2`` both key as ``a12``) cannot be represented in
    the per-case column form — its identity carries a single
    (cid, host, rid) — so it raises
    :class:`~repro._util.errors.SourceError` rather than silently
    relabeling events with the first row's identity.
    """
    from repro._util.errors import SourceError
    from repro.ingest.parallel import CaseColumns
    from repro.strace.naming import TraceFileName
    from repro.strace.resume import MergeStats

    pools = event_log.frame.pools
    for case_id, case_frame in event_log.iter_cases():
        for column, pool in (("host", pools.hosts),
                             ("cid", pools.cids), ("rid", None)):
            distinct = np.unique(case_frame.column(column))
            if len(distinct) > 1:
                values = sorted(
                    int(v) if pool is None else pool.decode(int(v))
                    for v in distinct)
                raise SourceError(
                    f"case {case_id!r} spans {column}s {values}; "
                    f"per-case storage keys a case by one "
                    f"(cid, host, rid) — split the input or "
                    f"disambiguate the colliding identities")
        name = TraceFileName(
            cid=pools.cids.decode(int(case_frame.column("cid")[0])),
            host=pools.hosts.decode(int(case_frame.column("host")[0])),
            rid=int(case_frame.column("rid")[0]))
        call, calls = _localize_codes(case_frame.column("call"),
                                      pools.calls.decode)
        fp, paths = _localize_codes(case_frame.column("fp"),
                                    pools.paths.decode)
        yield CaseColumns(
            name=name,
            pid=case_frame.column("pid").astype(np.int64, copy=False),
            start=case_frame.column("start").astype(np.int64, copy=False),
            dur=case_frame.column("dur").astype(np.int64, copy=False),
            size=case_frame.column("size").astype(np.int64, copy=False),
            call=call, fp=fp, calls=calls, paths=paths,
            merge_stats=MergeStats())


def case_columns_from_text(name, text: str, *, strict: bool = True,
                           path_label: str | None = None,
                           ) -> "CaseColumns":
    """Parse in-memory strace text into one case's columns.

    The exact pipeline of :func:`~repro.strace.reader.read_trace_file`
    minus the file and byte-decode steps: end lines where a file's
    do (``\\r\\n``, ``\\r`` or ``\\n``, made ``\\n``, and the end of the
    text), feed them to the merger as one block, columnarize the
    sealed rows. Lets synthetic producers (the simulator) feed the
    analysis without a temp directory while staying byte-identical to
    the write-files-then-ingest path.
    """
    from repro.ingest.parallel import rows_to_columns
    from repro.strace.resume import IncrementalMerger

    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if text and not text.endswith("\n"):
        text += "\n"
    merger = IncrementalMerger(path=path_label, strict=strict, rows=True)
    rows = merger.feed_text(text)
    rows += merger.finish()
    return rows_to_columns(name, rows, merger.stats)
