"""Process-pool fan-out over trace files: the one dispatcher.

Cases are independent by construction — "the group of events in each
trace file" (Sec. IV) shares nothing across files — so per-file parsing
is embarrassingly parallel. :func:`iter_case_columns` is the only
fan-out: ``StraceDirSource.iter_cases``, its ``event_log`` and, through
them, ``convert_source`` all stream through it. It runs on a
``ProcessPoolExecutor`` (processes, not threads: the line parse is
pure-Python regex work, which threads cannot overlap under the GIL).

- **One wire format.** A worker parses its files straight into
  :class:`CaseColumns` — per-case NumPy columns plus local string
  pools, an order of magnitude cheaper to pickle than record objects.
  :func:`frame_from_case_columns` re-encodes the local codes into
  shared :class:`~repro.core.frame.FramePools` in case order, so every
  worker count builds the same frame bit for bit (the ingest
  equivalence tests pin ``workers ∈ {1, 2, 4}``).
- **One dispatch policy.** Files travel in chunks of about a quarter of
  a worker's share, at most :data:`MAX_CHUNK_FILES`, and at most
  :data:`CHUNKS_PER_WORKER` chunk futures per worker are pending. A
  slow consumer — the disk-bound ``.elog`` writer — stalls the pool
  instead of piling up results. Cases come out in sorted-path order.
- **One fallback rule.** If the pool cannot be created or breaks
  (sandboxes without semaphores, a spawn bootstrap without a
  ``__main__`` guard, an OOM-killed worker), the files whose results
  have not arrived yet are parsed in process, with one warning: no
  case is lost or yielded twice. Errors raised *by* the parse (a
  :class:`~repro._util.errors.TraceParseError` naming path and line)
  propagate unchanged — they would fail sequentially too.

``resolve_workers`` implements the auto-detection policy: ``None``
means "use the CPUs this process is allowed to run on" (capped, and
never more than one worker per file); ``1`` is the plain in-process
loop.
"""

from __future__ import annotations

import itertools
import os
import warnings
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro._util.errors import ReproError
from repro.core.frame import MISSING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.frame import EventFrame, FramePools
    from repro.strace.naming import TraceFileName
    from repro.strace.reader import TraceCase
    from repro.strace.resume import MergeStats

#: Upper bound on auto-detected workers — beyond this, pool start-up
#: and result pickling outweigh parse overlap for typical trace dirs.
MAX_AUTO_WORKERS = 16

#: Most files one chunk carries to a worker. Chunks amortize the
#: per-future round trip; the cap bounds what one pending chunk holds.
MAX_CHUNK_FILES = 16

#: Pending chunk futures per worker: one being parsed and one queued,
#: so no worker idles while the parent consumes a result.
CHUNKS_PER_WORKER = 2


def available_cpus() -> int:
    """CPUs this process may run on (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _pool_context():
    """The multiprocessing context for ingest pools; None = default.

    On Linux, single-threaded parents use ``fork``: forked children
    never re-import ``__main__``, so library calls are safe from
    unguarded caller scripts (the classic spawn hazard of re-running
    top-level side effects in every worker). A *multithreaded* parent
    must not fork — a child can inherit a lock held mid-operation by
    another thread and deadlock — so it gets ``forkserver`` with an
    *empty* preload list: CPython's default forkserver preloads
    ``['__main__']``, which would re-run caller top-level code in the
    server, so it is explicitly cleared. Forkserver *workers* still
    perform the spawn-style ``__mp_main__`` fixup, so for threaded
    parents the usual multiprocessing guard advice applies — the
    price of not deadlocking. macOS *lists* fork but forked
    children crash inside Apple frameworks — the reason CPython made
    spawn the macOS default — so off Linux this returns None and pools
    use the platform default start method.
    """
    import multiprocessing
    import sys
    import threading

    if not sys.platform.startswith("linux"):
        return None  # pragma: no cover - non-Linux
    methods = multiprocessing.get_all_start_methods()
    if threading.active_count() > 1 and "forkserver" in methods:
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload([])
        return context
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return None  # pragma: no cover - fork always on Linux


def resolve_workers(workers: int | None, n_tasks: int | None = None) -> int:
    """Turn a user-facing ``workers`` argument into a concrete count.

    ``None`` auto-detects: available CPUs, capped at
    :data:`MAX_AUTO_WORKERS` — but only where the ``fork`` start
    method is safe (Linux); elsewhere auto stays sequential, so a
    plain library call never spawns processes that re-import the
    caller's ``__main__`` or fork into unsafe frameworks. Explicit
    values are taken as-is (the caller opted in) except that the
    count never exceeds the number of tasks. Always >= 1; zero or a
    negative count is rejected rather than degraded to one worker.
    """
    if workers is not None and workers < 1:
        raise ReproError(f"workers must be >= 1 or None (auto): {workers}")
    if workers is not None:
        count = workers
    elif _pool_context() is None:  # pragma: no cover - non-Linux
        count = 1
    else:
        count = min(available_cpus(), MAX_AUTO_WORKERS)
    if n_tasks is not None:
        count = min(count, max(n_tasks, 1))
    return max(count, 1)


# -- columnar wire format -----------------------------------------------------


@dataclass(slots=True)
class CaseColumns:
    """One parsed case as pickle-cheap columns (the fan-out wire format).

    ``call``/``fp`` hold codes into the *local* ``calls``/``paths``
    string lists (built in first-occurrence order over the records);
    ``fp`` code ``-1`` means "no path". This mirrors the argument shape
    of :meth:`repro.elstore.writer.EventLogWriter.add_case_arrays`, so
    conversion streams straight into the store as well.
    """

    name: "TraceFileName"
    pid: np.ndarray
    start: np.ndarray
    dur: np.ndarray
    size: np.ndarray
    call: np.ndarray
    fp: np.ndarray
    calls: list[str]
    paths: list[str]
    merge_stats: "MergeStats"

    def __len__(self) -> int:
        return len(self.start)

    def columns(self) -> dict[str, np.ndarray]:
        """The per-record columns keyed as ``add_case_arrays`` expects
        (the single definition both conversion routes share)."""
        return {
            "pid": self.pid,
            "call": self.call,
            "start": self.start,
            "dur": self.dur,
            "fp": self.fp,
            "size": self.size,
        }


def rows_to_columns(name: "TraceFileName", rows: "Sequence[tuple]",
                    merge_stats: "MergeStats | None" = None,
                    ) -> CaseColumns:
    """Columnarize one case's sealed rows (or parsed records, which
    are the same tuples with names).

    Local string pools are built in first-occurrence order over the
    rows; missing ``fp``/``size``/``dur`` become :data:`MISSING`.
    """
    from repro.strace.resume import MergeStats

    if merge_stats is None:
        merge_stats = MergeStats()
    n = len(rows)
    if n:
        pid, start, call, fp, size, dur, _ = zip(*rows)
    else:
        pid = start = call = fp = size = dur = ()
    calls = list(dict.fromkeys(call))
    call_codes = {value: code for code, value in enumerate(calls)}
    paths = [value for value in dict.fromkeys(fp) if value is not None]
    path_codes = {value: code for code, value in enumerate(paths)}
    path_codes[None] = MISSING
    return CaseColumns(
        name=name,
        pid=np.array(pid, dtype=np.int64),
        start=np.array(start, dtype=np.int64),
        dur=np.array([MISSING if v is None else v for v in dur],
                     dtype=np.int64),
        size=np.array([MISSING if v is None else v for v in size],
                      dtype=np.int64),
        call=np.fromiter(map(call_codes.__getitem__, call),
                         dtype=np.int32, count=n),
        fp=np.fromiter(map(path_codes.__getitem__, fp),
                       dtype=np.int32, count=n),
        calls=calls, paths=paths, merge_stats=merge_stats)


def case_to_columns(case: "TraceCase") -> CaseColumns:
    """Reduce a parsed case to its columnar wire form."""
    return rows_to_columns(case.name, case.records, case.merge_stats)


def frame_from_case_columns(column_cases: "list[CaseColumns]",
                            pools: "FramePools | None" = None,
                            ) -> "EventFrame":
    """Assemble an :class:`EventFrame` from columnar cases.

    This *is* the frame-construction interning sequence — per case:
    case id, cid, host, then calls/paths in record first-occurrence
    order. ``EventFrame.from_cases`` delegates here, so sequential and
    parallel ingestion share one implementation and byte-identity
    holds by construction (and is additionally pinned by the ingest
    equivalence tests).
    """
    from repro.core.frame import COLUMN_ORDER, EventFrame, FramePools

    pools = pools or FramePools()
    if not column_cases:
        return EventFrame.empty(pools)
    parts: dict[str, list[np.ndarray]] = {
        name: [] for name in COLUMN_ORDER}
    for case in column_cases:
        n = len(case)
        # The lookups below would wrap a negative call code and drop an
        # fp code past the case's paths; a min/max pair per column
        # rejects both without an n-sized temporary.
        for column, codes, low, high in (
                ("call", case.call, 0, len(case.calls)),
                ("fp", case.fp, MISSING, len(case.paths))):
            if n and (codes.min() < low or codes.max() >= high):
                raise ReproError(
                    f"case {case.name.case_id!r}: {column} codes span "
                    f"[{codes.min()}, {codes.max()}], outside "
                    f"[{low}, {high})")
        case_code = pools.cases.intern(case.name.case_id)
        cid_code = pools.cids.intern(case.name.cid)
        host_code = pools.hosts.intern(case.name.host)
        call_table = np.fromiter(
            (pools.calls.intern(s) for s in case.calls),
            dtype=np.int32, count=len(case.calls))
        path_table = np.fromiter(
            (pools.paths.intern(s) for s in case.paths),
            dtype=np.int32, count=len(case.paths))
        parts["case"].append(np.full(n, case_code, dtype=np.int32))
        parts["cid"].append(np.full(n, cid_code, dtype=np.int32))
        parts["host"].append(np.full(n, host_code, dtype=np.int32))
        parts["rid"].append(np.full(n, case.name.rid, dtype=np.int64))
        parts["pid"].append(case.pid)
        parts["call"].append(
            call_table[case.call].astype(np.int32, copy=False))
        parts["start"].append(case.start)
        parts["dur"].append(case.dur)
        if len(path_table):
            fp_codes = np.where(
                case.fp >= 0,
                path_table[np.clip(case.fp, 0, None)],
                np.int32(MISSING)).astype(np.int32, copy=False)
        else:  # no record of this case carries a path
            fp_codes = np.full(n, MISSING, dtype=np.int32)
        parts["fp"].append(fp_codes)
        parts["size"].append(case.size)
        parts["activity"].append(np.full(n, MISSING, dtype=np.int32))
    columns = {name: np.concatenate(arrays)
               for name, arrays in parts.items()}
    return EventFrame(pools, columns)


def _parse_columns(path: Path, name: "TraceFileName",
                   strict: bool) -> CaseColumns:
    """Parse one trace file straight into columns — no record object
    is built on the way."""
    from repro.strace.reader import read_trace_records

    rows, stats = read_trace_records(path, strict=strict, rows=True)
    return rows_to_columns(name, rows, stats)


def _parse_chunk(chunk: "list[tuple[Path, TraceFileName]]",
                 strict: bool) -> list[CaseColumns]:
    """Worker: parse a chunk of files in the child, so only arrays and
    distinct strings cross the process boundary."""
    return [_parse_columns(path, name, strict) for path, name in chunk]


def iter_case_columns(
    found: "list[tuple[Path, TraceFileName]]",
    *,
    strict: bool = True,
    workers: int | None = 1,
) -> "Iterator[CaseColumns]":
    """Stream discovered files as :class:`CaseColumns`, in order.

    ``found`` is the output of
    :func:`~repro.strace.reader.discover_trace_files` (already sorted);
    the cases keep that order exactly, whatever the worker count.
    ``workers`` is resolved by :func:`resolve_workers` (``None``
    auto-detects); more than one fans the parse out over a process
    pool under the module's dispatch policy and fallback rule.

    An invalid ``workers`` raises at the call, not at first ``next()``
    — hence the non-generator wrapper.
    """
    count = resolve_workers(workers, len(found))
    return _iter_case_columns(found, strict, count)


def _iter_case_columns(found: "list[tuple[Path, TraceFileName]]",
                       strict: bool, workers: int,
                       ) -> "Iterator[CaseColumns]":
    done = 0
    if workers > 1:
        for chunk in _pooled_chunks(found, strict, workers):
            yield from chunk
            done += len(chunk)
        if done < len(found):
            warnings.warn(
                f"process pool unavailable or broken; parsing the "
                f"remaining {len(found) - done} of {len(found)} trace "
                f"file(s) in process instead of on {workers} workers",
                stacklevel=2)
    for path, name in found[done:]:
        yield _parse_columns(path, name, strict)


def _pooled_chunks(found: "list[tuple[Path, TraceFileName]]",
                   strict: bool, workers: int,
                   ) -> "Iterator[list[CaseColumns]]":
    """Each chunk's cases from a process pool, in order; stops early,
    without raising, when the pool cannot be created or breaks. The
    pool machinery is imported here, so a process that never starts a
    pool (``workers=1``, an ``.elog`` read) does not load it."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    size = max(1, min(MAX_CHUNK_FILES, len(found) // (workers * 4)))
    chunks = (found[i:i + size] for i in range(0, len(found), size))
    window = CHUNKS_PER_WORKER * workers
    try:
        pool = ProcessPoolExecutor(max_workers=workers,
                                   mp_context=_pool_context())
    except (OSError, RuntimeError):
        return
    pending: deque = deque()
    drained = False
    try:
        while True:
            try:
                pending.extend(
                    pool.submit(_parse_chunk, chunk, strict)
                    for chunk in itertools.islice(
                        chunks, window - len(pending)))
            except (BrokenProcessPool, OSError):  # broke, or cannot fork
                return
            if not pending:
                drained = True
                return
            try:
                cases = pending.popleft().result()
            except BrokenProcessPool:
                return
            yield cases
    finally:
        # A consumer that abandoned the stream, a parse error or a
        # broken pool must not wait for every pending parse to finish.
        pool.shutdown(wait=drained, cancel_futures=not drained)
