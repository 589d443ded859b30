"""Process-pool fan-out over trace files.

Cases are independent by construction — "the group of events in each
trace file" (Sec. IV) shares nothing across files — so per-file parsing
is embarrassingly parallel. This module runs
:func:`~repro.strace.reader.read_trace_file` over N files on a
``ProcessPoolExecutor`` (processes, not threads: tokenizing and
argument parsing are pure-Python regex work, which threads cannot
overlap under the GIL).

Determinism is preserved: tasks are submitted in sorted-path order and
``Executor.map`` returns results in submission order, so the case list
is identical to the sequential one — the ingest equivalence tests
assert byte-identical frames for ``workers ∈ {1, 2, 4}``.

Two wire formats cross the process boundary:

* :func:`read_cases` ships full :class:`~repro.strace.reader.TraceCase`
  objects — what callers of ``read_trace_dir`` expect;
* :func:`ingest_event_frame` ships :class:`CaseColumns` — per-case
  NumPy columns plus local string pools, an order of magnitude cheaper
  to pickle than record objects. The parent re-encodes the local codes
  into shared :class:`~repro.core.frame.FramePools` in case order,
  reproducing ``EventFrame.from_cases`` bit for bit (the interning
  sequence is identical, so codes, arrays and pools all match).

``resolve_workers`` implements the auto-detection policy: ``None``
means "use the CPUs this process is allowed to run on" (capped, and
never more than one worker per file); ``1`` short-circuits to the
plain in-process loop, preserving the exact sequential behavior. If
the platform cannot provide a process pool at all (sandboxes without
semaphores are the usual culprit), the fan-out degrades to the
sequential path rather than failing ingestion.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, TypeVar

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

_T = TypeVar("_T")
_R = TypeVar("_R")


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
    count never exceeds the number of tasks. Always >= 1.
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


def _parse_one(task: "tuple[Path, TraceFileName, bool]") -> "TraceCase":
    """Worker: fully parse one trace file (runs in the child process).

    Imports locally to keep :mod:`repro.ingest` importable from the
    reader without a cycle, and so spawned children only pay for what
    they use.
    """
    from repro.strace.reader import read_trace_file

    path, name, strict = task
    return read_trace_file(path, name=name, strict=strict)


def _pool_map(fn: "Callable[[_T], _R]", tasks: "list[_T]",
              workers: int) -> "list[_R] | None":
    """Run ``fn`` over ``tasks`` on a process pool, in order.

    Returns ``None`` when the *pool itself* is unusable — creation
    denied (sandboxes without semaphores), or broken before completion
    (spawn bootstrap without a ``__main__`` guard, OOM-killed worker) —
    so callers can fall back to the sequential path. Errors raised *by*
    ``fn`` (parse failures, missing files) propagate unchanged: they
    would fail sequentially too, and must not trigger a full re-parse.
    """
    try:
        pool = ProcessPoolExecutor(max_workers=workers,
                                   mp_context=_pool_context())
    except (OSError, PermissionError, RuntimeError):
        return None
    try:
        with pool:
            # ~4 chunks per worker amortize inter-process transfer
            # without hurting load balance.
            chunksize = max(1, len(tasks) // (workers * 4))
            return list(pool.map(fn, tasks, chunksize=chunksize))
    except BrokenProcessPool:
        return None


def _map_tasks(fn: "Callable[[_T], _R]", tasks: "list[_T]",
               workers: int) -> "list[_R]":
    """The shared dispatch policy of every list-shaped ingest path.

    One task or one worker → plain in-process loop; otherwise fan out
    via :func:`_pool_map` and, if the pool cannot be used at all, fall
    back to the same in-process loop (with a warning — an ingest that
    was asked to parallelize but could not should not look like a
    performance bug).
    """
    if workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    results = _pool_map(fn, tasks, workers)
    if results is None:  # pool unavailable on this platform
        _warn_sequential_fallback(workers)
        return [fn(task) for task in tasks]
    return results


def _warn_sequential_fallback(workers: int) -> None:
    import warnings

    warnings.warn(
        f"process pool unavailable on this platform; parsing "
        f"sequentially instead of on {workers} workers",
        stacklevel=3)


def read_cases(
    found: "list[tuple[Path, TraceFileName]]",
    *,
    strict: bool = True,
    workers: int = 1,
) -> "list[TraceCase]":
    """Parse discovered trace files into cases, ``workers`` at a time.

    ``found`` is the output of
    :func:`~repro.strace.reader.discover_trace_files` (already sorted);
    the returned cases keep that order exactly, whatever the worker
    count.
    """
    _check_worker_count(workers)
    tasks = [(path, name, strict) for path, name in found]
    return _map_tasks(_parse_one, tasks, workers)


def _check_worker_count(workers: int) -> None:
    """Reject zero/negative worker counts at the API boundary.

    ``resolve_workers`` already rejects them for the ``None``-aware
    entry points; the list-shaped paths take a concrete count and
    would otherwise silently degrade 0/-1 to the sequential loop.
    """
    if workers < 1:
        raise ReproError(f"workers must be >= 1: {workers}")


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


def _parse_one_columns(
        task: "tuple[Path, TraceFileName, bool]") -> CaseColumns:
    """Worker: parse one trace file straight into columns in the
    child, so only arrays and distinct strings cross the process
    boundary — and no record object is built on the way."""
    from repro.strace.reader import read_trace_records

    path, name, strict = task
    rows, stats = read_trace_records(path, strict=strict, rows=True)
    return rows_to_columns(name, rows, stats)


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


def iter_case_columns(
    found: "list[tuple[Path, TraceFileName]]",
    *,
    strict: bool = True,
    workers: int = 1,
) -> "Iterator[CaseColumns]":
    """Stream discovered files as :class:`CaseColumns`, in order.

    With ``workers > 1`` the parse+columnarize work runs on a process
    pool with *bounded* in-flight submission (a window of ~4 tasks per
    worker): a slow consumer — the disk-bound ``.elog`` writer — stalls
    the producers instead of letting completed results pile up, so
    memory stays O(workers · case) however large the directory.

    A pool that cannot be created — or that breaks before producing
    the first result — falls back to in-process streaming; a pool that
    breaks mid-stream propagates (a partially consumed stream cannot
    be restarted without duplicating yielded cases).

    An invalid ``workers`` raises at the call, not at first ``next()``
    — hence the non-generator wrapper.
    """
    _check_worker_count(workers)
    return _iter_case_columns(found, strict=strict, workers=workers)


def _iter_case_columns(
    found: "list[tuple[Path, TraceFileName]]",
    *,
    strict: bool,
    workers: int,
) -> "Iterator[CaseColumns]":
    tasks = [(path, name, strict) for path, name in found]
    if workers <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield _parse_one_columns(task)
        return
    try:
        pool = ProcessPoolExecutor(max_workers=workers,
                                   mp_context=_pool_context())
    except (OSError, PermissionError, RuntimeError):
        _warn_sequential_fallback(workers)
        for task in tasks:
            yield _parse_one_columns(task)
        return
    yielded = False
    broke_before_first = False
    try:
        window = workers * 4
        task_iter = iter(tasks)
        pending = deque(pool.submit(_parse_one_columns, task)
                        for task in itertools.islice(task_iter, window))
        while pending:
            try:
                result = pending.popleft().result()
            except BrokenProcessPool:
                if yielded:
                    raise
                broke_before_first = True
                break
            yielded = True
            yield result
            for task in itertools.islice(task_iter, 1):
                pending.append(pool.submit(_parse_one_columns, task))
    except BaseException:
        # Consumer abandoned the stream or a parse failed: don't make
        # the error wait for every in-flight parse to finish.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    if broke_before_first:  # nothing yielded: sequential retry is safe
        _warn_sequential_fallback(workers)
        for task in tasks:
            yield _parse_one_columns(task)


def ingest_event_frame(
    directory: str | os.PathLike[str],
    *,
    cids: set[str] | None = None,
    strict: bool = True,
    recursive: bool = False,
    workers: int | None = None,
) -> "EventFrame":
    """Trace directory → :class:`EventFrame`, the fast whole-log path.

    Parse + columnarize runs per file — in process for ``workers=1``
    (or a single file), on a pool otherwise — and the frames assemble
    identically either way, because ``EventFrame.from_cases`` and this
    path share the same columnar construction.
    """
    from repro.strace.reader import discover_trace_files

    found = discover_trace_files(directory, cids=cids,
                                 recursive=recursive)
    count = resolve_workers(workers, len(found))
    tasks = [(path, name, strict) for path, name in found]
    return frame_from_case_columns(
        _map_tasks(_parse_one_columns, tasks, count))
