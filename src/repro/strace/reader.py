"""Reading trace files and directories into per-case record lists.

A *case* in the paper is "the group of events in each trace file"
(Sec. IV), identified by (cid, host, rid) from the file name. The reader
produces one :class:`TraceCase` per file: parse every line, merge
unfinished/resumed pairs, drop ERESTARTSYS records, and keep the result
sorted by start timestamp — the exact preprocessing Sec. III prescribes
before events enter the event-log formalism.

Both steps stream: :func:`read_trace_records` pipes the lazy blocks
of a :class:`~repro.ingest.streaming.TraceBlocks` straight into the
:class:`~repro.strace.resume.IncrementalMerger`, which parses each
block as it arrives, so only the current block of lines of a file is
ever in memory. :func:`read_trace_dir` reads the record form one file
at a time; the columnar form that feeds event-logs and the ``.elog``
store fans out over processes in :mod:`repro.ingest.parallel`, from
the same :func:`discover_trace_files` order.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro._util.errors import TraceParseError
from repro.ingest.streaming import TraceBlocks
from repro.strace.naming import TRACE_SUFFIX, TraceFileName, parse_trace_filename
from repro.strace.parser import ParsedRecord
from repro.strace.resume import IncrementalMerger, MergeStats


@dataclass(slots=True)
class TraceCase:
    """All parsed records of one trace file, i.e. one case.

    Attributes
    ----------
    name:
        The (cid, host, rid) identity from the file name.
    records:
        Parsed records sorted by start timestamp.
    merge_stats:
        Diagnostics from the unfinished/resumed merge pass (plus the
        reader's undecodable-byte count).
    source:
        The file the case was read from (None for synthetic cases).
    """

    name: TraceFileName
    records: list[ParsedRecord]
    merge_stats: MergeStats = field(default_factory=MergeStats)
    source: Path | None = None

    @property
    def case_id(self) -> str:
        """Paper-style label, e.g. ``a9042``."""
        return self.name.case_id

    def __len__(self) -> int:
        return len(self.records)


def read_trace_records(
    path: str | os.PathLike[str],
    *,
    strict: bool = True,
) -> tuple[list[tuple], MergeStats]:
    """Parse one trace file: its rows in start order, and the merge
    statistics (including the undecodable-byte count).

    The rows are plain ``(pid, start_us, call, fp, size, dur_us,
    errno)`` tuples, what the column builders of
    :mod:`repro.ingest.parallel` consume; :func:`read_trace_file`
    wraps them as :class:`ParsedRecord`. ``strict`` is as for
    :func:`read_trace_file`.
    """
    blocks = TraceBlocks(path, strict=strict)
    merger = IncrementalMerger(path=str(blocks.path), strict=strict)
    for lineno, text in blocks:
        merger.feed_text(text, lineno, seal=False)
    records = merger.finish()
    stats = merger.stats
    stats.decode_replacements = blocks.decode_replacements
    if stats.decode_replacements:
        warnings.warn(
            f"{blocks.path}: replaced {stats.decode_replacements} "
            f"undecodable byte(s) with U+FFFD — the trace is corrupt "
            f"or not UTF-8",
            stacklevel=3)
    return records, stats


def read_trace_file(
    path: str | os.PathLike[str],
    *,
    name: TraceFileName | None = None,
    strict: bool = True,
) -> TraceCase:
    """Read and fully parse one ``.st`` trace file, streaming.

    Parameters
    ----------
    path:
        The trace file. Its basename must follow the Fig. 1 naming
        convention unless ``name`` is supplied explicitly.
    name:
        Override the (cid, host, rid) identity (useful for files named
        outside the convention).
    strict:
        Governs both the unfinished/resumed merger (orphan *resumed*
        records raise when True) and byte-level decoding: undecodable
        bytes raise when True, and are replaced with U+FFFD, counted in
        ``merge_stats.decode_replacements`` and warned about when
        False.

    Raises
    ------
    TraceParseError
        Naming the file and the line, for any line that does not
        parse or merge.
    """
    file_path = Path(path)
    if name is None:
        name = parse_trace_filename(file_path.name)
    rows, stats = read_trace_records(file_path, strict=strict)
    return TraceCase(name=name, records=list(map(ParsedRecord._make, rows)),
                     merge_stats=stats, source=file_path)


def list_trace_files(directory: str | os.PathLike[str], *,
                     recursive: bool = False) -> list[str]:
    """The ``*.st`` files under a directory, as paths relative to it in
    POSIX form, in discovery order (sorted by path).

    A cheap listing: no name is parsed and no rule checked — that is
    :func:`discover_trace_files`, which takes a listing. The live
    follower compares consecutive listings to skip discovery while the
    directory holds the same files.

    Raises
    ------
    TraceParseError
        If the directory does not exist.
    """
    dir_path = Path(directory)
    if not dir_path.is_dir():
        raise TraceParseError(f"not a directory: {dir_path}")
    if recursive:
        return [path.relative_to(dir_path).as_posix()
                for path in sorted(dir_path.rglob(f"*{TRACE_SUFFIX}"))
                if path.suffix == TRACE_SUFFIX and path.is_file()]
    # Path.suffix's rule without a Path per entry: a name that is
    # only the suffix (".st") is a hidden file with no suffix.
    with os.scandir(dir_path) as listing:
        return sorted(entry.name for entry in listing
                      if entry.name.endswith(TRACE_SUFFIX)
                      and len(entry.name) > len(TRACE_SUFFIX)
                      and entry.is_file())


def discover_trace_files(
    directory: str | os.PathLike[str],
    *,
    cids: set[str] | None = None,
    recursive: bool = False,
    allow_empty: bool = False,
    known_cases: dict[str, Path] | None = None,
    listing: list[str] | None = None,
) -> list[tuple[Path, TraceFileName]]:
    """Find every ``*.st`` file in a directory, deterministically.

    Files are returned sorted by path, so ingestion order — and with it
    the case layout of every downstream frame — is reproducible
    regardless of filesystem enumeration order or worker scheduling.
    ``recursive=True`` descends into nested per-host subdirectories
    (e.g. ``traces/<host>/<cid>_<host>_<rid>.st``); case identity still
    comes from the basename alone, and a duplicate case id across
    subdirectories is an error rather than a silent event merge.

    The live follower (:meth:`repro.live.engine.LiveIngest.scan`)
    shares this grammar via three knobs batch callers never set:
    ``allow_empty`` makes a directory with no matching files a normal
    result (a watcher may start before traces appear), ``known_cases``
    (case id → path) extends duplicate detection across polls — a
    newly discovered file colliding with a case already followed from
    a *different* path is an error — and ``listing`` hands over the
    :func:`list_trace_files` result it already took.

    Raises
    ------
    TraceParseError
        If the directory does not exist, contains no matching trace
        files (unless ``allow_empty``), or two files map to the same
        case.
    """
    dir_path = Path(directory)
    if listing is None:
        listing = list_trace_files(dir_path, recursive=recursive)
    found: list[tuple[Path, TraceFileName]] = []
    seen: dict[str, Path] = {}
    for relpath in listing:
        entry = dir_path / relpath
        name = parse_trace_filename(entry.name)
        if cids is not None and name.cid not in cids:
            continue
        previous = seen.get(name.case_id)
        if previous is None and known_cases is not None:
            tracked = known_cases.get(name.case_id)
            if tracked is not None and tracked != entry:
                previous = tracked
        if previous is not None:
            raise TraceParseError(
                f"duplicate case {name.case_id!r}: {previous} and {entry}")
        seen[name.case_id] = entry
        found.append((entry, name))
    if not found and not allow_empty:
        raise TraceParseError(
            f"no {TRACE_SUFFIX} trace files found in {dir_path}"
            + (f" for cids {sorted(cids)}" if cids else ""))
    return found


def read_trace_dir(
    directory: str | os.PathLike[str],
    *,
    cids: set[str] | None = None,
    strict: bool = True,
    recursive: bool = False,
) -> list[TraceCase]:
    """Read every ``*.st`` file in a directory into cases, in process.

    Files are discovered in sorted order for determinism. ``cids``
    optionally restricts to a subset of command identifiers — e.g.
    ``{"a"}`` reads only the ``ls`` run of the paper's Fig. 1 example.
    ``recursive`` descends into nested subdirectories (per-host trace
    layouts).

    Raises
    ------
    TraceParseError
        If the directory contains no matching trace files, or any file
        fails to parse.
    """
    found = discover_trace_files(directory, cids=cids, recursive=recursive)
    return [read_trace_file(path, name=name, strict=strict)
            for path, name in found]
