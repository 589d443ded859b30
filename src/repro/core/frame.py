"""Columnar event storage on NumPy arrays.

The paper's reference implementation concatenates per-case tables into a
pandas ``DataFrame`` with one row per event (Fig. 6, step 1). pandas is
not among our substrate dependencies, so :class:`EventFrame` provides
the slice of DataFrame behaviour the methodology needs — column arrays,
boolean-mask selection, vectorized substring filtering, stable sorting,
group-by — implemented directly on NumPy per the HPC-Python guide
(vectorize; views, not copies; single-pass algorithms).

Design notes
------------
* String-valued columns (*call*, *fp*, *case*, *cid*, *host*, and the
  derived *activity*) are dictionary-encoded: the column stores ``int32``
  codes into shared :class:`~repro._util.strings.StringPool` instances.
  Substring filters — the paper's ``apply_fp_filter('/usr/lib')`` — are
  evaluated once per *distinct* string on the pool, then applied to the
  column with a vectorized ``isin`` (O(distinct · |s| + n) instead of
  O(n · |s|)).
* Missing values use sentinels: ``-1`` for missing codes, durations and
  sizes. The paper's events always carry start/dur; fp and size are
  optional (Sec. III).
* Selection (:meth:`EventFrame.select`) produces a new frame whose
  columns are fancy-indexed copies but whose pools are *shared*, so code
  semantics survive filtering and concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TypeVar

import numpy as np

from repro._util.errors import ReproError
from repro._util.strings import StringPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.event import Event
    from repro.strace.reader import TraceCase

#: Missing-value sentinel for code/size/duration columns.
MISSING = -1

_T = TypeVar("_T")

#: Column names in canonical order (mirrors Eq. 1 plus the derived
#: *case* and *activity* columns of the paper's Fig. 6 DataFrame).
COLUMN_ORDER = (
    "case", "cid", "host", "rid", "pid",
    "call", "start", "dur", "fp", "size", "activity",
)

_CODE_COLUMNS = frozenset({"case", "cid", "host", "call", "fp", "activity"})
_INT_COLUMNS = frozenset({"rid", "pid", "start", "dur", "size"})


@dataclass
class FramePools:
    """The shared dictionaries backing string-valued columns."""

    cases: StringPool = field(default_factory=StringPool)
    cids: StringPool = field(default_factory=StringPool)
    hosts: StringPool = field(default_factory=StringPool)
    calls: StringPool = field(default_factory=StringPool)
    paths: StringPool = field(default_factory=StringPool)
    activities: StringPool = field(default_factory=StringPool)

    def pool_for(self, column: str) -> StringPool:
        """The pool encoding a given code column."""
        try:
            return {
                "case": self.cases,
                "cid": self.cids,
                "host": self.hosts,
                "call": self.calls,
                "fp": self.paths,
                "activity": self.activities,
            }[column]
        except KeyError:
            raise ReproError(f"{column!r} is not a string column") from None


class EventFrame:
    """A columnar table of events; the library's DataFrame substitute."""

    __slots__ = ("pools", "_columns", "_memo")

    def __init__(self, pools: FramePools,
                 columns: dict[str, np.ndarray]) -> None:
        missing = set(COLUMN_ORDER) - set(columns)
        if missing:
            raise ReproError(f"missing columns: {sorted(missing)}")
        lengths = {name: len(col) for name, col in columns.items()}
        if len(set(lengths.values())) > 1:
            raise ReproError(f"ragged columns: {lengths}")
        self.pools = pools
        self._columns = columns
        self._memo: dict[str, object] = {}

    def memoized(self, key: str, build: "Callable[[EventFrame], _T]") -> _T:
        """``build(self)``, computed once per frame and cached.

        A frame never changes after construction (every transformation
        returns a new frame), so any pure function of its columns may
        be kept on it — e.g. the statistics cell table, which a log and
        every case-level child of it restrict instead of rebuilding.
        """
        try:
            return self._memo[key]  # type: ignore[return-value]
        except KeyError:
            value = self._memo[key] = build(self)
            return value

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls, pools: FramePools | None = None) -> "EventFrame":
        """A zero-row frame (optionally sharing existing pools)."""
        pools = pools or FramePools()
        columns = {
            name: np.empty(
                0, dtype=np.int32 if name in _CODE_COLUMNS else np.int64)
            for name in COLUMN_ORDER
        }
        return cls(pools, columns)

    @classmethod
    def from_cases(cls, cases: "Iterable[TraceCase]",
                   pools: FramePools | None = None) -> "EventFrame":
        """Build a frame from parsed strace cases (reader output).

        Events inherit cid/host/rid from the trace-file name and keep
        per-record pid/call/start/dur/fp/size. Records within each case
        arrive already sorted by start timestamp (reader guarantee);
        cases are laid out contiguously.

        Implemented as columnarize-then-assemble on the parallel-ingest
        wire format (:mod:`repro.ingest.parallel`), so the sequential
        and fanned-out paths share one interning sequence by
        construction.
        """
        from repro.ingest.parallel import (
            case_to_columns,
            frame_from_case_columns,
        )

        return frame_from_case_columns(
            [case_to_columns(case) for case in cases], pools)

    # -- basic shape ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns["start"])

    @property
    def n_events(self) -> int:
        """Number of events (rows)."""
        return len(self)

    def column(self, name: str) -> np.ndarray:
        """Raw column array (codes for string columns). Do not mutate."""
        try:
            return self._columns[name]
        except KeyError:
            raise ReproError(f"unknown column {name!r}") from None

    def decoded(self, name: str) -> list[str | None]:
        """String column decoded through its pool (None for MISSING)."""
        codes = self.column(name)
        pool = self.pools.pool_for(name)
        return [None if c == MISSING else pool.decode(int(c)) for c in codes]

    # -- selection ------------------------------------------------------------

    def select(self, mask_or_index: np.ndarray) -> "EventFrame":
        """New frame with the masked/indexed rows; pools are shared."""
        columns = {name: col[mask_or_index]
                   for name, col in self._columns.items()}
        return EventFrame(self.pools, columns)

    def fp_contains(self, substring: str) -> np.ndarray:
        """Boolean mask: events whose file path contains ``substring``.

        This is the engine behind the paper's ``apply_fp_filter``.
        Events without a path never match.
        """
        matching = self.pools.paths.codes_containing(substring)
        return np.isin(self._columns["fp"], matching)

    def fp_matches(self, predicate: Callable[[str], bool]) -> np.ndarray:
        """Boolean mask from an arbitrary path predicate (pool-level)."""
        matching = self.pools.paths.codes_matching(predicate)
        return np.isin(self._columns["fp"], matching)

    def call_in(self, names: Iterable[str]) -> np.ndarray:
        """Boolean mask: events whose syscall is one of ``names``."""
        codes = [self.pools.calls.lookup(n) for n in names]
        wanted = np.array([c for c in codes if c is not None],
                          dtype=np.int32)
        return np.isin(self._columns["call"], wanted)

    def cid_in(self, cids: Iterable[str]) -> np.ndarray:
        """Boolean mask: events belonging to one of the given cids."""
        codes = [self.pools.cids.lookup(c) for c in cids]
        wanted = np.array([c for c in codes if c is not None],
                          dtype=np.int32)
        return np.isin(self._columns["cid"], wanted)

    def time_window(self, start_us: int, end_us: int) -> np.ndarray:
        """Boolean mask: events starting within [start_us, end_us)."""
        starts = self._columns["start"]
        return (starts >= start_us) & (starts < end_us)

    # -- ordering / grouping ---------------------------------------------------

    def sorted_within_cases(self) -> "EventFrame":
        """Stable-sort rows by (case, start): the paper's case order.

        A frame already in that order — case codes never decreasing,
        starts never decreasing within a case — is returned as is,
        after one O(n) check: the stable sort would be the identity
        permutation. Frames read from an ``.elog`` or ingested from
        strace, and every case-level child of a sorted log, arrive
        sorted.
        """
        case = self._columns["case"]
        start = self._columns["start"]
        later_case = case[1:] > case[:-1]
        same_case = case[1:] == case[:-1]
        if (later_case | (same_case & (start[1:] >= start[:-1]))).all():
            return self
        return self.select(np.lexsort((start, case)))

    def case_slices(self) -> list[tuple[int, np.ndarray]]:
        """Group rows by case: list of (case_code, row_indices).

        Row indices within each group preserve frame order (stable),
        which after :meth:`sorted_within_cases` is start-time order —
        the event order that defines a case (Eq. 2).
        """
        case_codes = self._columns["case"]
        if len(case_codes) == 0:
            return []
        order = np.argsort(case_codes, kind="stable")
        sorted_codes = case_codes[order]
        boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
        groups = np.split(order, boundaries)
        return [(int(case_codes[g[0]]), g) for g in groups]

    def groupby_activity(self) -> list[tuple[int, np.ndarray]]:
        """Group rows by activity code, excluding unmapped rows.

        This powers the O(mn) statistics pass of Sec. V: one stable sort
        followed by boundary splitting.
        """
        activity = self._columns["activity"]
        mapped = np.flatnonzero(activity != MISSING)
        if mapped.size == 0:
            return []
        order = mapped[np.argsort(activity[mapped], kind="stable")]
        sorted_codes = activity[order]
        boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
        groups = np.split(order, boundaries)
        return [(int(activity[g[0]]), g) for g in groups]

    # -- concatenation -----------------------------------------------------------

    @classmethod
    def concat(cls, frames: "list[EventFrame]") -> "EventFrame":
        """Concatenate frames sharing the same pools object.

        Frames built against different pools must be re-encoded first
        (:meth:`reencoded`); requiring shared pools keeps concatenation
        O(n) with no string work.
        """
        if not frames:
            return cls.empty()
        pools = frames[0].pools
        for frame in frames[1:]:
            if frame.pools is not pools:
                raise ReproError(
                    "cannot concat frames with different pools; "
                    "use reencoded() first")
        columns = {
            name: np.concatenate([f._columns[name] for f in frames])
            for name in COLUMN_ORDER
        }
        return cls(pools, columns)

    def reencoded(self, pools: FramePools) -> "EventFrame":
        """Copy of this frame re-encoded against another pools object."""
        columns = dict(self._columns)
        for name in _CODE_COLUMNS:
            src_pool = self.pools.pool_for(name)
            dst_pool = pools.pool_for(name)
            old_codes = self._columns[name]
            # Build translation table once per distinct code.
            table = np.full(len(src_pool) + 1, MISSING, dtype=np.int32)
            for code in np.unique(old_codes):
                if code == MISSING:
                    continue
                table[code] = dst_pool.intern(src_pool.decode(int(code)))
            new_codes = np.where(
                old_codes == MISSING, np.int32(MISSING), table[old_codes])
            columns[name] = new_codes.astype(np.int32)
        return EventFrame(pools, columns)

    # -- activity column ------------------------------------------------------------

    def with_activity_codes(self, codes: np.ndarray) -> "EventFrame":
        """New frame with the given activity codes (same pools)."""
        if len(codes) != len(self):
            raise ReproError(
                f"activity codes length {len(codes)} != rows {len(self)}")
        columns = dict(self._columns)
        columns["activity"] = codes.astype(np.int32)
        return EventFrame(self.pools, columns)

    # -- row access --------------------------------------------------------------------

    def event(self, row: int) -> "Event":
        """Materialize one row as an :class:`~repro.core.event.Event`."""
        from repro.core.event import Event

        def _decode(col: str) -> str | None:
            code = int(self._columns[col][row])
            if code == MISSING:
                return None
            return self.pools.pool_for(col).decode(code)

        dur = int(self._columns["dur"][row])
        size = int(self._columns["size"][row])
        return Event(
            cid=_decode("cid") or "",
            host=_decode("host") or "",
            rid=int(self._columns["rid"][row]),
            pid=int(self._columns["pid"][row]),
            call=_decode("call") or "",
            start=int(self._columns["start"][row]),
            dur=dur if dur != MISSING else None,
            fp=_decode("fp"),
            size=size if size != MISSING else None,
        )

    def iter_events(self) -> "Iterator[Event]":
        """Iterate rows as :class:`Event` objects (used by mappings)."""
        for row in range(len(self)):
            yield self.event(row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EventFrame({len(self)} events, "
                f"{len(self.pools.cases)} cases, "
                f"{len(self.pools.paths)} paths)")
