"""Event-logs: sets of cases, with the paper's query interface (Sec. IV).

An :class:`EventLog` wraps a columnar :class:`~repro.core.frame.EventFrame`
holding every event of every case under consideration, and carries the
currently applied mapping. The interface mirrors the paper's Fig. 6
listing:

>>> event_log = EventLog.from_source("strace:traces/")  # doctest: +SKIP
>>> event_log.apply_fp_filter('/usr/lib')             # doctest: +SKIP
>>> event_log.apply_mapping_fn(f)                     # doctest: +SKIP

``apply_fp_filter`` / ``apply_mapping_fn`` mutate in place (returning
``self`` for chaining) exactly as the listing implies; the functional
variants :meth:`EventLog.filtered_fp` / :meth:`EventLog.with_mapping`
return new logs and are what the rest of the library uses internally.

The filter step is "a query ... applied to an event-log" (Sec. IV): it
restricts which events participate, while case identity (cid, host,
rid) is preserved so traces stay aligned to cases.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from repro._util.errors import MappingError, ReproError
from repro.core.event import Event
from repro.core.frame import MISSING, EventFrame, FramePools
from repro.core.mapping import Mapping, mapping_from_callable


class EventLog:
    """A set of cases ``C = {c1, ..., cn}`` (Eq. 3) over one frame."""

    def __init__(self, frame: EventFrame,
                 mapping: Mapping | None = None) -> None:
        self._frame = frame.sorted_within_cases()
        self._mapping = mapping

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_source(cls, source, *, cids: set[str] | None = None,
                    strict: bool = True, recursive: bool = False,
                    workers: int | None = None) -> "EventLog":
        """Load from any trace source — the one constructor.

        ``source`` is a ready :class:`~repro.sources.TraceSource`, or a
        spec string resolved by :func:`~repro.sources.open_source`:
        ``"strace:traces/"``, ``"elog:run.elog"``, ``"csv:log.csv"``,
        ``"sim:ior?ranks=4"``, or a bare path (autodetected). The
        keyword options are the common ingest knobs; sources that
        cannot honor a requested one warn
        (:class:`~repro.sources.UnsupportedSourceOptionWarning`) —
        e.g. ``workers`` only parallelizes directory parsing. A ready
        source already carries its own options, so combining one with
        these keywords raises instead of silently dropping them.

        >>> log = EventLog.from_source("sim:ls")
        >>> log.n_cases, log.n_events
        (6, 75)
        >>> log.cids()
        ['a', 'b']
        """
        from repro.sources.registry import resolve_source

        return resolve_source(source, cids=cids, strict=strict,
                              recursive=recursive,
                              workers=workers).event_log()

    @classmethod
    def from_cases(cls, cases, pools: FramePools | None = None) -> "EventLog":
        """Build from already-parsed :class:`TraceCase` objects."""
        return cls(EventFrame.from_cases(cases, pools=pools))

    # -- shape / access ---------------------------------------------------------

    @property
    def frame(self) -> EventFrame:
        """The underlying columnar frame (shared, do not mutate)."""
        return self._frame

    @property
    def mapping(self) -> Mapping | None:
        """The applied mapping f, or None before ``apply_mapping_fn``."""
        return self._mapping

    @property
    def n_events(self) -> int:
        return len(self._frame)

    @property
    def n_cases(self) -> int:
        return len(self.case_ids())

    def case_ids(self) -> list[str]:
        """Sorted case labels present in the log (e.g. ``['a9042', ...]``)."""
        codes = np.unique(self._frame.column("case"))
        pool = self._frame.pools.cases
        return sorted(pool.decode(int(c)) for c in codes)

    def cids(self) -> list[str]:
        """Sorted distinct command identifiers in the log."""
        codes = np.unique(self._frame.column("cid"))
        pool = self._frame.pools.cids
        return sorted(pool.decode(int(c)) for c in codes)

    def hosts(self) -> list[str]:
        """Sorted distinct host names in the log."""
        codes = np.unique(self._frame.column("host"))
        pool = self._frame.pools.hosts
        return sorted(pool.decode(int(c)) for c in codes)

    def events(self) -> Iterator[Event]:
        """Iterate all events (case-major, start-time order)."""
        return self._frame.iter_events()

    def iter_cases(self) -> Iterator[tuple[str, EventFrame]]:
        """Yield ``(case_id, frame-of-that-case)`` in sorted case order."""
        pool = self._frame.pools.cases
        slices = sorted(self._frame.case_slices(),
                        key=lambda ci: pool.decode(ci[0]))
        for code, rows in slices:
            yield pool.decode(int(code)), self._frame.select(rows)

    # -- the paper's mutating API (Fig. 6) ------------------------------------------

    def apply_fp_filter(self, substring: str) -> "EventLog":
        """Keep only events whose file path contains ``substring``.

        Mutates this log (paper semantics); returns self for chaining.
        """
        self._frame = self._frame.select(self._frame.fp_contains(substring))
        if self._mapping is not None:
            # Codes survive selection; nothing to recompute.
            pass
        return self

    def apply_mapping_fn(self, fn: Mapping | Callable[[Event], str | None],
                         name: str | None = None) -> "EventLog":
        """Apply a mapping f : E ⇀ A_f, adding the activity column.

        Accepts a :class:`Mapping` or a bare callable (the paper's
        listing passes ``def f(event): ...``). Mutates; returns self.
        """
        mapping = mapping_from_callable(fn, name)
        self._frame = _apply_mapping(self._frame, mapping)
        self._mapping = mapping
        return self

    # -- functional variants -----------------------------------------------------------

    def filtered_fp(self, substring: str) -> "EventLog":
        """Non-mutating :meth:`apply_fp_filter`."""
        frame = self._frame.select(self._frame.fp_contains(substring))
        return EventLog(frame, self._mapping)

    def filtered(self, mask: np.ndarray) -> "EventLog":
        """New log with a boolean row mask applied to the frame."""
        if mask.dtype != bool or len(mask) != len(self._frame):
            raise ReproError("mask must be a boolean array over all rows")
        return EventLog(self._frame.select(mask), self._mapping)

    def filtered_calls(self, names: Iterable[str]) -> "EventLog":
        """New log keeping only the given syscall names."""
        return self.filtered(self._frame.call_in(names))

    def filtered_cids(self, cids: Iterable[str]) -> "EventLog":
        """New log keeping only events of the given command identifiers."""
        return self.filtered(self._frame.cid_in(cids))

    def with_mapping(self, fn: Mapping | Callable[[Event], str | None],
                     name: str | None = None) -> "EventLog":
        """Non-mutating :meth:`apply_mapping_fn`."""
        mapping = mapping_from_callable(fn, name)
        return EventLog(_apply_mapping(self._frame, mapping), mapping)

    # -- clock utilities --------------------------------------------------------------------

    def with_shifted_host_clocks(
            self, offsets_us: dict[str, int]) -> "EventLog":
        """New log with per-host constant clock offsets applied.

        The paper notes that unsynchronized clocks leave the DFG and
        all statistics except max-concurrency untouched (Sec. IV-B);
        this utility lets users *explore* that sensitivity — apply
        candidate skews and watch which mc values move. Hosts not in
        the mapping keep their clocks.
        """
        frame = self._frame
        pool = frame.pools.hosts
        starts = frame.column("start").copy()
        host_col = frame.column("host")
        for host, offset in offsets_us.items():
            code = pool.lookup(host)
            if code is None:
                continue
            starts[host_col == code] += offset
        columns = {name: frame.column(name) for name in
                   ("case", "cid", "host", "rid", "pid", "call",
                    "dur", "fp", "size", "activity")}
        columns["start"] = starts
        shifted = EventFrame(frame.pools, columns)
        return EventLog(shifted, self._mapping)

    # -- algebra --------------------------------------------------------------------------

    def union(self, other: "EventLog") -> "EventLog":
        """The union of two event-logs (Eq. 3: ``Cx = Ca ∪ Cb``).

        Case sets must be disjoint — an event-log is a *set* of cases,
        and the same case appearing twice would duplicate events.
        The mapping, if any, must agree (identical object) and is
        re-applied on the merged frame.
        """
        overlap = set(self.case_ids()) & set(other.case_ids())
        if overlap:
            raise ReproError(
                f"union of event-logs with overlapping cases: "
                f"{sorted(overlap)[:5]}")
        other_frame = other._frame
        if other_frame.pools is not self._frame.pools:
            other_frame = other_frame.reencoded(self._frame.pools)
        merged = EventFrame.concat([self._frame, other_frame])
        mapping = None
        if self._mapping is not None and self._mapping is other._mapping:
            mapping = self._mapping
        log = EventLog(merged, None)
        if mapping is not None:
            log.apply_mapping_fn(mapping)
        return log

    def __or__(self, other: "EventLog") -> "EventLog":
        return self.union(other)

    # -- reverse mapping -----------------------------------------------------------------

    def activity_code(self, activity: str) -> int | None:
        """Pool code of an activity name (None if never produced)."""
        return self._frame.pools.activities.lookup(activity)

    def events_of_activity(self, activity: str) -> EventFrame:
        """The sub-frame f⁻¹(a): all events mapped to ``activity``.

        Requires a mapping to have been applied.
        """
        self._require_mapping()
        code = self.activity_code(activity)
        if code is None:
            return self._frame.select(np.zeros(len(self._frame), dtype=bool))
        return self._frame.select(self._frame.column("activity") == code)

    def activities(self) -> list[str]:
        """Sorted distinct activities produced by the applied mapping."""
        self._require_mapping()
        codes = np.unique(self._frame.column("activity"))
        pool = self._frame.pools.activities
        return sorted(pool.decode(int(c)) for c in codes if c != MISSING)

    def _require_mapping(self) -> None:
        if self._mapping is None:
            raise MappingError(
                "no mapping applied; call apply_mapping_fn first")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mapped = (f", mapping={self._mapping.name!r}"
                  if self._mapping else "")
        return (f"EventLog({self.n_events} events, "
                f"{self.n_cases} cases{mapped})")


def _apply_mapping(frame: EventFrame, mapping: Mapping) -> EventFrame:
    """Compute activity codes for every row of ``frame``.

    Mappings that depend only on (call, fp) are evaluated once per
    distinct pair and broadcast with vectorized indexing; the general
    case falls back to the O(n) row-wise loop of the paper's Fig. 6
    (step 2b), which "is scalable as it is applied independently to
    each row".
    """
    pools = frame.pools
    n = len(frame)
    if n == 0:
        return frame.with_activity_codes(np.empty(0, dtype=np.int32))
    if mapping.uses_only_call_fp:
        call_codes = frame.column("call").astype(np.int64)
        fp_codes = frame.column("fp").astype(np.int64)
        stride = len(pools.paths) + 1
        keys = call_codes * stride + (fp_codes + 1)
        uniq, inverse = np.unique(keys, return_inverse=True)
        per_key = np.empty(len(uniq), dtype=np.int32)
        for i, key in enumerate(uniq):
            call = pools.calls.decode(int(key // stride))
            fp_code = int(key % stride) - 1
            fp = None if fp_code == MISSING else pools.paths.decode(fp_code)
            activity = mapping.map_call_fp(call, fp)
            per_key[i] = (MISSING if activity is None
                          else pools.activities.intern(activity))
        return frame.with_activity_codes(per_key[inverse])
    codes = np.empty(n, dtype=np.int32)
    for row, event in enumerate(frame.iter_events()):
        activity = mapping.map_event(event)
        codes[row] = (MISSING if activity is None
                      else pools.activities.intern(activity))
    return frame.with_activity_codes(codes)
