"""Activity statistics (Sec. IV-B): Load and DR node annotations.

For every activity ``a ∈ A_f`` occurring in an event-log ``C``:

- **relative duration** ``rd_f(a, C)`` (Eq. 6-8): the summed duration of
  the events in ``f⁻¹(a)`` divided by the summed duration over *all*
  activities — "the proportion of system time spent relative to the
  other activities";
- **total bytes moved** ``b_f(a, C)`` (Eq. 9): sum of the ``size``
  attribute (only read/write variants carry one);
- **process data rate** ``dr̄_f(a, C)`` (Eq. 11-13): the arithmetic mean
  over events of the per-event rate ``size/dur`` — the average
  per-process transfer speed;
- **max concurrency** ``mc_f(a, C)`` (Eq. 14-16): the largest number of
  simultaneously in-flight events of the activity, via the sweep-line
  of :func:`repro._util.intervals.max_concurrency`;
- plus **ranks** (distinct rids — the unexplained ``Ranks:`` annotation
  of Fig. 3c), **cases**, and the raw counts.

The node labels in the paper's figures combine these as
``Load: rd (bytes)`` and ``DR: mc × rate`` (Eq. 10/17); the renderers
call :meth:`IOStatistics.load_label` / :meth:`IOStatistics.dr_label`
to produce exactly those strings.

Architecture: two roads, one assembly. Batch statistics come from a
:class:`CellTable` — per (activity, case) cell the event count, the
duration and byte sums, whether any event moved bytes, the rids, and
per activity the Eq. 13 rates and the ``start, end`` pairs — built once
per mapped frame and memoized on it. The whole log assembles from the
full table; a case-level child (a ``PartitionEL`` half) restricts its
parent's table with a mask over case codes, so a comparison reads its
events once, not three times. The live engine folds events one at a
time into per-activity :class:`ActivityAccumulator` objects
(:meth:`StatsAccumulator.feed_event`, called at seal time). Both roads
end in the same helpers — the Eq. 13 mean from exact partial sums
(:func:`_mean_rate`), the int64 sweep
(:func:`~repro._util.intervals.max_concurrency_int64`), the lazy
Eq. 15 rows and the Eq. 8 normalization (:func:`_fill`) — over the
same integers and the same per-event rates, so they produce identical
:class:`IOStatistics` down to the float bit patterns: sums are
integers, the mean is the correctly rounded exact sum whatever the
folding order, the sweep is order-free, and the per-case event order
behind the timelines is the same either way. The hypothesis
properties that feed random logs down both roads pin this. It is what
lets a live watcher render full-history statistics at O(delta) per
refresh and lets checkpoints persist statistics across process
restarts (:mod:`repro.live.checkpoint`).

Complexity of the batch pass: one group-by on the activity column —
the O(mn) of Sec. V — splits each activity's rows into one run per
case (the frame is case-major); ``np.add.reduceat`` sums each run into
its cell, and the rates, rids and interval pairs are gathered over the
activity's whole columns. Assembling the whole log or any case subset
is then O(activities) NumPy calls: per activity, sums over the
selected cells, one :func:`math.fsum` over the selected rates, one
sweep over the selected pairs and one ``np.unique`` over the selected
rids. No Python-level step runs per event or per cell, and Eq. 15
timeline rows are materialized only when asked for. On the live road,
derived per-activity scalars (max concurrency, mean rate) are cached
and recomputed only for activities that received events since the
last assembly — a touched activity re-sweeps its own interval buffers,
joined into one int64 array, an untouched one costs O(1) — and
timeline rows come lazily from the append-only per-case buffers, so
the accumulators never hold a second O(events) copy of the history.

Memory (live road). Scalar state is O(activities): the Eq. 13 mean
is folded through exact non-overlapping partial sums (Shewchuk's
algorithm, the machinery behind :func:`math.fsum`), so the mean of the
per-event rates is bit-exact — the correctly rounded true sum divided by the
count — without buffering a float per event, and independent of the
order events were folded in. The only O(events) state left is the
per-case interval buffers behind Eq. 15/16: one ``array('q')`` per
(activity, case) of interleaved ``start, end`` microseconds, 16 bytes
per interval. Passing ``window=`` caps those: a per-case buffer
exceeding the cap is coarsened by merging adjacent intervals, which
bounds watcher memory for week-long runs at the price of
*approximate* max concurrency and timelines (flagged via
:attr:`ActivityStats.approximate` and rendered with a ``~``); every
scalar statistic — counts, sums, relative duration, the mean rate —
stays exact and bit-identical to the unwindowed computation.
"""

from __future__ import annotations

import base64
import math
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator,
                    NamedTuple, Sequence)

import numpy as np

from repro._util.errors import ReproError
from repro._util.intervals import max_concurrency_int64
from repro._util.sizes import format_bytes, format_rate
from repro.core.frame import MISSING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.eventlog import EventLog
    from repro.core.frame import EventFrame


#: Every per-activity metric addressable by name through
#: :meth:`IOStatistics.metric` — the vocabulary of statistics-based
#: coloring and of the ``stat_threshold`` alerting rule
#: (:mod:`repro.alerts`). Keep in sync with the accessor below.
METRIC_NAMES: tuple[str, ...] = (
    "relative_duration",
    "total_bytes",
    "max_concurrency",
    "event_count",
    "process_data_rate",
)

#: The smallest interval window: coarsening merges adjacent pairs, so
#: a buffer of fewer than two intervals has nothing to merge into.
MIN_WINDOW = 2


@dataclass(frozen=True, slots=True)
class ActivityStats:
    """Computed statistics of one activity."""

    activity: str
    event_count: int
    total_dur_us: int
    relative_duration: float
    total_bytes: int
    has_transfers: bool
    process_data_rate: float | None  #: mean bytes/second, None w/o transfers
    max_concurrency: int
    ranks: int
    cases: int
    #: True when interval windowing coarsened this activity's history:
    #: ``max_concurrency`` (and the Eq. 15 timeline) are then computed
    #: over merged intervals — an upper bound, not the exact sweep.
    #: Scalar statistics are exact regardless.
    approximate: bool = False

    @property
    def load_label(self) -> str:
        """``Load:0.22 (14.98 KB)`` — Eq. 10 / Fig. 3 node line.

        Activities without transfer events (e.g. ``openat``) render the
        relative duration only, as in Fig. 8a.
        """
        base = f"Load:{self.relative_duration:.2f}"
        if self.has_transfers:
            return f"{base} ({format_bytes(self.total_bytes)})"
        return base

    @property
    def dr_label(self) -> str | None:
        """``DR: 2x10.15 MB/s`` — Eq. 17 / Fig. 3 node line.

        None for activities without a data rate (no transfer events).
        A windowed (coarsened) concurrency renders as ``DR: ~2x...`` —
        the rate is still exact, the multiplier is an upper bound.
        """
        if self.process_data_rate is None:
            return None
        marker = "~" if self.approximate else ""
        return (f"DR: {marker}{self.max_concurrency}x"
                f"{format_rate(self.process_data_rate)}")


def _exact_sum_step(partials: list[float], value: float) -> None:
    """Fold ``value`` into Shewchuk non-overlapping partial sums.

    The invariant: ``partials`` always sums — in *exact* real
    arithmetic — to the exact sum of every value folded so far (each
    two-float transform below is error-free). ``math.fsum(partials)``
    is therefore the correctly rounded true sum, identical no matter
    how the values were ordered or batched; that is what makes the
    Eq. 13 mean reproducible bit-for-bit across the batch, live, and
    checkpoint-restore roads while keeping O(1) state per activity.
    """
    i = 0
    for y in partials:
        if abs(value) < abs(y):
            value, y = y, value
        high = value + y
        low = y - (high - value)
        if low:
            partials[i] = low
            i += 1
        value = high
    partials[i:] = [value]


def _encode_intervals(buffer: array) -> str:
    """An interval buffer as base64 of little-endian int64 ``start,
    end`` pairs — the sidecar's ``"intervals"`` string."""
    if sys.byteorder == "big":  # pragma: no cover - little-endian hosts
        buffer = array("q", buffer)
        buffer.byteswap()
    return base64.b64encode(buffer).decode("ascii")


def _decode_intervals(text: str) -> array:
    """Inverse of :func:`_encode_intervals`."""
    buffer = array("q", base64.b64decode(text))
    if sys.byteorder == "big":  # pragma: no cover - little-endian hosts
        buffer.byteswap()
    return buffer


# -- the one assembly --------------------------------------------------------
#
# Both roads — the live accumulators and the batch cell table — end in
# the helpers below: the Eq. 13 mean from exact partials, the Eq. 16
# sweep (:func:`max_concurrency_int64`), the lazy Eq. 15 rows, and the
# Eq. 8 relative durations. That, and each road folding the same
# integers and the same per-event rates, is what keeps them equal to
# the bit.


def _mean_rate(partials: list[float], count: int) -> float | None:
    """The Eq. 13 mean of ``count`` rates; None without any.

    ``partials`` is any list of floats whose *exact* sum is the sum of
    the rates: an accumulator's Shewchuk partials, or the rates
    themselves. :func:`math.fsum` rounds that exact sum correctly, so
    every such list gives the same mean, bit for bit.
    """
    return math.fsum(partials) / count if count else None


def _timeline_rows(runs: Iterable[tuple[str, int]],
                   pairs: np.ndarray) -> list[tuple[str, int, int]]:
    """Eq. 15 rows ``(case, start, end)``: ``runs`` gives each case and
    its number of intervals, in the row order of the ``(n, 2)``
    ``start, end`` array ``pairs``."""
    owners = chain.from_iterable(repeat(case, n) for case, n in runs)
    return list(zip(owners, pairs[:, 0].tolist(), pairs[:, 1].tolist()))


class _Part(NamedTuple):
    """One activity's statistics before the Eq. 8 normalization."""

    activity: str
    event_count: int
    dur_sum: int
    bytes_sum: int
    has_transfers: bool
    mean_rate: float | None
    max_concurrency: int
    ranks: int
    cases: int
    approximate: bool
    timeline: "Callable[[], list[tuple[str, int, int]]]"


def _fill(result: "IOStatistics", parts: list[_Part]) -> "IOStatistics":
    """Store ``parts`` in ``result``, each with its Eq. 8 relative
    duration over the parts' summed duration."""
    total_dur = sum(part.dur_sum for part in parts)
    result._stats = {
        part.activity: ActivityStats(
            activity=part.activity,
            event_count=part.event_count,
            total_dur_us=part.dur_sum,
            relative_duration=(part.dur_sum / total_dur
                               if total_dur > 0 else 0.0),
            total_bytes=part.bytes_sum,
            has_transfers=part.has_transfers,
            process_data_rate=part.mean_rate,
            max_concurrency=part.max_concurrency,
            ranks=part.ranks,
            cases=part.cases,
            approximate=part.approximate,
        )
        for part in parts
    }
    result._timelines = {}
    result._lazy_timelines = {part.activity: part.timeline
                              for part in parts}
    result._total_dur_us = total_dur
    return result


class ActivityAccumulator:
    """Running statistics of one activity, updatable per event.

    Scalar statistics (counts, duration and byte sums, rank/case sets,
    the exact-sum partials behind the Eq. 13 mean) are folded
    directly. The Eq. 15 timeline, the one order-sensitive output, is
    kept *per case*: within a case, events arrive in their final
    start-timestamp order on both the batch and the live road, so
    assembling cases in a deterministic order reproduces the batch
    sequence exactly regardless of how polls interleaved the cases.
    The Eq. 16 sweep over the same buffers is order-free.

    The derived scalars (max concurrency, mean rate) are cached under
    a dirty flag: an activity untouched since the last assembly costs
    O(1) to re-render. Timelines are *not* duplicated into the cache —
    the per-case buffers stay the only O(events) state, and
    :meth:`timeline_snapshot` materializes labeled rows on demand.

    ``window`` caps each per-case interval buffer: a buffer growing
    past the cap is replaced by a coarsened copy (adjacent intervals
    merged pairwise), after which :attr:`approximate` latches True —
    the concurrency sweep and the timeline then describe merged spans.
    """

    __slots__ = ("activity", "window", "event_count", "dur_sum",
                 "bytes_sum", "has_transfers", "approximate", "rids",
                 "rate_count", "_rate_partials", "_case_timelines",
                 "_dirty", "_view")

    def __init__(self, activity: str,
                 window: int | None = None) -> None:
        self.activity = activity
        self.window = window
        self.event_count = 0
        self.dur_sum = 0
        self.bytes_sum = 0
        self.has_transfers = False
        self.approximate = False
        self.rids: set[int] = set()
        #: Events contributing to the Eq. 13 mean (size and dur > 0).
        self.rate_count = 0
        #: Exact non-overlapping partial sums of the per-event rates
        #: (:func:`_exact_sum_step`): tiny, order-independent, and
        #: ``fsum`` of it is the correctly rounded true rate sum.
        self._rate_partials: list[float] = []
        #: case id -> array('q') of interleaved ``start_us, end_us``
        #: in sealed event order: append-only, and replaced by a
        #: coarsened copy once ``window`` is exceeded.
        self._case_timelines: dict[str, array] = {}
        self._dirty = True
        self._view: tuple[int, float | None] = (0, None)

    @property
    def case_ids(self) -> set[str]:
        """Cases holding at least one event of this activity."""
        return set(self._case_timelines)

    # -- folding -----------------------------------------------------------

    def add_event(self, case_id: str, *, rid: int, start_us: int,
                  dur_us: int | None, size: int | None) -> None:
        """Fold one event (live seal-time semantics: None = absent)."""
        self.event_count += 1
        end = start_us
        if dur_us is not None:
            self.dur_sum += dur_us
            end = start_us + dur_us
            if size is not None and dur_us > 0:
                _exact_sum_step(self._rate_partials,
                                size / (dur_us / 1e6))
                self.rate_count += 1
        if size is not None:
            self.has_transfers = True
            self.bytes_sum += size
        self.rids.add(rid)
        buffer = self._case_timelines.setdefault(case_id, array("q"))
        buffer.append(start_us)
        buffer.append(end)
        if self.window is not None and len(buffer) > 2 * self.window:
            self._coarsen(case_id)
        self._dirty = True

    def _coarsen(self, case_id: str) -> None:
        """Merge adjacent intervals of a case's buffer pairwise until
        it fits the window again.

        Starts stay sorted (each merged interval keeps the earlier
        start) and every original interval lies inside some merged one,
        so the sweep over the coarse buffer can only over-count
        concurrency — windowed ``mc`` is an upper bound on the exact
        Eq. 16 value, never an under-report. The merge fills a new
        buffer that replaces the old one, which stays as it was for
        any :meth:`timeline_snapshot` holding it.
        """
        pairs = np.frombuffer(self._case_timelines[case_id],
                              dtype=np.int64).reshape(-1, 2)
        while len(pairs) > self.window:
            half = len(pairs) // 2
            merged = pairs[::2].copy()
            merged[:half, 1] = np.maximum(merged[:half, 1],
                                          pairs[1::2, 1])
            pairs = merged
        self._case_timelines[case_id] = array("q", pairs.tobytes())
        self.approximate = True

    # -- assembled view ----------------------------------------------------

    def view(self) -> tuple[int, float | None]:
        """``(max_concurrency, mean_rate)``, cached under the dirty flag.

        Neither value depends on the order of the cases — the sweep
        sorts its boundaries, the exact-sum mean is order-free — so
        only new events make it recompute.
        """
        if not self._dirty:
            return self._view
        flat = np.frombuffer(b"".join(self._case_timelines.values()),
                             dtype=np.int64)
        self._view = (max_concurrency_int64(flat.reshape(-1, 2)),
                      _mean_rate(self._rate_partials, self.rate_count))
        self._dirty = False
        return self._view

    def timeline_snapshot(self, ordered_cases: tuple[str, ...],
                          ) -> "Callable[[], list[tuple[str, int, int]]]":
        """A zero-cost handle materializing the Eq. 15 rows on demand.

        Captures ``(case, buffer, length)`` triples — the per-case
        buffers are append-only (coarsening replaces a buffer instead
        of rewriting it), so the prefix of ``length`` entries is
        immutable and the handle stays a faithful point-in-time
        snapshot even while the accumulator keeps absorbing events.
        Materialization costs O(activity events) but allocates only
        when somebody actually asks for the timeline (Fig. 5 plots);
        rendering node labels never does.
        """
        captured = [(case_id, buffer, len(buffer))
                    for case_id in ordered_cases
                    for buffer in (self._case_timelines[case_id],)]

        def materialize() -> list[tuple[str, int, int]]:
            flat = np.frombuffer(
                b"".join(buffer[:length] for _, buffer, length in captured),
                dtype=np.int64)
            return _timeline_rows(
                ((case_id, length // 2) for case_id, _, length in captured),
                flat.reshape(-1, 2))

        return materialize

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ActivityAccumulator({self.activity!r}, "
                f"{self.event_count} events, "
                f"{len(self._case_timelines)} cases)")


class StatsAccumulator:
    """Per-activity statistics folded incrementally — the engine behind
    the live :meth:`~repro.live.engine.LiveIngest.statistics`.

    Feed events through :meth:`feed_event` (one sealed record at a
    time); then :meth:`statistics` assembles an :class:`IOStatistics`,
    equal to batch :meth:`IOStatistics.compute_statistics` of the same
    events. Any split of the events over any interleaving of cases
    yields identical statistics, because all cross-case state is
    either order-free (integer sums, sets) or reassembled in the
    caller-supplied case order.

    State round-trips through :meth:`to_state` / :meth:`from_state`
    for the live checkpoint sidecar.

    ``window`` (optional, ≥ 2) bounds the per-case interval buffers:
    buffers exceeding it are coarsened and the affected activities
    report ``approximate=True`` concurrency/timelines. Scalar
    statistics — counts, sums, the Eq. 13 mean rate — are unaffected:
    they are folded exactly regardless of windowing.
    """

    def __init__(self, window: int | None = None) -> None:
        self._activities: dict[str, ActivityAccumulator] = {}
        #: ``(activity, case)`` cells fed an event since a caller last
        #: cleared this set — how the live checkpoint finds the
        #: buffers that grew since its last save without a scan.
        self.fed: set[tuple[str, str]] = set()
        self.set_window(window)

    def __len__(self) -> int:
        return len(self._activities)

    def n_buffered_intervals(self) -> int:
        """Interval entries held across all per-case buffers — the
        memory the ``window`` cap bounds, surfaced as the
        ``interval_buffer_entries`` telemetry gauge so an operator can
        watch residency against the cap instead of guessing."""
        return sum(len(buffer)
                   for acc in self._activities.values()
                   for buffer in acc._case_timelines.values()) // 2

    def n_interval_buffers(self) -> int:
        """Per-(activity, case) buffers currently held — the divisor
        an auto-window policy needs to turn a whole-accumulator byte
        budget into a per-buffer cap."""
        return sum(len(acc._case_timelines)
                   for acc in self._activities.values())

    def approx_buffer_bytes(self) -> int:
        """Footprint of the interval buffers, in bytes: exactly 16 per
        buffered interval (its two int64s), the figure the
        ``--memory-budget`` policy divides by. Each buffer's array
        header and growth slack are left out, and so are sums, sets
        and partials — they are O(buffers) and O(activities), not
        O(events)."""
        return 16 * self.n_buffered_intervals()

    def set_window(self, window: int | None) -> None:
        """Re-cap the per-case interval buffers.

        Shrinking coarsens oversized buffers immediately (same pairwise
        merge as feed-time overflow, into replacement buffers); growing
        merely relaxes the cap —
        already-coarsened history stays coarse, which is why affected
        activities keep reporting ``approximate=True``. Scalar
        statistics are untouched either way.
        """
        if window is not None and window < MIN_WINDOW:
            raise ValueError(f"window must be >= {MIN_WINDOW} "
                             f"intervals, got {window}")
        self.window = window
        for acc in self._activities.values():
            acc.window = window
            if window is None:
                continue
            for case_id, buffer in acc._case_timelines.items():
                if len(buffer) > 2 * window:
                    acc._coarsen(case_id)
                    acc._dirty = True

    def _accumulator(self, activity: str) -> ActivityAccumulator:
        acc = self._activities.get(activity)
        if acc is None:
            acc = self._activities[activity] = \
                ActivityAccumulator(activity, window=self.window)
        return acc

    # -- feeding -----------------------------------------------------------

    def feed_event(self, activity: str, case_id: str, *, rid: int,
                   start_us: int, dur_us: int | None,
                   size: int | None) -> None:
        """Fold one mapped event (the live engine's seal-time call)."""
        self._accumulator(activity).add_event(
            case_id, rid=rid, start_us=start_us, dur_us=dur_us,
            size=size)
        self.fed.add((activity, case_id))

    # -- assembly ----------------------------------------------------------

    def statistics(self, case_order: Sequence[str] | None = None,
                   ) -> "IOStatistics":
        """Assemble the folded state into an :class:`IOStatistics`.

        ``case_order`` fixes the cross-case layout of the timelines
        (batch passes the frame's case interning order; the live
        engine passes its sorted-path order — identical for a
        directory that reached its final state). ``None`` falls back
        to lexicographic case-id order, which is deterministic but
        only matches batch for flat single-directory layouts. No
        statistic depends on it.

        Cost: O(activities + events-of-touched-activities) — an
        activity that gained no events since the last assembly reuses
        its cached view.
        """
        if case_order is None:
            order_index: dict[str, int] = {}
        else:
            order_index = {case: i for i, case in enumerate(case_order)}
        parts = []
        for activity, acc in self._activities.items():
            ordered = tuple(sorted(
                acc._case_timelines,
                key=lambda c: (order_index[c], "") if c in order_index
                else (len(order_index), c)))
            mc, mean_rate = acc.view()
            parts.append(_Part(
                activity, acc.event_count, acc.dur_sum, acc.bytes_sum,
                acc.has_transfers, mean_rate, mc, len(acc.rids),
                len(acc._case_timelines), acc.approximate,
                acc.timeline_snapshot(ordered)))
        return _fill(IOStatistics(), parts)

    def event_counts(self) -> dict[str, int]:
        """Events folded per activity."""
        return {activity: acc.event_count
                for activity, acc in self._activities.items()}

    # -- checkpoint state --------------------------------------------------

    def exact_buffers(self, cells: Iterable[tuple[str, str]] | None
                      = None) -> Iterator[tuple[str, str, array]]:
        """``(activity, case, buffer)`` for every interval buffer of an
        activity never coarsened — the buffers that only ever grow at
        the end, which the live checkpoint appends to its interval
        segment instead of rewriting (:mod:`repro.live.checkpoint`).
        ``cells`` restricts them to those ``(activity, case)`` pairs,
        e.g. :attr:`fed`."""
        if cells is None:
            for activity, acc in self._activities.items():
                if not acc.approximate:
                    for case, buffer in acc._case_timelines.items():
                        yield activity, case, buffer
            return
        for activity, case in cells:
            acc = self._activities[activity]
            if not acc.approximate:
                yield activity, case, acc._case_timelines[case]

    def to_state(self, *, with_exact_buffers: bool = True) -> dict:
        """JSON-serializable state (live checkpoint sidecars).

        Floats (the exact-sum rate partials) are stored as JSON
        numbers — ``repr``-based serialization round-trips IEEE
        doubles exactly, so restored statistics stay bit-identical to
        an uninterrupted run. Each case's interval buffer is one
        base64 string of little-endian int64 ``start, end`` pairs
        (``"intervals"``). ``with_exact_buffers=False`` leaves the
        ``"cases"`` out of every activity never coarsened: the caller
        keeps those buffers (:meth:`exact_buffers`) elsewhere and hands
        them back to :meth:`from_state`.
        """
        activities = {}
        for activity, acc in sorted(self._activities.items()):
            state = activities[activity] = {
                "event_count": acc.event_count,
                "dur_sum": acc.dur_sum,
                "bytes_sum": acc.bytes_sum,
                "has_transfers": acc.has_transfers,
                "approximate": acc.approximate,
                "rids": sorted(acc.rids),
                "rate_count": acc.rate_count,
                "rate_partials": list(acc._rate_partials),
            }
            if with_exact_buffers or acc.approximate:
                state["cases"] = {
                    case: {"intervals": _encode_intervals(buffer)}
                    for case, buffer in sorted(acc._case_timelines.items())
                }
        return {"activities": activities}

    @classmethod
    def from_state(cls, state: dict, window: int | None = None, *,
                   exact_buffers: dict[str, dict[str, array]]
                   | None = None) -> "StatsAccumulator":
        """Rebuild from :meth:`to_state` output; buffers longer than
        ``window`` intervals coarsen on load. An activity saved
        without its ``"cases"`` takes its buffers from
        ``exact_buffers`` (activity -> case -> buffer)."""
        accumulator = cls(window=window)
        for activity, acc_state in state["activities"].items():
            acc = accumulator._accumulator(str(activity))
            acc.event_count = int(acc_state["event_count"])
            acc.dur_sum = int(acc_state["dur_sum"])
            acc.bytes_sum = int(acc_state["bytes_sum"])
            acc.has_transfers = bool(acc_state["has_transfers"])
            acc.approximate = bool(acc_state["approximate"])
            acc.rids = {int(r) for r in acc_state["rids"]}
            acc.rate_count = int(acc_state["rate_count"])
            acc._rate_partials = [
                float(p) for p in acc_state["rate_partials"]]
            cases = acc_state.get("cases")
            if cases is None:
                buffers = exact_buffers[activity]
            else:
                buffers = {case: _decode_intervals(case_state["intervals"])
                           for case, case_state in sorted(cases.items())}
            for case, buffer in buffers.items():
                acc._case_timelines[str(case)] = buffer
                if window is not None and len(buffer) > 2 * window:
                    acc._coarsen(str(case))
        return accumulator

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StatsAccumulator({len(self._activities)} activities, "
                f"{sum(a.event_count for a in self._activities.values())}"
                f" events)")


class _ActivityCells:
    """One activity's slice of a :class:`CellTable`.

    Per cell, in case-code order: ``cases`` (the case code),
    ``counts``, ``durs`` and ``nbytes`` (the event count and the
    duration and byte sums), ``transfers`` (any event with a size) and
    ``rate_counts`` (events with an Eq. 13 rate). Beside them, in cell
    order: every event's ``start, end`` ``pairs`` (``counts`` per
    cell), the ``rates`` (``rate_counts`` per cell), and one ``rids``
    entry per run of equal rids within a case, with its case code in
    ``rid_cases``.
    """

    __slots__ = ("name", "cases", "counts", "durs", "nbytes",
                 "transfers", "rate_counts", "rid_cases", "rids",
                 "rates", "pairs")

    _PER_CELL = ("cases", "counts", "durs", "nbytes", "transfers",
                 "rate_counts")

    def restricted(self, keep: np.ndarray | None,
                   ) -> "_ActivityCells | None":
        """The cells of the case codes ``keep`` marks (``None``: this
        slice itself), or None when it marks none of them."""
        if keep is None:
            return self
        chosen = keep[self.cases]
        if not chosen.any():
            return None
        part = _ActivityCells()
        part.name = self.name
        for name in self._PER_CELL:
            setattr(part, name, getattr(self, name)[chosen])
        kept = keep[self.rid_cases]
        part.rid_cases, part.rids = self.rid_cases[kept], self.rids[kept]
        part.rates = self.rates[np.repeat(chosen, self.rate_counts)]
        part.pairs = self.pairs[np.repeat(chosen, self.counts)]
        return part


class CellTable:
    """The Sec. IV-B statistics of a mapped frame, kept per
    (activity, case) cell, from which the statistics of the whole frame
    or of any subset of its cases are assembled.

    Built in one pass over the runs that
    :meth:`~repro.core.frame.EventFrame.groupby_activity` yields — the
    frame is case-major, so each activity's rows fall into one run per
    case, and ``np.add.reduceat`` sums each run — with no Python-level
    loop over events or cells. The table is a pure function of the
    frame, so :meth:`of` memoizes it there: a log and every case-level
    child cut from it (:attr:`~repro.core.eventlog.EventLog.case_origin`)
    share one table.

    :meth:`fill` restricts the table to a boolean mask over case codes:
    per activity, sums and ``any`` over the selected cells, one
    :func:`math.fsum` over the selected rates, one
    :func:`~repro._util.intervals.max_concurrency_int64` sweep over the
    selected pairs and ``np.unique`` over the selected rids —
    O(activities) NumPy calls. Restriction commutes with selection:
    the statistics of a case subset equal those of a fresh table over
    just those cases, bit for bit, because every sum is an integer,
    the rate sum is correctly rounded and the sweep is order-free.
    """

    def __init__(self, frame: "EventFrame") -> None:
        self._case_pool = frame.pools.cases
        activities = frame.pools.activities
        dur = frame.column("dur")
        size = frame.column("size")
        start = frame.column("start")
        rid = frame.column("rid")
        case = frame.column("case")
        self._activities: list[_ActivityCells] = []
        for code, rows in frame.groupby_activity():
            cases = case[rows]
            durs = dur[rows]
            sizes = size[rows]
            rids = rid[rows]
            head = np.empty(len(rows), dtype=bool)
            head[0] = True
            np.not_equal(cases[1:], cases[:-1], out=head[1:])
            heads = np.flatnonzero(head)
            timed = durs != MISSING
            transfer = sizes != MISSING
            spent = np.where(timed, durs, 0)
            rated = transfer & timed & (durs > 0)
            cells = _ActivityCells()
            cells.name = activities.decode(code)
            cells.cases = cases[heads]
            cells.counts = np.diff(heads, append=len(rows))
            cells.durs = np.add.reduceat(spent, heads)
            cells.nbytes = np.add.reduceat(np.where(transfer, sizes, 0),
                                           heads)
            cells.transfers = np.logical_or.reduceat(transfer, heads)
            cells.rate_counts = np.add.reduceat(rated, heads)
            head[1:] |= rids[1:] != rids[:-1]
            cells.rid_cases = cases[head]
            cells.rids = rids[head]
            cells.rates = sizes[rated] / (durs[rated] / 1e6)
            starts = start[rows]
            cells.pairs = np.stack((starts, starts + spent), axis=1)
            self._activities.append(cells)

    @classmethod
    def of(cls, frame: "EventFrame") -> "CellTable":
        """The table of ``frame``, built on first use and kept on it."""
        return frame.memoized("cell_table", cls)

    def fill(self, result: "IOStatistics",
             keep: np.ndarray | None = None) -> "IOStatistics":
        """Assemble into ``result`` the statistics of the cases whose
        codes ``keep`` marks (``None``: every case). Timelines list the
        cases in case-code order — the frame's interning order."""
        parts = []
        for cells in self._activities:
            part = cells.restricted(keep)
            if part is None:
                continue
            parts.append(_Part(
                part.name, len(part.pairs), int(part.durs.sum()),
                int(part.nbytes.sum()), bool(part.transfers.any()),
                _mean_rate(part.rates.tolist(), len(part.rates)),
                max_concurrency_int64(part.pairs),
                len(np.unique(part.rids)), len(part.cases), False,
                self._timeline(cells, keep)))
        return _fill(result, parts)

    def _timeline(self, cells: _ActivityCells, keep: np.ndarray | None,
                  ) -> "Callable[[], list[tuple[str, int, int]]]":
        """Lazy Eq. 15 rows of ``cells`` restricted to ``keep``; the
        handle holds the case mask, not a copy of the intervals."""
        decode = self._case_pool.decode

        def materialize() -> list[tuple[str, int, int]]:
            part = cells.restricted(keep)
            return _timeline_rows(
                zip(map(decode, part.cases.tolist()),
                    part.counts.tolist()), part.pairs)

        return materialize


class IOStatistics:
    """Per-activity statistics over an event-log (paper Fig. 6, step 4).

    Usage mirrors the paper's listing::

        stats = IOStatistics()
        stats.compute_statistics(event_log)

    or the one-step form ``IOStatistics(event_log)``. Instances are
    point-in-time results; the live subsystem assembles them from a
    standing :class:`StatsAccumulator` instead of recomputing.
    """

    def __init__(self, event_log: "EventLog | None" = None) -> None:
        self._stats: dict[str, ActivityStats] = {}
        #: Materialized Eq. 15 rows, filled on first access per
        #: activity from the snapshot handles below.
        self._timelines: dict[str, list[tuple[str, int, int]]] = {}
        self._lazy_timelines: dict[
            str, Callable[[], list[tuple[str, int, int]]]] = {}
        self._total_dur_us = 0
        if event_log is not None:
            self.compute_statistics(event_log)

    # -- computation ---------------------------------------------------------

    def compute_statistics(self, event_log: "EventLog") -> "IOStatistics":
        """Compute all statistics; replaces any previous results.

        Assembled from the :class:`CellTable` of the log's frame — or,
        for a case-level child such as a ``PartitionEL`` half, from the
        parent frame's table restricted to the child's cases (see
        :attr:`~repro.core.eventlog.EventLog.case_origin`), so the
        halves of a comparison cost no second pass over their events.
        """
        event_log._require_mapping()
        frame, keep = event_log.case_origin
        return CellTable.of(frame).fill(self, keep)

    # -- access -------------------------------------------------------------------

    def activities(self) -> list[str]:
        """Activities with computed statistics, sorted by descending
        relative duration (the paper's notion of importance)."""
        return sorted(self._stats,
                      key=lambda a: (-self._stats[a].relative_duration, a))

    def __getitem__(self, activity: str) -> ActivityStats:
        try:
            return self._stats[activity]
        except KeyError:
            raise ReproError(
                f"no statistics for activity {activity!r}; "
                f"known: {sorted(self._stats)[:5]}...") from None

    def __contains__(self, activity: str) -> bool:
        return activity in self._stats

    def __len__(self) -> int:
        return len(self._stats)

    def get(self, activity: str) -> ActivityStats | None:
        """Stats for the activity or None (sentinel nodes have none)."""
        return self._stats.get(activity)

    @property
    def total_duration_us(self) -> int:
        """Denominator of Eq. 8: Σ_a Σ_{e ∈ f⁻¹(a)} dur(e)."""
        return self._total_dur_us

    def timeline(self, activity: str) -> list[tuple[str, int, int]]:
        """The t_f(a, C) list (Eq. 15) as (case_id, start_us, end_us).

        This is the input to the Fig. 5 timeline plot. Rows are
        materialized from the accumulator snapshot on first access —
        node-label rendering never pays for them.
        """
        rows = self._timelines.get(activity)
        if rows is None:
            snapshot = self._lazy_timelines.get(activity)
            if snapshot is None:
                raise ReproError(
                    f"no timeline for activity {activity!r}")
            rows = self._timelines[activity] = snapshot()
        return list(rows)

    def metric(self, activity: str, name: str) -> float:
        """Numeric metric accessor used by statistics-based coloring."""
        stats = self[activity]
        if name == "relative_duration":
            return stats.relative_duration
        if name == "total_bytes":
            return float(stats.total_bytes)
        if name == "max_concurrency":
            return float(stats.max_concurrency)
        if name == "event_count":
            return float(stats.event_count)
        if name == "process_data_rate":
            # A 0.0 rate is a real measurement (a zero-byte transfer
            # with positive duration), distinct from "no transfers".
            return (0.0 if stats.process_data_rate is None
                    else stats.process_data_rate)
        raise ReproError(
            f"unknown metric {name!r} (known: {', '.join(METRIC_NAMES)})")

    def as_rows(self) -> list[dict]:
        """All stats as dict rows (report/CSV export)."""
        return [
            {
                "activity": s.activity,
                "events": s.event_count,
                "total_dur_us": s.total_dur_us,
                "relative_duration": s.relative_duration,
                "total_bytes": s.total_bytes,
                "process_data_rate": s.process_data_rate,
                "max_concurrency": s.max_concurrency,
                "ranks": s.ranks,
                "cases": s.cases,
            }
            for s in (self._stats[a] for a in self.activities())
        ]
