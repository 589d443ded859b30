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
  of Fig. 3c, see DESIGN.md §6), **cases**, and the raw counts.

The node labels in the paper's figures combine these as
``Load: rd (bytes)`` and ``DR: mc × rate`` (Eq. 10/17); the renderers
call :meth:`IOStatistics.load_label` / :meth:`IOStatistics.dr_label`
to produce exactly those strings.

Architecture: all statistics are folded through per-activity
:class:`ActivityAccumulator` objects managed by a
:class:`StatsAccumulator`. The accumulators absorb events one at a
time (:meth:`StatsAccumulator.feed_event` — what the live engine calls
at seal time) or a whole columnar frame at once
(:meth:`StatsAccumulator.feed_frame` — the vectorized batch pass), and
both roads produce *identical* :class:`IOStatistics` down to the float
bit patterns: sums are integers, the Eq. 13 mean comes from exact
partial sums (below) that no folding order can change, the sweep is
order-free, and the per-case event order behind the Eq. 15 timelines
is the same either way. This is what lets a live watcher render
full-history statistics at O(delta) per refresh and lets checkpoints
persist statistics across process restarts
(:mod:`repro.live.checkpoint`).

Complexity of the batch pass: one group-by on the activity column —
the O(mn) of Sec. V — then one :meth:`ActivityAccumulator.add_rows`
per activity. Counts, sums, rank sets and the rate fold (a few
C-level :func:`math.fsum` rounds, :func:`_exact_sum_extend`) run over
the activity's whole columns, and the intervals reach the per-case
buffers as one ``frombytes`` copy per activity-case run of the
interleaved ``start, end`` column. Python-level steps are
O(activities + activity-case runs), none per event, and no Python
object is built per event. Derived per-activity scalars (max
concurrency, mean rate) are cached and recomputed only for activities
that received events since the last assembly — a touched activity
re-sweeps its own interval buffers, joined into one int64 array, an
untouched one costs O(1) — and Eq. 15 timeline rows are materialized
lazily from the append-only per-case buffers, so the accumulators
never hold a second O(events) copy of the history.

Memory. Scalar state is O(activities): the Eq. 13 mean is folded
through exact non-overlapping partial sums (Shewchuk's algorithm, the
machinery behind :func:`math.fsum`), so the mean of the per-event
rates is bit-exact — the correctly rounded true sum divided by the
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
from itertools import chain
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro._util.errors import ReproError
from repro._util.intervals import max_concurrency
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


def _exact_sum_extend(partials: list[float], values: list[float]) -> None:
    """Fold many values into exact partial sums with C-level rounds.

    Batch counterpart of :func:`_exact_sum_step`, same invariant: each
    :func:`math.fsum` round takes the correctly rounded remainder of
    everything folded so far minus the rounds already peeled off, and
    keeps it as a partial. A sum of doubles is a multiple of the
    smallest subnormal, so a remainder that rounds to 0 *is* 0: the
    partials then sum exactly to the true total. Each round shrinks
    the remainder by ~2**-53, so a handful of O(n) rounds suffice.
    ``values`` must be finite, as every Eq. 13 rate is.
    """
    terms = partials + values
    rounds: list[float] = []
    while head := math.fsum(terms):
        rounds.append(head)
        terms.append(-head)
    partials[:] = rounds[::-1]


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

    def add_rows(self, case_ids: Sequence[str], bounds: Sequence[int],
                 *, rids: np.ndarray, starts: np.ndarray,
                 ends: np.ndarray, durs: np.ndarray,
                 sizes: np.ndarray) -> None:
        """Fold all of this activity's rows of a frame (batch road).

        ``case_ids[i]`` owns rows ``bounds[i]:bounds[i + 1]``, each run
        in start order. ``ends`` must already be ``start + dur`` with
        missing durations treated as zero; ``durs``/``sizes`` use the
        frame's ``MISSING`` sentinel. Equivalent to :meth:`add_event`
        per row: the sums and the rate fold run over the whole group
        in C, and Python touches only the per-case buffer splits, each
        one ``frombytes`` of a slice of the interleaved intervals.
        """
        self.event_count += len(starts)
        valid_dur = durs != MISSING
        self.dur_sum += int(durs[valid_dur].sum())
        transfer = sizes != MISSING
        if transfer.any():
            self.has_transfers = True
            self.bytes_sum += int(sizes[transfer].sum())
        rate_mask = transfer & valid_dur & (durs > 0)
        rates = (sizes[rate_mask] / (durs[rate_mask] / 1e6)).tolist()
        if rates:
            _exact_sum_extend(self._rate_partials, rates)
            self.rate_count += len(rates)
        self.rids.update(np.unique(rids).tolist())
        # 16 bytes per row: the start and end int64s, interleaved.
        pairs = memoryview(np.stack((starts, ends), axis=1)
                           .astype(np.int64, copy=False)).cast("B")
        for case_id, lo, hi in zip(case_ids, bounds, bounds[1:]):
            buffer = self._case_timelines.setdefault(case_id, array("q"))
            buffer.frombytes(pairs[16 * lo:16 * hi])
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
        mc = max_concurrency(flat.reshape(-1, 2))
        if self.rate_count:
            mean_rate: float | None = (
                math.fsum(self._rate_partials) / self.rate_count)
        else:
            mean_rate = None
        self._view = (mc, mean_rate)
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
            return [(case_id, start, end)
                    for case_id, buffer, length in captured
                    for start, end in zip(buffer[0:length:2],
                                          buffer[1:length:2])]

        return materialize

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ActivityAccumulator({self.activity!r}, "
                f"{self.event_count} events, "
                f"{len(self._case_timelines)} cases)")


class StatsAccumulator:
    """Per-activity statistics folded incrementally — the engine behind
    both batch :meth:`IOStatistics.compute_statistics` and the live
    :meth:`~repro.live.engine.LiveIngest.statistics`.

    Feed events through :meth:`feed_event` (one sealed record at a
    time) or :meth:`feed_frame` (a whole columnar frame, vectorized);
    then :meth:`statistics` assembles an :class:`IOStatistics`. The
    two feeding roads commute with assembly: any split of the same
    events over any interleaving of cases yields identical statistics,
    because all cross-case state is either order-free (integer sums,
    sets) or reassembled in the caller-supplied case order.

    State round-trips through :meth:`to_state` / :meth:`from_state`
    for the live checkpoint sidecar (version ≥ 2).

    ``window`` (optional, ≥ 2) bounds the per-case interval buffers:
    buffers exceeding it are coarsened and the affected activities
    report ``approximate=True`` concurrency/timelines. Scalar
    statistics — counts, sums, the Eq. 13 mean rate — are unaffected:
    they are folded exactly regardless of windowing.
    """

    def __init__(self, window: int | None = None) -> None:
        if window is not None and window < 2:
            raise ValueError(
                f"window must be >= 2 intervals, got {window}")
        self.window = window
        self._activities: dict[str, ActivityAccumulator] = {}

    def __len__(self) -> int:
        return len(self._activities)

    @property
    def total_duration_us(self) -> int:
        """Denominator of Eq. 8 over everything folded so far."""
        return sum(acc.dur_sum for acc in self._activities.values())

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
        if window is not None and window < 2:
            raise ValueError(
                f"window must be >= 2 intervals, got {window}")
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

    def feed_frame(self, frame: "EventFrame") -> "StatsAccumulator":
        """Fold every mapped row of a columnar frame, vectorized.

        One group-by on the activity column, then one
        :meth:`ActivityAccumulator.add_rows` per activity: within each
        group the rows are already case-major and start-sorted (the
        frame invariant), so per-case runs are boundary splits. Ends
        are computed columnally and case codes decoded once per run —
        no per-row Python.
        """
        pools = frame.pools
        dur = frame.column("dur")
        size = frame.column("size")
        start = frame.column("start")
        rid = frame.column("rid")
        case = frame.column("case")
        for code, rows in frame.groupby_activity():
            durs = dur[rows]
            sizes = size[rows]
            starts = start[rows]
            case_codes = case[rows]
            bounds = [0, *(np.flatnonzero(np.diff(case_codes)) + 1)
                      .tolist(), len(rows)]
            self._accumulator(pools.activities.decode(code)).add_rows(
                [pools.cases.decode(c)
                 for c in case_codes[bounds[:-1]].tolist()],
                bounds, rids=rid[rows], starts=starts,
                ends=starts + np.where(durs != MISSING, durs, 0),
                durs=durs, sizes=sizes)
        return self

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
        total_dur = self.total_duration_us
        stats: dict[str, ActivityStats] = {}
        lazy: dict[str, Callable[[], list[tuple[str, int, int]]]] = {}
        for activity, acc in self._activities.items():
            ordered = tuple(sorted(
                acc._case_timelines,
                key=lambda c: (order_index[c], "") if c in order_index
                else (len(order_index), c)))
            mc, mean_rate = acc.view()
            stats[activity] = ActivityStats(
                activity=activity,
                event_count=acc.event_count,
                total_dur_us=acc.dur_sum,
                relative_duration=(acc.dur_sum / total_dur
                                   if total_dur > 0 else 0.0),
                total_bytes=acc.bytes_sum,
                has_transfers=acc.has_transfers,
                process_data_rate=mean_rate,
                max_concurrency=mc,
                ranks=len(acc.rids),
                cases=len(acc._case_timelines),
                approximate=acc.approximate,
            )
            lazy[activity] = acc.timeline_snapshot(ordered)
        result = IOStatistics()
        result._stats = stats
        result._lazy_timelines = lazy
        result._total_dur_us = total_dur
        return result

    # -- checkpoint state --------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serializable state (live checkpoint sidecars, v2+).

        Floats (the exact-sum rate partials) are stored as JSON
        numbers — ``repr``-based serialization round-trips IEEE
        doubles exactly, so restored statistics stay bit-identical to
        an uninterrupted run. The partials replace the per-case rate
        lists older sidecars carried: O(1)-ish per activity instead of
        one float per transfer event. Each case's interval buffer is
        one base64 string of little-endian int64 ``start, end`` pairs
        (``"intervals"``, sidecar v7).
        """
        return {
            "activities": {
                activity: {
                    "event_count": acc.event_count,
                    "dur_sum": acc.dur_sum,
                    "bytes_sum": acc.bytes_sum,
                    "has_transfers": acc.has_transfers,
                    "approximate": acc.approximate,
                    "rids": sorted(acc.rids),
                    "rate_count": acc.rate_count,
                    "rate_partials": list(acc._rate_partials),
                    "cases": {
                        case: {"intervals": _encode_intervals(buffer)}
                        for case, buffer
                        in sorted(acc._case_timelines.items())
                    },
                }
                for activity, acc in sorted(self._activities.items())
            },
        }

    @classmethod
    def from_state(cls, state: dict,
                   window: int | None = None) -> "StatsAccumulator":
        """Rebuild from :meth:`to_state` output.

        Also accepts the pre-v4 sidecar layout (per-case ``rates``
        lists instead of ``rate_partials``): the legacy rates are
        folded into exact partials in sorted case order — lossless,
        because the exact sum is order-independent. Pre-v7 sidecars
        carry each case's intervals as a ``"timeline"`` list of
        ``[start, end]`` pairs instead of base64 ``"intervals"``.
        """
        accumulator = cls(window=window)
        for activity, acc_state in state["activities"].items():
            acc = accumulator._accumulator(str(activity))
            acc.event_count = int(acc_state["event_count"])
            acc.dur_sum = int(acc_state["dur_sum"])
            acc.bytes_sum = int(acc_state["bytes_sum"])
            acc.has_transfers = bool(acc_state["has_transfers"])
            acc.approximate = bool(acc_state.get("approximate", False))
            acc.rids = {int(r) for r in acc_state["rids"]}
            if "rate_partials" in acc_state:
                acc.rate_count = int(acc_state["rate_count"])
                acc._rate_partials = [
                    float(p) for p in acc_state["rate_partials"]]
            for case, case_state in sorted(acc_state["cases"].items()):
                if "intervals" in case_state:
                    buffer = _decode_intervals(case_state["intervals"])
                else:
                    buffer = array("q", chain.from_iterable(
                        case_state["timeline"]))
                acc._case_timelines[str(case)] = buffer
                if window is not None and len(buffer) > 2 * window:
                    acc._coarsen(str(case))
                for rate in case_state.get("rates", ()):
                    _exact_sum_step(acc._rate_partials, float(rate))
                    acc.rate_count += 1
        return accumulator

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StatsAccumulator({len(self._activities)} activities, "
                f"{sum(a.event_count for a in self._activities.values())}"
                f" events)")


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

        Implemented as "feed the frame once" into a fresh
        :class:`StatsAccumulator` and assemble — the accumulators the
        live engine feeds per sealed event, so batch and live
        statistics cannot drift apart.
        """
        event_log._require_mapping()
        frame = event_log.frame
        accumulator = StatsAccumulator().feed_frame(frame)
        pool = frame.pools.cases
        case_order = [pool.decode(code) for code in range(len(pool))]
        computed = accumulator.statistics(case_order=case_order)
        self._stats = computed._stats
        self._timelines = computed._timelines
        self._lazy_timelines = computed._lazy_timelines
        self._total_dur_us = computed._total_dur_us
        return self

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

    def relative_duration(self, activity: str) -> float:
        """rd_f(a, C) — Eq. 8."""
        return self[activity].relative_duration

    def total_bytes(self, activity: str) -> int:
        """b_f(a, C) — Eq. 9."""
        return self[activity].total_bytes

    def process_data_rate(self, activity: str) -> float | None:
        """dr̄_f(a, C) in bytes/second — Eq. 13."""
        return self[activity].process_data_rate

    def max_concurrency_of(self, activity: str) -> int:
        """mc_f(a, C) — Eq. 16."""
        return self[activity].max_concurrency

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
