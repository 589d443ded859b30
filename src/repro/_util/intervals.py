"""Interval arithmetic, including the paper's max-concurrency metric.

Sec. IV-B defines, for an activity ``a``, the list of event time ranges
``t_f(a, C) = [(start, start+dur), ...]`` and the statistic

    ``mc_f(a, C) = get_max_concurrency(t_f(a, C))``

i.e. the largest number of simultaneously in-flight events. The paper's
algorithm sorts by start time and scans; we implement the classic
sweep-line over +1/-1 boundary deltas, vectorized with NumPy
(:func:`max_concurrency`), plus a deliberately simple O(n²) reference
(:func:`max_concurrency_naive`) used by property-based tests and by the
ablation benchmark to validate and measure the optimization — following
the guide's rule that optimizations must be checked against a trivially
correct implementation. The statistics run on
:func:`max_concurrency_int64`, the same sweep over integer microseconds
with one packed sort key; both are checked against the reference.

Boundary convention: intervals are half-open ``[start, end)`` — an event
ending exactly when another starts does *not* overlap it. This matches
the paper's Fig. 5 reading (mc = 2 for the staggered reads) and makes
zero-duration events count as overlapping only events that strictly
contain their start instant plus other zero-duration events at the same
instant (handled via the tie-break ordering below).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np


def _as_arrays(
    intervals: Sequence[tuple[float, float]] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Split interval pairs into (starts, ends) float64 arrays."""
    arr = np.asarray(intervals, dtype=np.float64)
    if arr.size == 0:
        return np.empty(0), np.empty(0)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(
            f"expected an (n, 2) array of (start, end) pairs, got {arr.shape}")
    starts, ends = arr[:, 0], arr[:, 1]
    if np.any(ends < starts):
        raise ValueError("interval end precedes start")
    return starts, ends


def max_concurrency(
    intervals: Sequence[tuple[float, float]] | np.ndarray,
) -> int:
    """Maximum number of simultaneously active intervals (Eq. 16).

    Sweep-line: sort all boundaries; +1 at starts, -1 at ends; ends sort
    *before* coincident starts (half-open intervals). Zero-duration
    intervals still contribute a count of one at their instant: the pair
    (+1 at t, -1 at t) is ordered start-before-its-own-end via a
    secondary key.

    Complexity O(n log n); fully vectorized.

    >>> max_concurrency([(0, 10), (5, 15), (20, 30)])
    2
    """
    starts, ends = _as_arrays(intervals)
    if starts.size == 0:
        return 0
    n = starts.size
    # Boundary times and deltas. Secondary key orders, at equal times:
    # end-of-other (-1, key 0) < start (key 1) < end-of-zero-length pair —
    # we realize this by treating zero-length intervals specially: emit
    # their -1 with key 2 so their own +1 (key 1) lands first.
    zero_len = ends == starts
    times = np.concatenate([starts, ends])
    deltas = np.concatenate([np.ones(n, dtype=np.int64),
                             -np.ones(n, dtype=np.int64)])
    keys = np.concatenate([
        np.ones(n, dtype=np.int8),                       # starts: key 1
        np.where(zero_len, np.int8(2), np.int8(0)),      # ends: 0 or 2
    ])
    order = np.lexsort((keys, times))
    running = np.cumsum(deltas[order])
    return int(running.max())


#: The widest span of boundary times, ``max(end) - min(start)``, that
#: :func:`max_concurrency_int64` packs into one int64 key (2**61 µs is
#: about 73,000 years).
MAX_SWEEP_SPAN = 1 << 61


def max_concurrency_int64(pairs: np.ndarray) -> int:
    """:func:`max_concurrency` over an ``(n, 2)`` array of integer
    ``start, end`` pairs, sorted on one packed int64 key.

    Each boundary becomes ``(t - t_min) * 4 + kind`` with kind 0 for
    the end of an interval, 1 for a start and 2 for the end of a
    zero-length interval — the order the three-key sort of
    :func:`max_concurrency` imposes at equal times. After one
    ``np.sort``, the low bit of a key tells starts (+1) from ends (-1),
    and the answer is the maximum of their running sum. Exact for every
    int64 input whose span is below :data:`MAX_SWEEP_SPAN`; a wider one
    raises ``ValueError`` instead of wrapping.

    >>> max_concurrency_int64(np.array([[0, 10], [5, 15], [20, 30]]))
    2
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        return 0
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(
            f"expected an (n, 2) array of (start, end) pairs, "
            f"got {pairs.shape}")
    starts, ends = pairs[:, 0], pairs[:, 1]
    if np.any(ends < starts):
        raise ValueError("interval end precedes start")
    t_min = int(starts.min())
    span = int(ends.max()) - t_min
    if span >= MAX_SWEEP_SPAN:
        raise ValueError(
            f"interval span {span} reaches 2**61, too wide for the "
            f"int64 sweep")
    n = len(pairs)
    keys = np.empty(2 * n, dtype=np.int64)
    np.subtract(pairs, t_min, out=keys.reshape(n, 2))
    keys <<= 2
    keys[0::2] += 1
    keys[1::2] += (ends == starts).view(np.int8) << 1
    keys.sort()
    keys &= 1
    keys <<= 1
    keys -= 1
    return int(keys.cumsum().max())


def max_concurrency_naive(
    intervals: Sequence[tuple[float, float]] | np.ndarray,
) -> int:
    """O(n²) reference implementation of :func:`max_concurrency`.

    For each interval, count intervals active at its start instant
    (half-open convention; zero-duration intervals are active at their
    own start). The maximum over all start instants equals the sweep
    result because concurrency only increases at start boundaries.
    """
    starts, ends = _as_arrays(intervals)
    best = 0
    for i in range(starts.size):
        t = starts[i]
        active = 0
        for j in range(starts.size):
            if starts[j] <= t and (t < ends[j]
                                   or (starts[j] == ends[j] == t)):
                active += 1
        best = max(best, active)
    return best


def total_covered(
    intervals: Sequence[tuple[float, float]] | np.ndarray,
) -> float:
    """Total length of the union of intervals (used by timeline axes)."""
    merged = merge_intervals(intervals)
    return float(sum(end - start for start, end in merged))


def merge_intervals(
    intervals: Sequence[tuple[float, float]] | np.ndarray,
) -> list[tuple[float, float]]:
    """Merge overlapping/touching intervals into a sorted disjoint list.

    >>> merge_intervals([(5, 7), (0, 2), (1, 3)])
    [(0.0, 3.0), (5.0, 7.0)]
    """
    starts, ends = _as_arrays(intervals)
    if starts.size == 0:
        return []
    order = np.argsort(starts, kind="stable")
    merged: list[tuple[float, float]] = []
    cur_start, cur_end = float(starts[order[0]]), float(ends[order[0]])
    for idx in order[1:]:
        s, e = float(starts[idx]), float(ends[idx])
        if s <= cur_end:
            cur_end = max(cur_end, e)
        else:
            merged.append((cur_start, cur_end))
            cur_start, cur_end = s, e
    merged.append((cur_start, cur_end))
    return merged


def concurrency_profile(
    intervals: Sequence[tuple[float, float]] | np.ndarray,
) -> list[tuple[float, int]]:
    """The full concurrency step function, not just its maximum.

    Returns ``[(time, active_count), ...]``: at each boundary time the
    number of active intervals *from* that instant (piecewise-constant
    until the next entry). The last entry always has count 0.
    Zero-length intervals are instantaneous spikes a pure step
    function cannot carry, so a boundary instant whose peak count
    exceeds its settled count emits *two* entries — ``(t, peak)``
    immediately followed by ``(t, settled)`` — which keeps
    ``max(count)`` over the profile equal to :func:`max_concurrency`
    on every input (a property the tests verify).

    >>> concurrency_profile([(0, 10), (5, 15)])
    [(0.0, 1), (5.0, 2), (10.0, 1), (15.0, 0)]
    >>> concurrency_profile([(3, 3)])
    [(3.0, 1), (3.0, 0)]
    """
    starts, ends = _as_arrays(intervals)
    if starts.size == 0:
        return []
    n = starts.size
    times = np.concatenate([starts, ends])
    deltas = np.concatenate([np.ones(n, dtype=np.int64),
                             -np.ones(n, dtype=np.int64)])
    # The max_concurrency ordering: at equal times, ends of *other*
    # intervals (key 0) sort before starts (key 1), and the end of a
    # zero-length interval (key 2) after its own start — so the
    # running count passes through the spike value.
    zero_len = ends == starts
    keys = np.concatenate([
        np.ones(n, dtype=np.int8),
        np.where(zero_len, np.int8(2), np.int8(0)),
    ])
    order = np.lexsort((keys, times))
    sorted_times = times[order]
    sorted_keys = keys[order]
    running = np.cumsum(deltas[order])
    profile: list[tuple[float, int]] = []
    i = 0
    total = len(sorted_times)
    while i < total:
        j = i
        while j + 1 < total and sorted_times[j + 1] == sorted_times[i]:
            j += 1
        t = float(sorted_times[i])
        settled = int(running[j])
        # The instantaneous count *at* t is the running value after the
        # last start (key 1): every interval active at t has been
        # opened, and only zero-length ends (key 2) follow. It exceeds
        # the settled count exactly when zero-length intervals spiked.
        starts_at = np.flatnonzero(sorted_keys[i:j + 1] == 1)
        peak = (int(running[i + int(starts_at[-1])])
                if starts_at.size else settled)
        if peak > settled:
            profile.append((t, peak))
        profile.append((t, settled))
        i = j + 1
    return profile


def span(
    intervals: Iterable[tuple[float, float]],
) -> tuple[float, float] | None:
    """Smallest (min start, max end) covering all intervals, or None."""
    lo: float | None = None
    hi: float | None = None
    for start, end in intervals:
        lo = start if lo is None else min(lo, start)
        hi = end if hi is None else max(hi, end)
    if lo is None or hi is None:
        return None
    return (lo, hi)
