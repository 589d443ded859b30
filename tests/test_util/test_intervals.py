"""Interval sweep-line — the max-concurrency metric (Eq. 14-16)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util.intervals import (
    MAX_SWEEP_SPAN,
    max_concurrency,
    max_concurrency_int64,
    max_concurrency_naive,
    merge_intervals,
    span,
    total_covered,
)


class TestMaxConcurrency:
    def test_empty(self):
        assert max_concurrency([]) == 0

    def test_single(self):
        assert max_concurrency([(0, 10)]) == 1

    def test_disjoint(self):
        assert max_concurrency([(0, 1), (2, 3), (4, 5)]) == 1

    def test_nested(self):
        assert max_concurrency([(0, 100), (10, 20), (30, 40)]) == 2

    def test_all_overlapping(self):
        assert max_concurrency([(0, 10), (1, 9), (2, 8)]) == 3

    def test_paper_fig5_stagger(self):
        """The Fig. 5 situation: staggered reads overlapping pairwise
        but never three ways → mc = 2."""
        intervals = [(0, 187), (150, 337), (300, 487)]
        assert max_concurrency(intervals) == 2

    def test_half_open_touching_does_not_overlap(self):
        # An event ending exactly when another starts: no concurrency.
        assert max_concurrency([(0, 10), (10, 20)]) == 1

    def test_zero_duration_counts_once(self):
        assert max_concurrency([(5, 5)]) == 1

    def test_zero_duration_inside_long_interval(self):
        assert max_concurrency([(0, 10), (5, 5)]) == 2

    def test_two_zero_durations_same_instant(self):
        assert max_concurrency([(5, 5), (5, 5)]) == 2

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            max_concurrency([(10, 5)])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            max_concurrency(np.zeros((3, 3)))

    def test_numpy_input(self):
        arr = np.array([[0.0, 10.0], [5.0, 15.0]])
        assert max_concurrency(arr) == 2


intervals_strategy = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 50)).map(
        lambda se: (float(se[0]), float(se[0] + se[1]))),
    max_size=40,
)


class TestSweepMatchesNaive:
    @given(intervals_strategy)
    @settings(max_examples=200)
    def test_sweep_equals_naive_reference(self, intervals):
        """The O(n log n) sweep must agree with the O(n²) reference on
        arbitrary inputs — the guide's rule for validated optimization."""
        assert max_concurrency(intervals) == \
            max_concurrency_naive(intervals)

    @given(intervals_strategy)
    def test_bounds(self, intervals):
        mc = max_concurrency(intervals)
        assert 0 <= mc <= len(intervals)
        if intervals:
            assert mc >= 1


class TestMergeIntervals:
    def test_empty(self):
        assert merge_intervals([]) == []

    def test_disjoint_sorted(self):
        assert merge_intervals([(5, 7), (0, 2), (1, 3)]) == \
            [(0.0, 3.0), (5.0, 7.0)]

    def test_touching_merge(self):
        assert merge_intervals([(0, 5), (5, 10)]) == [(0.0, 10.0)]

    def test_contained(self):
        assert merge_intervals([(0, 100), (10, 20)]) == [(0.0, 100.0)]

    @given(intervals_strategy)
    def test_merged_are_disjoint_and_sorted(self, intervals):
        merged = merge_intervals(intervals)
        for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
            assert e1 < s2

    @given(intervals_strategy)
    def test_total_covered_invariant(self, intervals):
        """Union length ≤ sum of lengths; equal iff no overlap."""
        covered = total_covered(intervals)
        total = sum(e - s for s, e in intervals)
        assert covered <= total + 1e-9


class TestSpan:
    def test_empty(self):
        assert span([]) is None

    def test_basic(self):
        assert span([(5, 7), (0, 2)]) == (0, 7)


class TestConcurrencyProfile:
    def test_docstring_example(self):
        from repro._util.intervals import concurrency_profile
        assert concurrency_profile([(0, 10), (5, 15)]) == [
            (0.0, 1), (5.0, 2), (10.0, 1), (15.0, 0)]

    def test_empty(self):
        from repro._util.intervals import concurrency_profile
        assert concurrency_profile([]) == []

    def test_ends_at_zero(self):
        from repro._util.intervals import concurrency_profile
        profile = concurrency_profile([(0, 3), (1, 2), (5, 9)])
        assert profile[-1][1] == 0

    def test_half_open_touching(self):
        from repro._util.intervals import concurrency_profile
        profile = concurrency_profile([(0, 5), (5, 10)])
        assert (5.0, 1) in profile
        assert all(count <= 1 for _, count in profile)

    @given(st.lists(
        st.tuples(st.integers(0, 100), st.integers(1, 30)).map(
            lambda se: (float(se[0]), float(se[0] + se[1]))),
        min_size=1, max_size=30))
    def test_profile_max_equals_sweep(self, intervals):
        """For positive-length intervals, the profile's max equals
        max_concurrency."""
        from repro._util.intervals import concurrency_profile
        profile = concurrency_profile(intervals)
        assert max(c for _, c in profile) == max_concurrency(intervals)

    @given(st.lists(
        st.tuples(st.integers(0, 100), st.integers(1, 30)).map(
            lambda se: (float(se[0]), float(se[0] + se[1]))),
        min_size=1, max_size=30))
    def test_profile_times_strictly_increasing(self, intervals):
        """Positive-length intervals never need spike entries, so
        times stay strictly increasing."""
        from repro._util.intervals import concurrency_profile
        profile = concurrency_profile(intervals)
        times = [t for t, _ in profile]
        assert times == sorted(set(times))

    def test_zero_length_spike_is_emitted(self):
        """Regression: a zero-length interval used to vanish from the
        profile entirely, so max(profile) != max_concurrency."""
        from repro._util.intervals import concurrency_profile
        assert concurrency_profile([(3, 3)]) == [(3.0, 1), (3.0, 0)]

    def test_zero_length_spike_inside_long_interval(self):
        from repro._util.intervals import concurrency_profile
        intervals = [(0, 10), (5, 5)]
        profile = concurrency_profile(intervals)
        assert (5.0, 2) in profile
        assert (5.0, 1) in profile  # settles back to the long interval

    def test_zero_length_at_boundary_of_touching_intervals(self):
        from repro._util.intervals import concurrency_profile
        profile = concurrency_profile([(0, 5), (5, 10), (5, 5)])
        assert max(count for _, count in profile) == \
            max_concurrency([(0, 5), (5, 10), (5, 5)])

    @given(st.lists(
        st.tuples(st.integers(0, 100), st.integers(0, 30)).map(
            lambda se: (float(se[0]), float(se[0] + se[1]))),
        min_size=1, max_size=30))
    def test_profile_max_equals_sweep_with_zero_lengths(self,
                                                       intervals):
        """The satellite regression property: with spike entries the
        profile's max equals max_concurrency on *all* inputs,
        zero-duration events included."""
        from repro._util.intervals import concurrency_profile
        profile = concurrency_profile(intervals)
        assert max(c for _, c in profile) == max_concurrency(intervals)
        assert profile[-1][1] == 0


#: Integer intervals as (start, length): ties and zero lengths likely.
int_spans = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 6)), max_size=40)


class TestInt64Sweep:
    """The packed-key sweep the statistics run on."""

    @given(int_spans, st.sampled_from(
        [0, -(2**62), 2**62 - 100, -(2**62) + MAX_SWEEP_SPAN - 100]))
    @settings(max_examples=300, deadline=None)
    def test_equals_naive_reference(self, spans, offset):
        """Equal to the O(n²) reference on integer intervals with ties
        and zero-length intervals — also shifted next to ±2**62, where
        float64 could no longer tell neighbouring microseconds apart,
        as long as the span stays under 2**61."""
        pairs = np.array([(s, s + n) for s, n in spans],
                         dtype=np.int64).reshape(-1, 2)
        assert max_concurrency_int64(pairs + offset) == \
            max_concurrency_naive(pairs) == max_concurrency(pairs)

    def test_span_of_2_61_or_more_raises(self):
        assert max_concurrency_int64(
            np.array([[0, MAX_SWEEP_SPAN - 1]])) == 1
        for pairs in ([[0, MAX_SWEEP_SPAN]],
                      [[-(2**62), -(2**62)], [2**62, 2**62]],
                      [[-(2**63), 2**63 - 1]]):
            with pytest.raises(ValueError, match=r"2\*\*61"):
                max_concurrency_int64(np.array(pairs, dtype=np.int64))

    def test_rejects_what_the_float_sweep_rejects(self):
        assert max_concurrency_int64(np.empty((0, 2), dtype=np.int64)) == 0
        with pytest.raises(ValueError, match="end precedes start"):
            max_concurrency_int64(np.array([[10, 5]]))
        with pytest.raises(ValueError, match="expected an"):
            max_concurrency_int64(np.zeros((3, 3), dtype=np.int64))
