"""Activity statistics rd_f / b_f / dr̄_f / mc_f (Sec. IV-B)."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util.errors import ReproError
from repro.core.eventlog import EventLog
from repro.core.frame import MISSING
from repro.core.mapping import CallTopDirs
from repro.core.statistics import (
    IOStatistics,
    StatsAccumulator,
    _exact_sum_extend,
    _exact_sum_step,
)
from tests.strategies import EVENT_ROWS, mapped_log


@pytest.fixture()
def stats(fig1_dir) -> IOStatistics:
    log = EventLog.from_source(fig1_dir)
    log.apply_mapping_fn(CallTopDirs(levels=2))
    return IOStatistics(log)


@pytest.fixture()
def ca_stats(fig1_dir) -> IOStatistics:
    log = EventLog.from_source(fig1_dir, cids={"a"})
    log.apply_mapping_fn(CallTopDirs(levels=2))
    return IOStatistics(log)


class TestRelativeDuration:
    def test_sums_to_one(self, stats):
        total = sum(stats[a].relative_duration for a in stats.activities())
        assert total == pytest.approx(1.0)

    def test_eq8_exact_value(self, ca_stats):
        """rd for read:/usr/lib over Ca: the three lib reads total
        (203+79+87) µs per case; denominator is the case total."""
        per_case_total = 203 + 79 + 87 + 52 + 40 + 41 + 44 + 111
        expected = (203 + 79 + 87) / per_case_total
        assert ca_stats["read:/usr/lib"].relative_duration == \
            pytest.approx(expected)

    def test_total_duration_denominator(self, ca_stats):
        per_case_total = 203 + 79 + 87 + 52 + 40 + 41 + 44 + 111
        assert ca_stats.total_duration_us == 3 * per_case_total

    def test_ordering_by_load(self, stats):
        ordered = stats.activities()
        values = [stats[a].relative_duration for a in ordered]
        assert values == sorted(values, reverse=True)


class TestBytes:
    def test_eq9_total_bytes(self, ca_stats):
        # 3 lib reads × 832 B × 3 cases.
        assert ca_stats["read:/usr/lib"].total_bytes == 3 * 3 * 832

    def test_eof_reads_count_zero_bytes(self, ca_stats):
        # /proc/filesystems: 478 + 0 per case.
        assert ca_stats["read:/proc/filesystems"].total_bytes == 3 * 478

    def test_load_label_format(self, ca_stats):
        label = ca_stats["read:/usr/lib"].load_label
        assert label.startswith("Load:0.5")
        assert "(7.49 KB)" in label


class TestProcessDataRate:
    def test_eq13_mean_of_event_rates(self, ca_stats):
        # Mean over the 9 lib-read events of size/dur (per case the
        # same three), in bytes/second.
        rates = [832 / (203e-6), 832 / (79e-6), 832 / (87e-6)]
        expected = sum(rates) / 3
        assert ca_stats["read:/usr/lib"].process_data_rate == \
            pytest.approx(expected, rel=1e-6)

    def test_zero_duration_events_excluded_from_rate(self, fig1_dir,
                                                     tmp_path):
        (tmp_path / "z_h_1.st").write_text(
            "1  00:00:00.000001 read(3</f>, ..., 10) = 10 <0.000000>\n"
            "1  00:00:00.000100 read(3</f>, ..., 10) = 10 <0.000010>\n")
        log = EventLog.from_source(tmp_path)
        log.apply_mapping_fn(CallTopDirs(levels=2))
        stats = IOStatistics(log)
        assert stats["read:/f"].process_data_rate == \
            pytest.approx(10 / 10e-6)

    def test_zero_byte_transfer_is_a_real_zero_rate(self, tmp_path):
        """A size-0 read with positive duration measures 0.0 B/s —
        a legitimate rate, distinct from 'no transfers' (None)."""
        (tmp_path / "z_h_1.st").write_text(
            '1  00:00:00.000001 read(3</f>, "", 1024) = 0 <0.000040>\n')
        log = EventLog.from_source(tmp_path)
        log.apply_mapping_fn(CallTopDirs(levels=2))
        stats = IOStatistics(log)
        record = stats["read:/f"]
        assert record.process_data_rate == 0.0
        assert record.has_transfers
        assert record.dr_label == "DR: 1x0.00 MB/s"
        # The metric accessor must not conflate 0.0 with None either.
        assert stats.metric("read:/f", "process_data_rate") == 0.0

    def test_metric_for_no_transfers_is_zero(self, tmp_path):
        (tmp_path / "z_h_1.st").write_text(
            "1  00:00:00.000001 lseek(3</f>, 0, SEEK_SET) = 0 "
            "<0.000002>\n")
        log = EventLog.from_source(tmp_path)
        log.apply_mapping_fn(CallTopDirs(levels=2))
        stats = IOStatistics(log)
        assert stats["lseek:/f"].process_data_rate is None
        assert stats.metric("lseek:/f", "process_data_rate") == 0.0

    def test_no_transfer_activities_have_none(self, tmp_path):
        (tmp_path / "z_h_1.st").write_text(
            "1  00:00:00.000001 lseek(3</f>, 0, SEEK_SET) = 0 "
            "<0.000002>\n")
        log = EventLog.from_source(tmp_path)
        log.apply_mapping_fn(CallTopDirs(levels=2))
        stats = IOStatistics(log)
        record = stats["lseek:/f"]
        assert record.process_data_rate is None
        assert not record.has_transfers
        assert record.dr_label is None
        assert record.load_label == "Load:1.00"  # no byte parenthetical


class TestMaxConcurrency:
    def test_identical_timestamps_give_case_count(self, fig1_dir):
        """The fig1 fixture replays identical timestamps per rank, so
        every activity is 3-concurrent within each command."""
        log = EventLog.from_source(fig1_dir, cids={"a"})
        log.apply_mapping_fn(CallTopDirs(levels=2))
        stats = IOStatistics(log)
        assert stats["read:/usr/lib"].max_concurrency == 3

    def test_staggered_simulated_ls_gives_two(self, ls_sim_dir):
        """The simulator staggers ranks by 150 µs → Fig. 5's mc = 2."""
        log = EventLog.from_source(ls_sim_dir, cids={"b"})
        log.apply_mapping_fn(CallTopDirs(levels=2))
        stats = IOStatistics(log)
        assert stats["read:/usr/lib"].max_concurrency == 2


class TestTimeline:
    def test_rows_are_case_tagged(self, ca_stats):
        rows = ca_stats.timeline("read:/usr/lib")
        assert len(rows) == 9
        assert {case for case, _, _ in rows} == \
            {"a9042", "a9043", "a9045"}
        for _, start, end in rows:
            assert end >= start

    def test_unknown_activity_rejected(self, ca_stats):
        with pytest.raises(ReproError):
            ca_stats.timeline("nope")


class TestAccessors:
    def test_getitem_unknown_rejected(self, stats):
        with pytest.raises(ReproError):
            stats["ghost"]

    def test_get_returns_none(self, stats):
        assert stats.get("ghost") is None

    def test_contains_and_len(self, stats):
        assert "read:/usr/lib" in stats
        assert len(stats) == 8

    def test_metric_accessor(self, stats):
        for name in ("relative_duration", "total_bytes",
                     "max_concurrency", "event_count",
                     "process_data_rate"):
            assert stats.metric("read:/usr/lib", name) >= 0

    def test_metric_unknown_rejected(self, stats):
        with pytest.raises(ReproError):
            stats.metric("read:/usr/lib", "banana")

    def test_ranks_and_cases(self, stats):
        record = stats["read:/etc/passwd"]
        assert record.ranks == 3   # only the three ls -l rids
        assert record.cases == 3

    def test_as_rows(self, stats):
        rows = stats.as_rows()
        assert len(rows) == 8
        assert {"activity", "events", "relative_duration",
                "total_bytes"} <= set(rows[0])

    def test_compute_replaces_previous(self, fig1_dir, stats):
        log = EventLog.from_source(fig1_dir, cids={"a"})
        log.apply_mapping_fn(CallTopDirs(levels=2))
        stats.compute_statistics(log)
        assert len(stats) == 4  # only the ls activities now

    def test_one_step_constructor(self, fig1_dir):
        log = EventLog.from_source(fig1_dir)
        log.apply_mapping_fn(CallTopDirs(levels=2))
        assert len(IOStatistics(log)) == 8


def assert_feeds_agree(log: EventLog) -> None:
    """Batch ``IOStatistics`` ≡ one ``feed_event`` per mapped row."""
    frame = log.frame
    pools = frame.pools
    fed = StatsAccumulator()
    for row in np.flatnonzero(frame.column("activity") != MISSING):
        dur = int(frame.column("dur")[row])
        size = int(frame.column("size")[row])
        fed.feed_event(
            pools.activities.decode(int(frame.column("activity")[row])),
            pools.cases.decode(int(frame.column("case")[row])),
            rid=int(frame.column("rid")[row]),
            start_us=int(frame.column("start")[row]),
            dur_us=None if dur == MISSING else dur,
            size=None if size == MISSING else size)
    live = fed.statistics(case_order=[
        pools.cases.decode(c) for c in range(len(pools.cases))])
    batch = IOStatistics(log)
    assert live.activities() == batch.activities()
    assert live.total_duration_us == batch.total_duration_us
    for activity in batch.activities():
        assert live[activity] == batch[activity], activity
        assert live.timeline(activity) == \
            batch.timeline(activity), activity


#: Magnitudes from 1e-300 to 1e300, either sign, and zeros.
FLOATS = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e, negative: (-m if negative else m) * 10.0 ** e,
              st.floats(1.0, 9.999), st.integers(-300, 299),
              st.booleans()))


class TestExactRateFold:
    @given(st.lists(FLOATS, max_size=6), st.lists(FLOATS, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_batch_fold_equals_step_fold_and_exact_sum(self, before,
                                                       values):
        """The C-level ``fsum`` rounds of the batch road leave partials
        that sum exactly to the true total, like the live per-value
        Shewchuk step, into empty and non-empty partials alike."""
        stepped: list[float] = []
        for value in before:
            _exact_sum_step(stepped, value)
        batched = list(stepped)
        for value in values:
            _exact_sum_step(stepped, value)
        _exact_sum_extend(batched, values)
        exact = sum(map(Fraction, before + values), Fraction(0))
        assert sum(map(Fraction, batched), Fraction(0)) == exact
        assert math.fsum(batched) == math.fsum(stepped) == float(exact)


#: Events as (activity, case, rid, bound, bound, has_dur, size): the
#: interval is [min, max) of the two bounds, or zero-length at min
#: without a duration. Bounds reach ±2**62; small ones make zero-length
#: intervals and shared instants likely.
BOUND = st.one_of(st.integers(-50, 50), st.integers(-2**62, 2**62))
STATE_EVENTS = st.lists(
    st.tuples(st.sampled_from(["read", "write"]),
              st.sampled_from(["c1", "c2", "c3"]), st.integers(0, 3),
              BOUND, BOUND, st.booleans(),
              st.one_of(st.none(), st.integers(0, 1 << 20))),
    max_size=40)


class TestStatsAccumulator:
    """The accumulator layer behind both batch and live statistics."""

    def _mapped_log(self, fig1_dir) -> EventLog:
        log = EventLog.from_source(fig1_dir)
        log.apply_mapping_fn(CallTopDirs(levels=2))
        return log

    def test_event_by_event_feed_equals_frame_feed(self, fig1_dir):
        """Feeding one event at a time (the live road) produces
        field-identical statistics to the vectorized frame feed (the
        batch road) — floats included, no approx."""
        assert_feeds_agree(self._mapped_log(fig1_dir))

    @given(EVENT_ROWS)
    @settings(max_examples=200, deadline=None)
    def test_feeds_agree_on_random_logs(self, rows):
        """Same on random multi-case logs with missing durations and
        sizes, zero durations and zero sizes."""
        assert_feeds_agree(mapped_log(rows))

    def test_state_roundtrip(self, fig1_dir):
        log = self._mapped_log(fig1_dir)
        accumulator = StatsAccumulator().feed_frame(log.frame)
        revived = StatsAccumulator.from_state(accumulator.to_state())
        one = accumulator.statistics()
        two = revived.statistics()
        for activity in one.activities():
            assert one[activity] == two[activity]
            assert one.timeline(activity) == two.timeline(activity)

    @given(STATE_EVENTS, st.sampled_from([None, 2]))
    @settings(max_examples=200, deadline=None)
    def test_json_state_roundtrip_is_byte_exact(self, events, window):
        """Through a JSON sidecar and back, every interval buffer is
        byte-identical and the statistics are equal, windowed or not."""
        accumulator = StatsAccumulator(window=window)
        for activity, case, rid, one, two, has_dur, size in events:
            start, end = min(one, two), max(one, two)
            accumulator.feed_event(
                activity, case, rid=rid, start_us=start,
                dur_us=end - start if has_dur else None, size=size)
        revived = StatsAccumulator.from_state(
            json.loads(json.dumps(accumulator.to_state())),
            window=window)
        assert revived._activities.keys() == \
            accumulator._activities.keys()
        for activity, acc in accumulator._activities.items():
            assert {case: buffer.tobytes() for case, buffer
                    in revived._activities[activity]
                    ._case_timelines.items()} == \
                {case: buffer.tobytes()
                 for case, buffer in acc._case_timelines.items()}
        before = accumulator.statistics()
        after = revived.statistics()
        assert after.activities() == before.activities()
        for activity in before.activities():
            assert after[activity] == before[activity], activity
            assert after.timeline(activity) == \
                before.timeline(activity), activity

    def test_default_case_order_is_lexicographic(self, fig1_dir):
        """Without an explicit order the flat-directory layout (case
        ids sorted) matches the frame interning order."""
        log = self._mapped_log(fig1_dir)
        accumulator = StatsAccumulator().feed_frame(log.frame)
        batch = IOStatistics(log)
        implicit = accumulator.statistics()
        for activity in batch.activities():
            assert implicit.timeline(activity) == \
                batch.timeline(activity)
