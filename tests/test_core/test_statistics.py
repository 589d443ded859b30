"""Activity statistics rd_f / b_f / dr̄_f / mc_f (Sec. IV-B)."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from repro._util.errors import ReproError
from repro.core.eventlog import EventLog
from repro.core.frame import MISSING
from repro.core.mapping import CallPath, CallTopDirs
from repro.core.partition import PartitionEL, partition_by_predicate
from repro.core.statistics import (
    CellTable,
    IOStatistics,
    StatsAccumulator,
    _exact_sum_step,
    _mean_rate,
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


def fed(log: EventLog) -> StatsAccumulator:
    """The live road: one ``feed_event`` per mapped row of ``log``."""
    frame = log.frame
    pools = frame.pools
    accumulator = StatsAccumulator()
    for row in np.flatnonzero(frame.column("activity") != MISSING):
        dur = int(frame.column("dur")[row])
        size = int(frame.column("size")[row])
        accumulator.feed_event(
            pools.activities.decode(int(frame.column("activity")[row])),
            pools.cases.decode(int(frame.column("case")[row])),
            rid=int(frame.column("rid")[row]),
            start_us=int(frame.column("start")[row]),
            dur_us=None if dur == MISSING else dur,
            size=None if size == MISSING else size)
    return accumulator


def assert_feeds_agree(log: EventLog) -> None:
    """Batch ``IOStatistics`` (the cell table) ≡ one ``feed_event``
    per mapped row (the live accumulators)."""
    pools = log.frame.pools
    live = fed(log).statistics(case_order=[
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
        """The batch road's Eq. 13 mean — one ``fsum`` over the raw
        rates — equals the live road's, whose per-value Shewchuk steps
        (continued from restored partials, ``before``) keep partials
        that sum exactly to the true total: both are the correctly
        rounded exact sum."""
        stepped: list[float] = []
        for value in before:
            _exact_sum_step(stepped, value)
        for value in values:
            _exact_sum_step(stepped, value)
        rates = before + values
        exact = sum(map(Fraction, rates), Fraction(0))
        assert sum(map(Fraction, stepped), Fraction(0)) == exact
        assert math.fsum(stepped) == math.fsum(rates) == float(exact)
        assert _mean_rate(stepped, len(rates)) == \
            _mean_rate(rates, len(rates))


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
        field-identical statistics to the batch cell table — floats
        included, no approx."""
        assert_feeds_agree(self._mapped_log(fig1_dir))

    @given(EVENT_ROWS)
    @settings(max_examples=200, deadline=None)
    def test_feeds_agree_on_random_logs(self, rows):
        """Same on random multi-case logs with missing durations and
        sizes, zero durations and zero sizes."""
        assert_feeds_agree(mapped_log(rows))

    def test_state_roundtrip(self, fig1_dir):
        log = self._mapped_log(fig1_dir)
        accumulator = fed(log)
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
        byte-identical and the statistics are equal, windowed or not.
        An activity spanning 2**61 µs or more is beyond the int64
        sweep: then both sides refuse it alike."""
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
        try:
            before = accumulator.statistics()
        except ValueError as exc:
            assert "2**61" in str(exc)
            with pytest.raises(ValueError, match=r"2\*\*61"):
                revived.statistics()
            return
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
        accumulator = fed(log)
        batch = IOStatistics(log)
        implicit = accumulator.statistics()
        for activity in batch.activities():
            assert implicit.timeline(activity) == \
                batch.timeline(activity)


def assert_statistics_equal(one: IOStatistics, two: IOStatistics) -> None:
    """Every field of every activity (floats with ``==``), the Eq. 8
    denominator and every timeline."""
    assert one.activities() == two.activities()
    assert one.total_duration_us == two.total_duration_us
    for activity in one.activities():
        assert one[activity] == two[activity], activity
        assert one.timeline(activity) == two.timeline(activity), activity


class TestCellRestriction:
    """A case-level child's statistics restrict its parent's cell table
    (``EventLog.case_origin``); they must be what a fresh build over
    the child's rows gives, bit for bit."""

    @given(EVENT_ROWS, st.sets(st.integers(0, 5)), st.sets(st.integers(0, 5)))
    @example(rows=[(0, "read", "/p/a", 5, 3, 10, 0),
                   (1, "write", "/p/b", 7, 2, 4, 1),
                   (2, "read", "/p/a", 6, 1, 8, 2)],
             green={0, 2}, again={2})
    # The assume() below rejects most random (rows, green) draws by
    # design (green must split the cases present), which can trip the
    # generation health check on some seeds.
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_child_statistics_equal_a_fresh_build(self, rows, green,
                                                  again):
        """Random mapped logs and random non-empty case subsets, halves
        lacking activities of the other included; a half split again
        restricts the same root table."""
        log = mapped_log(rows)
        present = set(log.case_ids())
        green_cases = {f"c{i}" for i in green}
        assume(present & green_cases and present - green_cases)
        halves = partition_by_predicate(log, green_cases.__contains__)
        again_cases = {f"c{i}" for i in again}
        if len(set(halves[0].case_ids()) - again_cases) and \
                set(halves[0].case_ids()) & again_cases:
            halves += partition_by_predicate(halves[0],
                                             again_cases.__contains__)
        for half in halves:
            root, keep = half.case_origin
            assert root is log.frame and keep is not None
            fresh = EventLog(half.frame, half.mapping)
            assert fresh.case_origin == (half.frame, None)
            assert_statistics_equal(IOStatistics(half),
                                    IOStatistics(fresh))

    def test_one_table_serves_the_log_and_its_halves(self, fig1_dir,
                                                     monkeypatch):
        log = EventLog.from_source(fig1_dir)
        log.apply_mapping_fn(CallTopDirs(levels=2))
        built = []
        real_init = CellTable.__init__

        def counting_init(self, frame):
            built.append(frame)
            real_init(self, frame)

        monkeypatch.setattr(CellTable, "__init__", counting_init)
        green, red = PartitionEL(log)
        for part in (log, green, red, log, green.filtered_cids(["a"])):
            IOStatistics(part)
        assert built == [log.frame]

    def _halves(self, fig1_dir):
        log = EventLog.from_source(fig1_dir)
        log.apply_mapping_fn(CallTopDirs(levels=2))
        return log, PartitionEL(log)

    def test_mutating_the_parent_leaves_the_halves_alone(self, fig1_dir):
        log, halves = self._halves(fig1_dir)
        before = [IOStatistics(half) for half in halves]
        log.apply_fp_filter("/usr/lib")
        for half, stats in zip(halves, before):
            assert_statistics_equal(IOStatistics(half), stats)
        log.apply_mapping_fn(CallPath())
        for half, stats in zip(halves, before):
            assert_statistics_equal(IOStatistics(half), stats)

    def test_mutating_a_half_drops_its_link(self, fig1_dir):
        log, (green, red) = self._halves(fig1_dir)
        whole = IOStatistics(green)
        green.apply_fp_filter("/usr/lib")
        assert green.case_origin == (green.frame, None)
        filtered = IOStatistics(green)
        assert filtered.activities() != whole.activities()
        assert_statistics_equal(
            filtered, IOStatistics(EventLog(green.frame, green.mapping)))
        red.apply_mapping_fn(CallPath())
        assert red.case_origin == (red.frame, None)
        assert_statistics_equal(
            IOStatistics(red), IOStatistics(EventLog(red.frame, CallPath())))

    def test_event_level_filters_build_their_own_table(self, fig1_dir):
        log, _ = self._halves(fig1_dir)
        reads = log.filtered_calls(["read"])
        assert reads.case_origin == (reads.frame, None)
        assert set(IOStatistics(reads).activities()) == \
            {a for a in IOStatistics(log).activities()
             if a.startswith("read")}
