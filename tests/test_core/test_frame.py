"""The columnar EventFrame (DataFrame substitute)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util.errors import ReproError
from repro.core.eventlog import EventLog
from repro.core.frame import COLUMN_ORDER, MISSING, EventFrame, FramePools
from repro.sources.csv_log import write_csv_log
from repro.strace.reader import read_trace_dir


@pytest.fixture()
def frame(fig1_dir) -> EventFrame:
    return EventFrame.from_cases(read_trace_dir(fig1_dir))


class TestConstruction:
    def test_shape(self, frame):
        assert frame.n_events == 3 * 8 + 3 * 17

    def test_empty(self):
        empty = EventFrame.empty()
        assert len(empty) == 0
        assert empty.case_slices() == []

    def test_missing_column_rejected(self):
        pools = FramePools()
        with pytest.raises(ReproError, match="missing columns"):
            EventFrame(pools, {"start": np.zeros(1, dtype=np.int64)})

    def test_ragged_columns_rejected(self, frame):
        columns = {name: frame.column(name) for name in
                   ("case", "cid", "host", "rid", "pid", "call",
                    "start", "dur", "fp", "size", "activity")}
        columns["pid"] = columns["pid"][:-1]
        with pytest.raises(ReproError, match="ragged"):
            EventFrame(frame.pools, columns)

    def test_unknown_column_rejected(self, frame):
        with pytest.raises(ReproError):
            frame.column("bogus")

    def test_string_decoding(self, frame):
        calls = frame.decoded("call")
        assert set(calls) == {"read", "write"}

    def test_pools_shared_across_cases(self, frame):
        # The same path appears in all six cases but is pooled once.
        paths = list(frame.pools.paths)
        assert paths.count("/usr/lib/x86_64-linux-gnu/libc.so.6") == 1


class TestSelection:
    def test_fp_contains(self, frame):
        mask = frame.fp_contains("/usr/lib")
        sub = frame.select(mask)
        assert len(sub) == 6 * 3  # 3 lib reads per case, 6 cases
        assert all("/usr/lib" in p for p in sub.decoded("fp"))

    def test_fp_contains_no_match(self, frame):
        assert frame.fp_contains("/scratch").sum() == 0

    def test_fp_matches_predicate(self, frame):
        mask = frame.fp_matches(lambda p: p.endswith(".conf"))
        assert set(frame.select(mask).decoded("fp")) == \
            {"/etc/nsswitch.conf"}

    def test_call_in(self, frame):
        writes = frame.select(frame.call_in(["write"]))
        assert len(writes) == 3 * 1 + 3 * 4  # ls: 1 write; ls -l: 4

    def test_call_in_unknown_name(self, frame):
        assert frame.call_in(["mmap"]).sum() == 0

    def test_cid_in(self, frame):
        assert frame.select(frame.cid_in(["a"])).n_events == 24

    def test_time_window(self, frame):
        starts = frame.column("start")
        lo, hi = int(starts.min()), int(starts.max())
        assert frame.time_window(lo, hi + 1).all()
        assert frame.time_window(hi + 1, hi + 2).sum() == 0

    def test_selection_shares_pools(self, frame):
        sub = frame.select(frame.cid_in(["a"]))
        assert sub.pools is frame.pools


class TestGrouping:
    def test_case_slices_cover_all_rows(self, frame):
        slices = frame.case_slices()
        assert len(slices) == 6
        total = sum(len(rows) for _, rows in slices)
        assert total == len(frame)

    def test_case_slices_codes_correct(self, frame):
        for code, rows in frame.case_slices():
            assert (frame.column("case")[rows] == code).all()

    def test_sorted_within_cases(self, frame):
        ordered = frame.sorted_within_cases()
        for _, rows in ordered.case_slices():
            starts = ordered.column("start")[rows]
            assert (np.diff(starts) >= 0).all()

    def test_groupby_activity_excludes_unmapped(self, frame):
        codes = np.full(len(frame), MISSING, dtype=np.int32)
        codes[:5] = 0
        tagged = frame.with_activity_codes(codes)
        groups = tagged.groupby_activity()
        assert len(groups) == 1
        assert len(groups[0][1]) == 5

    def test_groupby_activity_codes_correct(self, frame):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 4, size=len(frame)).astype(np.int32)
        tagged = frame.with_activity_codes(codes)
        for code, rows in tagged.groupby_activity():
            assert (codes[rows] == code).all()


class TestConcat:
    def test_concat_shared_pools(self, frame):
        first = frame.select(frame.cid_in(["a"]))
        second = frame.select(frame.cid_in(["b"]))
        merged = EventFrame.concat([first, second])
        assert len(merged) == len(frame)

    def test_concat_different_pools_rejected(self, fig1_dir):
        one = EventFrame.from_cases(read_trace_dir(fig1_dir))
        two = EventFrame.from_cases(read_trace_dir(fig1_dir))
        with pytest.raises(ReproError, match="pools"):
            EventFrame.concat([one, two])

    def test_concat_empty_list(self):
        assert len(EventFrame.concat([])) == 0

    def test_reencode_then_concat(self, fig1_dir):
        one = EventFrame.from_cases(read_trace_dir(fig1_dir, cids={"a"}))
        two = EventFrame.from_cases(read_trace_dir(fig1_dir, cids={"b"}))
        merged = EventFrame.concat([one, two.reencoded(one.pools)])
        assert len(merged) == 24 + 51
        assert merged.decoded("cid").count("b") == 51

    def test_reencode_preserves_strings(self, frame):
        fresh = FramePools()
        re_encoded = frame.reencoded(fresh)
        assert re_encoded.decoded("fp") == frame.decoded("fp")
        assert re_encoded.decoded("call") == frame.decoded("call")


class TestRowAccess:
    def test_event_materialization(self, frame):
        ordered = frame.sorted_within_cases()
        event = ordered.event(0)
        assert event.cid == "a"
        assert event.call == "read"
        assert event.size == 832

    def test_iter_events_count(self, frame):
        assert sum(1 for _ in frame.iter_events()) == len(frame)

    def test_with_activity_codes_length_checked(self, frame):
        with pytest.raises(ReproError):
            frame.with_activity_codes(np.zeros(3, dtype=np.int32))


def _frame_of(cases: list[int], starts: list[int]) -> EventFrame:
    """A frame over the given case codes and starts; ``pid`` numbers
    the input rows so a reordering shows in every column."""
    pools = FramePools()
    for code in range(max(cases, default=-1) + 1):
        pools.cases.intern(f"c{code}")
    n = len(cases)
    columns = {name: np.zeros(n, dtype=np.int64)
               for name in ("rid", "dur", "size")}
    columns.update(
        case=np.array(cases, dtype=np.int32),
        start=np.array(starts, dtype=np.int64),
        pid=np.arange(n, dtype=np.int64),
        cid=np.zeros(n, dtype=np.int32),
        host=np.zeros(n, dtype=np.int32),
        call=np.zeros(n, dtype=np.int32),
        fp=np.full(n, MISSING, dtype=np.int32),
        activity=np.full(n, MISSING, dtype=np.int32))
    return EventFrame(pools, columns)


def _assert_lexsorted(result: EventFrame, frame: EventFrame) -> None:
    expected = frame.select(np.lexsort((frame.column("start"),
                                        frame.column("case"))))
    for name in COLUMN_ORDER:
        assert result.column(name).tolist() == \
            expected.column(name).tolist(), name


class TestSortOnce:
    """``sorted_within_cases`` skips the sort exactly when the stable
    sort would be the identity."""

    def test_sorted_frame_comes_back_as_itself(self, frame):
        ordered = frame.sorted_within_cases()
        assert ordered.sorted_within_cases() is ordered
        empty = EventFrame.empty()
        assert empty.sorted_within_cases() is empty

    @pytest.mark.parametrize("cases, starts, in_order", [
        ([0, 0, 0, 1, 1], [1, 5, 3, 2, 4], False),
        ([0, 1, 0, 1, 0], [1, 2, 3, 4, 5], False),
        ([1, 1, 0, 0], [1, 2, 3, 4], False),
        ([0, 0, 1, 1], [7, 7, 3, 3], True),
    ], ids=["backward-start", "interleaved-cases", "cases-descending",
            "ties-and-later-case-earlier"])
    def test_frame_equals_the_lexsort(self, cases, starts, in_order):
        frame = _frame_of(cases, starts)
        result = frame.sorted_within_cases()
        _assert_lexsorted(result, frame)
        assert (result is frame) == in_order

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)),
                    max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_lexsort_on_random_frames(self, rows):
        frame = _frame_of([case for case, _ in rows],
                          [start for _, start in rows])
        result = frame.sorted_within_cases()
        _assert_lexsorted(result, frame)
        assert result.sorted_within_cases() is result

    def test_shuffled_csv_rows(self, fig1_dir, tmp_path):
        """Rows of a CSV log in any order come out case-major and
        start-sorted, holding the same events per case."""
        original = EventLog.from_source(fig1_dir)
        path = write_csv_log(original, tmp_path / "log.csv")
        header, *body = path.read_text(encoding="utf-8") \
            .splitlines(keepends=True)
        random.Random(7).shuffle(body)
        path.write_text(header + "".join(body), encoding="utf-8")
        shuffled = EventLog.from_source(f"csv:{path}")
        assert shuffled.frame.sorted_within_cases() is shuffled.frame

        def events(log):
            return {case: sorted(zip(part.column("start").tolist(),
                                     part.decoded("call"),
                                     part.decoded("fp"),
                                     part.column("dur").tolist(),
                                     part.column("size").tolist()))
                    for case, part in log.iter_cases()}

        assert events(shuffled) == events(original)
        for _, part in shuffled.iter_cases():
            assert (np.diff(part.column("start")) >= 0).all()
