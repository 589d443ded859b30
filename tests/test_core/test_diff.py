"""Quantitative DFG diff."""

import pytest

from repro.core.diff import ActivityDelta, DFGDiff, EdgeDelta
from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import CallTopDirs
from repro.core.partition import PartitionEL
from repro.pipeline.serialize import diff_payload
from tests.strategies import mapped_log


@pytest.fixture()
def diff(fig1_dir) -> DFGDiff:
    log = EventLog.from_source(fig1_dir)
    log.apply_mapping_fn(CallTopDirs(levels=2))
    green_log, red_log = PartitionEL(log)  # a=green, b=red
    return DFGDiff.between(green_log, red_log)


class TestEdgeDeltas:
    def test_status_classification(self, diff):
        by_edge = {d.edge: d for d in diff.edge_deltas()}
        locale_pts = by_edge[("read:/etc/locale.alias", "write:/dev/pts")]
        assert locale_pts.status == "green-only"
        assert locale_pts.delta == 3
        passwd_group = by_edge[("read:/etc/passwd", "read:/etc/group")]
        assert passwd_group.status == "red-only"
        assert passwd_group.delta == -3

    def test_shared_edge_delta(self, diff):
        by_edge = {d.edge: d for d in diff.edge_deltas()}
        shared = by_edge[("read:/usr/lib", "read:/usr/lib")]
        assert shared.status == "shared"
        assert shared.green_count == 6
        assert shared.red_count == 6
        assert shared.delta == 0

    def test_sorted_by_abs_delta(self, diff):
        deltas = [abs(d.delta) for d in diff.edge_deltas()]
        assert deltas == sorted(deltas, reverse=True)

    def test_covers_union_of_edges(self, diff):
        edges = {d.edge for d in diff.edge_deltas()}
        assert edges == (set(diff.green_dfg.edges())
                         | set(diff.red_dfg.edges()))


class TestEdgeSets:
    def test_added_and_vanished_are_the_exclusive_sets(self, diff):
        added = diff.added_edges()
        vanished = diff.vanished_edges()
        assert ("read:/etc/locale.alias", "write:/dev/pts") in added
        assert ("read:/etc/passwd", "read:/etc/group") in vanished
        assert not set(added) & set(vanished)
        by_edge = {d.edge: d for d in diff.edge_deltas()}
        assert set(added) == {e for e, d in by_edge.items()
                              if d.status == "green-only"}
        assert set(vanished) == {e for e, d in by_edge.items()
                                 if d.status == "red-only"}

    def test_sorted_and_stable(self, diff):
        assert diff.added_edges() == sorted(diff.added_edges())
        assert diff.vanished_edges() == sorted(diff.vanished_edges())


class TestActivityDeltas:
    def test_red_only_activity(self, diff):
        by_activity = {d.activity: d for d in diff.activity_deltas()}
        passwd = by_activity["read:/etc/passwd"]
        assert passwd.green_events == 0
        assert passwd.red_events == 3
        assert passwd.rd_delta < 0

    def test_shared_activity_rates(self, diff):
        by_activity = {d.activity: d for d in diff.activity_deltas()}
        usr_lib = by_activity["read:/usr/lib"]
        assert usr_lib.green_events == 9
        assert usr_lib.red_events == 9
        assert usr_lib.rate_ratio is not None
        assert usr_lib.rate_ratio > 0

    def test_requires_stats(self, diff):
        bare = DFGDiff(diff.green_dfg, diff.red_dfg)
        with pytest.raises(ValueError):
            bare.activity_deltas()


class TestRateRatio:
    """A measured 0.0 B/s rate (zero-byte transfers with positive
    duration) is a total collapse, not a missing value."""

    @staticmethod
    def delta(green_rate, red_rate) -> ActivityDelta:
        return ActivityDelta(
            activity="read:/p", green_events=1, red_events=1,
            green_rd=0.5, red_rd=0.5, green_bytes=0, red_bytes=8,
            green_rate=green_rate, red_rate=red_rate)

    def test_zero_green_rate_gives_zero_ratio(self):
        assert self.delta(0.0, 8e6).rate_ratio == 0.0

    def test_no_ratio_without_both_rates_or_with_zero_red(self):
        assert self.delta(None, 8e6).rate_ratio is None
        assert self.delta(4e6, None).rate_ratio is None
        assert self.delta(4e6, 0.0).rate_ratio is None
        assert self.delta(0.0, 0.0).rate_ratio is None
        assert self.delta(4e6, 8e6).rate_ratio == 0.5

    def test_report_and_json_keep_the_collapse(self):
        # read:/p/a moves zero bytes in green (case 0), 4 KB in red.
        log = mapped_log([(0, "read", "/p/a", 0, 10, 0, 0),
                          (1, "read", "/p/a", 0, 10, 4096, 1)])
        diff = DFGDiff.between(*PartitionEL(log))
        assert "rate x0.00" in diff.report()
        rows = diff_payload(diff)["activity_deltas"]
        assert [row["rate_ratio"] for row in rows] == [0.0]


class TestScalars:
    def test_jaccard_nodes(self, diff):
        # 4 shared of 8 total activities.
        assert diff.jaccard_nodes() == pytest.approx(4 / 8)

    def test_jaccard_edges_range(self, diff):
        assert 0 < diff.jaccard_edges() < 1

    def test_total_count_delta(self, diff):
        # ls traces: 3×9 observations; ls -l: 3×18.
        assert diff.total_count_delta() == 27 - 54

    def test_identical_logs_full_similarity(self, fig1_dir):
        log = EventLog.from_source(fig1_dir, cids={"a"})
        log.apply_mapping_fn(CallTopDirs(levels=2))
        dfg = DFG(log)
        same = DFGDiff(dfg, dfg)
        assert same.jaccard_nodes() == 1.0
        assert same.jaccard_edges() == 1.0
        assert same.total_count_delta() == 0

    def test_empty_graphs(self):
        empty = DFGDiff(DFG(), DFG())
        assert empty.jaccard_nodes() == 1.0
        assert empty.jaccard_edges() == 1.0


class TestReport:
    def test_report_contents(self, diff):
        text = diff.report(top=5)
        assert "DFG DIFF" in text
        assert "Jaccard" in text
        assert "green-only" in text
        assert "red-only" in text
        assert "load deltas" in text

    def test_report_without_stats(self, diff):
        bare = DFGDiff(diff.green_dfg, diff.red_dfg)
        text = bare.report()
        assert "load deltas" not in text
