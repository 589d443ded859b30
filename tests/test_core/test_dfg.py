"""DFG construction and algebra (Sec. IV-A), incl. hypothesis laws."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util.errors import ReproError
from repro.core.activity import END_ACTIVITY, START_ACTIVITY, ActivityLog
from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import CallTopDirs
from repro.core.partition import PartitionEL
from tests.strategies import EVENT_ROWS, mapped_log


@pytest.fixture()
def ca_dfg(fig1_dir) -> DFG:
    log = EventLog.from_source(fig1_dir, cids={"a"})
    log.apply_mapping_fn(CallTopDirs(levels=2))
    return DFG(log)


class TestConstruction:
    def test_accepts_event_log_like_fig6(self, fig1_dir):
        # dfg = DFG(event_log) — the paper's step 3.
        log = EventLog.from_source(fig1_dir, cids={"a"})
        log.apply_mapping_fn(CallTopDirs(levels=2))
        assert DFG(log).n_nodes == 6

    def test_accepts_activity_log(self):
        dfg = DFG(ActivityLog([("a", "b"), ("a", "a")]))
        assert dfg.edge_count("a", "b") == 1
        assert dfg.edge_count("a", "a") == 1

    def test_empty(self):
        dfg = DFG()
        assert dfg.n_nodes == 0
        assert dfg.n_edges == 0

    def test_from_counts(self):
        dfg = DFG.from_counts({("a", "b"): 3})
        assert dfg.edge_count("a", "b") == 3
        assert dfg.nodes() == {"a", "b"}

    def test_from_counts_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            DFG.from_counts({("a", "b"): 0})

    def test_nodes_vs_activities(self, ca_dfg):
        assert ca_dfg.n_nodes == 6
        assert len(ca_dfg.activities()) == 4
        assert START_ACTIVITY in ca_dfg.nodes()
        assert END_ACTIVITY in ca_dfg.nodes()


def assert_counts_like_activity_log(log: EventLog) -> None:
    """The columnar count equals the ``ActivityLog`` trace bag."""
    for add_endpoints in (True, False):
        columnar = DFG(log, add_endpoints=add_endpoints)
        reference = DFG(ActivityLog.from_event_log(
            log, add_endpoints=add_endpoints))
        assert columnar.edges() == reference.edges()
        assert columnar._node_freq == reference._node_freq


class TestColumnarCount:
    """``DFG(event_log)`` counts from the frame's code columns."""

    @given(EVENT_ROWS, st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_equals_activity_log_reference(self, rows, rng):
        log = mapped_log(rows)
        assert_counts_like_activity_log(log)
        if len(log.cids()) == 2:
            for half in PartitionEL(log):
                assert_counts_like_activity_log(half)
        # EventLog sorts its frame by case; shuffled rows take the
        # argsort road. Both roads read each case's rows in frame order.
        order = list(range(log.n_events))
        rng.shuffle(order)
        log._frame = log.frame.select(np.array(order, dtype=np.int64))
        assert_counts_like_activity_log(log)

    def test_edge_cases_by_hand(self):
        empty = mapped_log([])
        assert DFG(empty) == DFG() == DFG(empty, add_endpoints=False)
        # c0: one event; c1: unmapped only; c2: two events.
        log = mapped_log([
            (0, "read", "/p/a", 5, 1, 1, 0),
            (1, "read", None, 6, 1, 1, 0),
            (2, "read", "/p/a", 1, 1, 1, 0),
            (2, "write", "/p/b", 2, 1, 1, 0),
        ])
        assert DFG(log).edges() == {
            (START_ACTIVITY, "read:/p/a"): 2,
            ("read:/p/a", END_ACTIVITY): 1,
            ("read:/p/a", "write:/p/b"): 1,
            ("write:/p/b", END_ACTIVITY): 1,
            (START_ACTIVITY, END_ACTIVITY): 1,
        }
        assert DFG(log).node_frequency(START_ACTIVITY) == 3
        assert DFG(log, add_endpoints=False).edges() == {
            ("read:/p/a", "write:/p/b"): 1}


class TestQueries:
    def test_edge_presence(self, ca_dfg):
        assert ca_dfg.has_edge("read:/usr/lib", "read:/usr/lib")
        assert not ca_dfg.has_edge("write:/dev/pts", "read:/usr/lib")
        assert ca_dfg.edge_count("nope", "nada") == 0

    def test_successors_predecessors(self, ca_dfg):
        succ = ca_dfg.successors("read:/usr/lib")
        assert succ == {"read:/usr/lib": 6, "read:/proc/filesystems": 3}
        pred = ca_dfg.predecessors("read:/usr/lib")
        assert pred == {START_ACTIVITY: 3, "read:/usr/lib": 6}

    def test_self_loops(self, ca_dfg):
        loops = ca_dfg.self_loops()
        assert loops["read:/usr/lib"] == 6
        assert loops["read:/proc/filesystems"] == 3

    def test_node_frequency(self, ca_dfg):
        assert ca_dfg.node_frequency("read:/usr/lib") == 9
        assert ca_dfg.node_frequency(START_ACTIVITY) == 3
        assert ca_dfg.node_frequency("ghost") == 0

    def test_total_observations(self, ca_dfg):
        # 3 traces × (8 activities + 1) edges each.
        assert ca_dfg.total_observations() == 3 * 9


class TestAlgebra:
    def test_union_is_dfg_of_merged_log(self, fig1_dir):
        """G[L(Ca)] ∪ G[L(Cb)] == G[L(Ca ∪ Cb)] — the Sec. IV-C basis."""
        mapping = CallTopDirs(levels=2)
        ca = EventLog.from_source(fig1_dir, cids={"a"}) \
            .with_mapping(mapping)
        cb = EventLog.from_source(fig1_dir, cids={"b"}) \
            .with_mapping(mapping)
        la = ActivityLog.from_event_log(ca)
        lb = ActivityLog.from_event_log(cb)
        assert DFG(la) | DFG(lb) == DFG(la + lb)

    def test_exclusive_sets_fig3d(self, fig1_dir):
        """Fig. 3d: red = ls -l exclusive nodes; exactly one green
        (ls-exclusive) edge: locale.alias → write:/dev/pts."""
        mapping = CallTopDirs(levels=2)
        green = DFG(EventLog.from_source(fig1_dir, cids={"a"})
                    .with_mapping(mapping))
        red = DFG(EventLog.from_source(fig1_dir, cids={"b"})
                  .with_mapping(mapping))
        assert green.exclusive_nodes(red) == set()
        assert red.exclusive_nodes(green) == {
            "read:/etc/nsswitch.conf", "read:/etc/passwd",
            "read:/etc/group", "read:/usr/share"}
        assert green.exclusive_edges(red) == {
            ("read:/etc/locale.alias", "write:/dev/pts")}

    def test_shared_sets(self, fig1_dir):
        mapping = CallTopDirs(levels=2)
        green = DFG(EventLog.from_source(fig1_dir, cids={"a"})
                    .with_mapping(mapping))
        red = DFG(EventLog.from_source(fig1_dir, cids={"b"})
                  .with_mapping(mapping))
        assert green.shared_nodes(red) == {
            "read:/usr/lib", "read:/proc/filesystems",
            "read:/etc/locale.alias", "write:/dev/pts"}
        assert (START_ACTIVITY, "read:/usr/lib") in \
            green.shared_edges(red)


class TestExport:
    def test_networkx_roundtrip(self, ca_dfg):
        nx = pytest.importorskip("networkx")
        graph = ca_dfg.to_networkx()
        assert isinstance(graph, nx.DiGraph)
        assert graph.number_of_nodes() == ca_dfg.n_nodes
        assert graph.number_of_edges() == ca_dfg.n_edges
        assert graph["read:/usr/lib"]["read:/usr/lib"]["count"] == 6
        assert graph.nodes["read:/usr/lib"]["frequency"] == 9

    def test_networkx_path_reachability(self, ca_dfg):
        nx = pytest.importorskip("networkx")
        graph = ca_dfg.to_networkx()
        assert nx.has_path(graph, START_ACTIVITY, END_ACTIVITY)


# -- property-based laws -----------------------------------------------------

traces = st.lists(
    st.lists(st.sampled_from("abcd"), max_size=6).map(tuple),
    min_size=0, max_size=8)


def wrap(trace):
    return (START_ACTIVITY, *trace, END_ACTIVITY)


@given(traces, traces)
def test_union_commutative(ts1, ts2):
    d1 = DFG(ActivityLog([wrap(t) for t in ts1]))
    d2 = DFG(ActivityLog([wrap(t) for t in ts2]))
    assert d1 | d2 == d2 | d1


@given(traces, traces)
def test_union_distributes_over_log_union(ts1, ts2):
    l1 = ActivityLog([wrap(t) for t in ts1])
    l2 = ActivityLog([wrap(t) for t in ts2])
    assert DFG(l1) | DFG(l2) == DFG(l1 + l2)


@given(traces)
def test_total_observations_is_sum_of_trace_lengths(ts):
    log = ActivityLog([wrap(t) for t in ts])
    dfg = DFG(log)
    assert dfg.total_observations() == sum(len(t) + 1 for t in ts)


@given(traces)
def test_every_trace_activity_is_a_node(ts):
    dfg = DFG(ActivityLog([wrap(t) for t in ts]))
    for t in ts:
        for activity in t:
            assert activity in dfg.nodes()


@given(traces)
def test_start_has_no_predecessors_end_no_successors(ts):
    dfg = DFG(ActivityLog([wrap(t) for t in ts]))
    assert dfg.predecessors(START_ACTIVITY) == {}
    assert dfg.successors(END_ACTIVITY) == {}


@given(traces)
def test_node_frequency_equals_occurrences(ts):
    dfg = DFG(ActivityLog([wrap(t) for t in ts]))
    for activity in dfg.activities():
        expected = sum(t.count(activity) for t in ts)
        assert dfg.node_frequency(activity) == expected


@given(traces)
def test_flow_conservation(ts):
    """For every activity node, in-degree weight == out-degree weight
    (every occurrence has exactly one predecessor and one successor
    thanks to the ● / ■ wrapping)."""
    dfg = DFG(ActivityLog([wrap(t) for t in ts]))
    for activity in dfg.activities():
        inflow = sum(dfg.predecessors(activity).values())
        outflow = sum(dfg.successors(activity).values())
        assert inflow == outflow == dfg.node_frequency(activity)
