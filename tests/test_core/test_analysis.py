"""Graph analytics over DFGs."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.activity import (
    END_ACTIVITY,
    START_ACTIVITY,
    ActivityLog,
)
from repro.core.analysis import (
    bottleneck_activities,
    dominant_path,
    edge_probabilities,
    entropy_of_successors,
    find_cycles,
    reachable_activities,
    variant_coverage,
)
from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import CallTopDirs
from repro.core.statistics import IOStatistics


def wrap(*traces):
    return ActivityLog([(START_ACTIVITY, *t, END_ACTIVITY)
                        for t in traces])


@pytest.fixture()
def ls_log(fig1_dir) -> EventLog:
    log = EventLog.from_source(fig1_dir)
    log.apply_mapping_fn(CallTopDirs(levels=2))
    return log


class TestEdgeProbabilities:
    def test_rows_sum_to_one(self, ls_log):
        dfg = DFG(ls_log)
        probs = edge_probabilities(dfg)
        outgoing: dict[str, float] = {}
        for (a1, _a2), p in probs.items():
            outgoing[a1] = outgoing.get(a1, 0.0) + p
        for node, total in outgoing.items():
            assert total == pytest.approx(1.0), node

    def test_deterministic_chain(self):
        dfg = DFG(wrap(("a", "b")))
        probs = edge_probabilities(dfg)
        assert probs[(START_ACTIVITY, "a")] == 1.0
        assert probs[("a", "b")] == 1.0

    def test_branching(self):
        dfg = DFG(wrap(("a", "b"), ("a", "b"), ("a", "c")))
        probs = edge_probabilities(dfg)
        assert probs[("a", "b")] == pytest.approx(2 / 3)
        assert probs[("a", "c")] == pytest.approx(1 / 3)


class TestDominantPath:
    def test_single_variant_recovers_trace(self):
        dfg = DFG(wrap(("a", "b", "c")))
        assert dominant_path(dfg) == [
            START_ACTIVITY, "a", "b", "c", END_ACTIVITY]

    def test_majority_branch_wins(self):
        dfg = DFG(wrap(("a", "b"), ("a", "b"), ("a", "c")))
        assert dominant_path(dfg) == [
            START_ACTIVITY, "a", "b", END_ACTIVITY]

    def test_self_loops_do_not_trap(self, ls_log):
        # read:/usr/lib has a heavy self-loop; the walk must escape.
        path = dominant_path(DFG(ls_log))
        assert path[0] == START_ACTIVITY
        assert path[-1] == END_ACTIVITY
        assert len(path) == len(set(path))  # no revisits

    def test_empty_dfg(self):
        assert dominant_path(DFG()) == []


class TestVariantCoverage:
    def test_homogeneous_log(self, fig1_dir):
        log = EventLog.from_source(fig1_dir, cids={"a"})
        log.apply_mapping_fn(CallTopDirs(levels=2))
        coverage = variant_coverage(log)
        assert coverage == [(1, 1.0)]

    def test_two_variant_log(self, ls_log):
        coverage = variant_coverage(ls_log)
        assert coverage == [(1, 0.5), (2, 1.0)]

    def test_k_truncation(self, ls_log):
        assert variant_coverage(ls_log, k=1) == [(1, 0.5)]

    def test_accepts_activity_log(self):
        coverage = variant_coverage(wrap(("a",), ("a",), ("b",)))
        assert coverage[0] == (1, pytest.approx(2 / 3))

    def test_empty(self):
        assert variant_coverage(ActivityLog([])) == []


def _nine_node_dfg() -> DFG:
    """6 random traces of 40 steps over 9 activities: 31 two-cycles
    among tens of thousands of cycles, far past the default cap."""
    rng = random.Random(5)
    return DFG(wrap(*(tuple(rng.choice("abcdefghi") for _ in range(40))
                      for _ in range(6))))


class TestCycles:
    def test_acyclic_chain(self):
        assert find_cycles(DFG(wrap(("a", "b", "c")))) == []

    def test_self_loops_excluded(self):
        assert find_cycles(DFG(wrap(("a", "a", "b")))) == []

    def test_two_cycle_found(self):
        cycles = find_cycles(DFG(wrap(("a", "b", "a", "b"))))
        assert any(sorted(c) == ["a", "b"] for c in cycles)

    def test_ior_phase_cycle(self):
        # write...write read...read per segment → cycle via segments.
        dfg = DFG(wrap(("w", "r", "w", "r")))
        cycles = find_cycles(dfg)
        assert any(sorted(c) == ["r", "w"] for c in cycles)

    def test_each_cycle_starts_at_its_least_node(self):
        assert find_cycles(DFG(wrap(tuple("abcacba")))) == [
            ["a", "b"], ["a", "c"], ["b", "c"],
            ["a", "b", "c"], ["a", "c", "b"]]

    def test_cap_keeps_the_shortest(self):
        cycles = find_cycles(_nine_node_dfg())
        assert len(cycles) == 100
        assert [len(c) for c in cycles[:31]] == [2] * 31
        assert all(len(c) == 3 for c in cycles[31:])
        assert cycles == sorted(cycles, key=lambda c: (len(c), c))

    @pytest.mark.parametrize("max_cycles", [0, 1, 7])
    def test_cap_is_a_prefix(self, max_cycles):
        dfg = _nine_node_dfg()
        assert find_cycles(dfg, max_cycles=max_cycles) == \
            find_cycles(dfg)[:max_cycles]

    def test_independent_of_the_hash_seed(self):
        """Set and dict order must not reach the result: two hash seeds
        print the same cycles."""
        script = (
            "from tests.test_core.test_analysis import (DFG,\n"
            "    _nine_node_dfg, find_cycles, wrap)\n"
            "print(find_cycles(DFG(wrap(tuple('abcacba')))))\n"
            "print(find_cycles(_nine_node_dfg()))\n")
        repo = Path(__file__).resolve().parents[2]
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script], check=True, cwd=repo,
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(
                         (str(repo / "src"), str(repo))),
                     "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "4")}
        assert len(outputs) == 1


def _canonical(cycle: list[str]) -> list[str]:
    least = cycle.index(min(cycle))
    return cycle[least:] + cycle[:least]


small_traces = st.lists(
    st.lists(st.sampled_from("abcde"), max_size=10).map(tuple),
    min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(small_traces, st.integers(min_value=0, max_value=30))
def test_cycles_match_networkx(traces, max_cycles):
    """Under the cap the cycles are networkx's simple cycles; over it,
    their shortest prefix in (length, node list) order."""
    nx = pytest.importorskip("networkx")
    dfg = DFG(wrap(*traces))
    graph = dfg.to_networkx()
    graph.remove_edges_from([(a, a) for a in dfg.self_loops()])
    expected = sorted((_canonical(c) for c in nx.simple_cycles(graph)),
                      key=lambda c: (len(c), c))
    assert find_cycles(dfg, max_cycles=max_cycles) == \
        expected[:max_cycles]
    assert find_cycles(dfg, max_cycles=len(expected) + 1) == expected


@settings(max_examples=60, deadline=None)
@given(small_traces)
def test_reachable_matches_networkx(traces):
    nx = pytest.importorskip("networkx")
    dfg = DFG(wrap(*traces))
    graph = dfg.to_networkx()
    for node in dfg.nodes() | {"ghost"}:
        expected = nx.descendants(graph, node) if node in graph else set()
        assert reachable_activities(dfg, node) == expected


class TestBottlenecks:
    def test_cumulative_truncation(self, ls_log):
        stats = IOStatistics(ls_log)
        ranked = bottleneck_activities(stats, threshold=0.5)
        assert ranked[-1][2] >= 0.5
        # Cumulative shares increase monotonically.
        shares = [c for _, _, c in ranked]
        assert shares == sorted(shares)

    def test_full_threshold_includes_everything(self, ls_log):
        stats = IOStatistics(ls_log)
        ranked = bottleneck_activities(stats, threshold=1.1)
        assert len(ranked) == len(stats)

    def test_heaviest_first(self, ls_log):
        stats = IOStatistics(ls_log)
        ranked = bottleneck_activities(stats)
        assert ranked[0][0] == stats.activities()[0]


class TestReachabilityEntropy:
    def test_reachable_from_start(self, ls_log):
        dfg = DFG(ls_log)
        reachable = reachable_activities(dfg, START_ACTIVITY)
        assert reachable == dfg.activities() | {END_ACTIVITY}

    def test_reachable_from_unknown(self, ls_log):
        assert reachable_activities(DFG(ls_log), "ghost") == set()

    def test_origin_excluded_on_a_cycle_through_it(self):
        dfg = DFG(wrap(("a", "b", "a")))
        assert reachable_activities(dfg, "a") == {"b", END_ACTIVITY}

    def test_entropy_deterministic_node_zero(self):
        dfg = DFG(wrap(("a", "b")))
        assert entropy_of_successors(dfg, "a") == 0.0

    def test_entropy_even_branch_one_bit(self):
        dfg = DFG(wrap(("a", "b"), ("a", "c")))
        assert entropy_of_successors(dfg, "a") == pytest.approx(1.0)

    def test_entropy_of_sink_zero(self):
        dfg = DFG(wrap(("a",)))
        assert entropy_of_successors(dfg, END_ACTIVITY) == 0.0
