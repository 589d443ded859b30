"""IncrementalDFG: per-case folds equal batch construction."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.activity import (
    END_ACTIVITY,
    START_ACTIVITY,
    ActivityLog,
)
from repro.core.dfg import DFG
from repro.core.incremental import IncrementalDFG

ALPHABET = ("read:/a", "read:/b", "write:/a", "openat:/c")


def batch_dfg(bodies: list[tuple[str, ...]], *,
              add_endpoints: bool = True) -> DFG:
    traces = [(START_ACTIVITY, *body, END_ACTIVITY) if add_endpoints
              else body for body in bodies]
    return DFG(ActivityLog(traces))


class TestExtendCase:
    def test_single_case_in_one_piece(self):
        graph = IncrementalDFG()
        graph.extend_case("a1", ["x", "y", "x"])
        assert graph.snapshot() == batch_dfg([("x", "y", "x")])

    def test_growing_case_moves_the_closing_edge(self):
        graph = IncrementalDFG()
        graph.extend_case("a1", ["x"])
        assert graph.snapshot().has_edge("x", END_ACTIVITY)
        graph.extend_case("a1", ["y"])
        snapshot = graph.snapshot()
        assert not snapshot.has_edge("x", END_ACTIVITY)
        assert snapshot.has_edge("y", END_ACTIVITY)
        assert snapshot == batch_dfg([("x", "y")])

    def test_empty_delta_registers_the_case(self):
        """A case whose events all fall outside the partial mapping
        still contributes ⟨●, ■⟩, as in batch."""
        graph = IncrementalDFG()
        graph.extend_case("a1", [])
        assert graph.snapshot() == batch_dfg([()])
        graph.extend_case("a1", [])  # still nothing mapped
        assert graph.snapshot() == batch_dfg([()])
        graph.extend_case("a1", ["x"])
        assert graph.snapshot() == batch_dfg([("x",)])

    def test_cases_commute(self):
        one = IncrementalDFG()
        one.extend_case("a1", ["x"])
        one.extend_case("b1", ["y"])
        one.extend_case("a1", ["x"])
        other = IncrementalDFG()
        other.extend_case("b1", ["y"])
        other.extend_case("a1", ["x", "x"])
        assert one.snapshot() == other.snapshot()

    def test_without_endpoints(self):
        graph = IncrementalDFG(add_endpoints=False)
        graph.extend_case("a1", ["x"])
        assert graph.snapshot() == batch_dfg([("x",)],
                                             add_endpoints=False)
        graph.extend_case("a1", ["y", "x"])
        assert graph.snapshot() == batch_dfg([("x", "y", "x")],
                                             add_endpoints=False)

    def test_counts_and_views(self):
        graph = IncrementalDFG()
        graph.extend_case("a1", ["x", "y"])
        graph.extend_case("b1", ["x"])
        assert graph.n_cases == 2
        assert graph.total_observations() == \
            graph.snapshot().total_observations()

    def test_diff_since_highlights_new_edges(self):
        graph = IncrementalDFG()
        graph.extend_case("a1", ["x"])
        baseline = graph.snapshot()
        graph.extend_case("a1", ["y"])
        diff = graph.diff_since(baseline)
        green = {d.edge for d in diff.edge_deltas()
                 if d.status == "green-only"}
        assert ("x", "y") in green
        assert ("y", END_ACTIVITY) in green
        red = {d.edge for d in diff.edge_deltas()
               if d.status == "red-only"}
        assert ("x", END_ACTIVITY) in red  # the closing edge moved


class TestStateRoundtrip:
    def test_to_from_state(self):
        graph = IncrementalDFG()
        graph.extend_case("a1", ["x", "y"])
        graph.extend_case("b1", [])
        clone = IncrementalDFG.from_state(graph.to_state())
        assert clone.snapshot() == graph.snapshot()
        clone.extend_case("a1", ["z"])
        graph.extend_case("a1", ["z"])
        assert clone.snapshot() == graph.snapshot()

    def test_from_state_rejects_bad_counts(self):
        """A ValueError, as the law checks raise, so a checkpoint load
        reports it as a corrupt sidecar naming the file."""
        state = IncrementalDFG().to_state()
        state["edges"] = [["x", "y", 0]]
        with pytest.raises(ValueError, match="non-positive"):
            IncrementalDFG.from_state(state)


class TestProperties:
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),
                  st.lists(st.sampled_from(ALPHABET), max_size=5)),
        max_size=20))
    def test_any_increment_schedule_equals_batch(self, schedule):
        """Replaying each case's activity sequence in arbitrary
        interleaved increments always reproduces the batch DFG."""
        graph = IncrementalDFG()
        totals: dict[str, list[str]] = {}
        for case_index, delta in schedule:
            case_id = f"c{case_index}"
            totals.setdefault(case_id, []).extend(delta)
            graph.extend_case(case_id, delta)
        expected = batch_dfg([tuple(body) for body in totals.values()])
        assert graph.snapshot() == expected

    @given(st.lists(st.sampled_from(ALPHABET), max_size=8),
           st.integers(min_value=1, max_value=4))
    def test_split_points_do_not_matter(self, body, pieces):
        whole = IncrementalDFG()
        whole.extend_case("a1", body)
        split = IncrementalDFG()
        step = max(1, len(body) // pieces)
        for i in range(0, max(len(body), 1), step):
            split.extend_case("a1", body[i:i + step])
        assert split.snapshot() == whole.snapshot()
