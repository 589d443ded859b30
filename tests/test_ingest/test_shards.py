"""Per-case DFG shards and the union algebra that folds them.

Sec. IV-A: ``G[L(Ca ∪ Cb)] = G[L(Ca)] ∪ G[L(Cb)]`` with summed
weights. Live folding (:mod:`repro.core.incremental`) rests on this
law; here it is checked directly on ``EventLog.iter_cases`` and
``DFG.union_all`` for every simulate workload.
"""

from __future__ import annotations

import pytest

from repro.core.activity import ActivityLog
from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import CallOnly, CallTopDirs
from repro.strace.reader import read_trace_dir

WORKLOADS = ("ls", "ior", "ckpt")


class TestUnionAll:
    def test_empty_fold_is_empty_graph(self):
        merged = DFG.union_all([])
        assert merged.n_nodes == 0
        assert merged.n_edges == 0

    def test_singleton_fold_is_identity(self):
        dfg = DFG(ActivityLog([("●", "a", "b", "■")]))
        assert DFG.union_all([dfg]) == dfg

    def test_matches_repeated_binary_union(self):
        shards = [
            DFG(ActivityLog([("●", "a", "b", "■")])),
            DFG(ActivityLog([("●", "b", "b", "■")])),
            DFG(ActivityLog([("●", "a", "c", "■")])),
        ]
        folded = DFG.union_all(shards)
        binary = shards[0] | shards[1] | shards[2]
        assert folded == binary

    def test_does_not_mutate_inputs(self):
        left = DFG(ActivityLog([("●", "a", "■")]))
        right = DFG(ActivityLog([("●", "a", "■")]))
        before = left.edges()
        DFG.union_all([left, right])
        assert left.edges() == before


def case_dfgs(log: EventLog, *, add_endpoints: bool = True) -> list[DFG]:
    """One DFG per case of a mapped log, from its per-case frames."""
    return [DFG(EventLog(frame, log.mapping), add_endpoints=add_endpoints)
            for _, frame in log.iter_cases()]


@pytest.mark.parametrize("workload", WORKLOADS)
class TestShardMergeCorrectness:
    """The union of per-case shards == the whole-log DFG, for every
    simulate workload."""

    def test_iter_case_dfgs_folds_to_whole(self, workload_dirs,
                                           workload):
        log = EventLog.from_source(workload_dirs[workload]) \
            .with_mapping(CallTopDirs(levels=2))
        shards = case_dfgs(log)
        assert len(shards) == log.n_cases
        assert DFG.union_all(shards) == DFG(log)

    def test_case_dfg_matches_single_case_log(self, workload_dirs,
                                              workload):
        """A case's slice of the whole log builds the same DFG as a log
        of that case alone."""
        mapping = CallTopDirs(levels=2)
        case = read_trace_dir(workload_dirs[workload])[0]
        expected = DFG(EventLog.from_cases([case]).with_mapping(mapping))
        log = EventLog.from_source(workload_dirs[workload]) \
            .with_mapping(mapping)
        frame = dict(log.iter_cases())[case.case_id]
        assert DFG(EventLog(frame, mapping)) == expected


class TestShardOptions:
    def test_without_endpoints(self, workload_dirs):
        log = EventLog.from_source(workload_dirs["ls"]) \
            .with_mapping(CallOnly())
        sharded = DFG.union_all(case_dfgs(log, add_endpoints=False))
        assert sharded == DFG(log, add_endpoints=False)
        assert sharded.nodes() == sharded.activities()  # no sentinels

    def test_cids_filter(self, workload_dirs):
        log = EventLog.from_source(workload_dirs["ls"], cids={"b"}) \
            .with_mapping(CallOnly())
        shards = case_dfgs(log)
        assert len(shards) == 3
        assert DFG.union_all(shards) == DFG(log)
