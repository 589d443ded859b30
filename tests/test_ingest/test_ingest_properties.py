"""Property-based laws of the ingestion engine (hypothesis).

Two families, matching the paper's Sec. IV-A algebra:

* **Shard-merge correctness** — for *any* activity log, the DFG of the
  union of cases equals the union of per-case DFGs. This is the law
  live folding rests on, checked here over randomly generated logs
  rather than just the simulate workloads.
* **Parallel/sequential equivalence** — randomly generated trace
  directories ingest byte-identically for workers ∈ {1, 2, 4}.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.activity import ActivityLog
from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.frame import COLUMN_ORDER
from repro.core.mapping import CallTopDirs
from repro.simulate.recording import ProcessRecorder
from repro.simulate.strace_writer import write_trace_files

ALPHABET = ("read:/a", "read:/b", "write:/a", "openat:/c", "close:/d")

activities = st.sampled_from(ALPHABET)
traces = st.lists(activities, max_size=10).map(
    lambda body: ("●", *body, "■"))
activity_logs = st.lists(traces, min_size=1, max_size=10)


class TestUnionLaws:
    @given(activity_logs)
    def test_dfg_of_union_equals_union_of_case_dfgs(self, all_traces):
        """G[L(c1 ∪ ... ∪ cn)] == G[L(c1)] ∪ ... ∪ G[L(cn)]."""
        whole = DFG(ActivityLog(all_traces))
        shards = [DFG(ActivityLog([trace])) for trace in all_traces]
        assert DFG.union_all(shards) == whole

    @given(activity_logs, st.randoms(use_true_random=False))
    def test_union_is_order_independent(self, all_traces, rng):
        shuffled = list(all_traces)
        rng.shuffle(shuffled)
        ordered = DFG.union_all(
            DFG(ActivityLog([trace])) for trace in all_traces)
        permuted = DFG.union_all(
            DFG(ActivityLog([trace])) for trace in shuffled)
        assert ordered == permuted

    @given(activity_logs, st.integers(min_value=1, max_value=4))
    def test_any_split_merges_to_whole(self, all_traces, n_shards):
        """Not just per-case shards: *every* partition of the log into
        shards folds back to the whole-log DFG."""
        whole = DFG(ActivityLog(all_traces))
        buckets: list[list[tuple[str, ...]]] = [
            [] for _ in range(n_shards)]
        for index, trace in enumerate(all_traces):
            buckets[index % n_shards].append(trace)
        shards = [DFG(ActivityLog(bucket))
                  for bucket in buckets if bucket]
        assert DFG.union_all(shards) == whole

    @given(activity_logs)
    def test_total_observations_additive(self, all_traces):
        """Σ edge counts == Σ over traces of (len(trace) - 1): the
        endpoint-wrapped invariant, preserved by union."""
        whole = DFG(ActivityLog(all_traces))
        assert whole.total_observations() == \
            sum(len(trace) - 1 for trace in all_traces)


# -- randomized trace directories -------------------------------------------

CALLS = ("read", "write", "openat", "close")
PATHS = ("/p/scratch/run/a", "/p/scratch/run/b", "/etc/conf",
         "/usr/lib/libx.so")

record_specs = st.tuples(
    st.sampled_from(CALLS),
    st.sampled_from(PATHS),
    st.integers(min_value=1, max_value=400),     # duration µs
    st.integers(min_value=0, max_value=4096),    # size
)
case_specs = st.lists(record_specs, max_size=12)


def _write_random_dir(directory, all_cases) -> None:
    recorders = []
    for case_index, records in enumerate(all_cases):
        recorder = ProcessRecorder(
            cid="gh"[case_index % 2], host=f"n{case_index % 3}",
            rid=1000 + case_index, pid=2000 + case_index)
        clock = 10_000 * case_index
        for call, path, dur, size in records:
            kwargs = dict(call=call, start_us=clock, dur_us=dur,
                          path=path, fd=3)
            if call in ("read", "write"):
                kwargs.update(size=size, requested=size)
            elif call == "openat":
                kwargs.update(ret_fd=3, args_hint="O_RDONLY")
            recorder.record(**kwargs)
            clock += dur + 7
        recorders.append(recorder)
    write_trace_files(recorders, directory, unfinished_probability=0.2,
                      seed=5)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(all_cases=st.lists(case_specs, min_size=1, max_size=6),
       workers=st.sampled_from([2, 4]))
def test_random_dirs_ingest_identically_in_parallel(
        tmp_path_factory, all_cases, workers):
    directory = tmp_path_factory.mktemp("rand")
    _write_random_dir(directory, all_cases)
    sequential = EventLog.from_source(directory, workers=1)
    parallel = EventLog.from_source(directory, workers=workers)
    for column in COLUMN_ORDER:
        assert np.array_equal(sequential.frame.column(column),
                              parallel.frame.column(column))
    mapping = CallTopDirs(levels=2)
    assert DFG(sequential.with_mapping(mapping)) == \
        DFG(parallel.with_mapping(mapping))
