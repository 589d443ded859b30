"""Larger-scale equivalence checks, opt-in via ``--run-slow``.

Tier-1 pins parallel/sequential equivalence on small directories;
these repeat it at a scale where multi-file chunks, the refilling
window and result streaming all engage (dozens of files, tens of
thousands of events). Excluded from the default run by the ``slow`` marker.
"""

from __future__ import annotations

import pytest

from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import CallTopDirs


@pytest.fixture(scope="module")
def big_ior_dir(tmp_path_factory):
    from repro.simulate.strace_writer import (
        EXPERIMENT_A_CALLS,
        write_trace_files,
    )
    from repro.simulate.workloads.ior import IORConfig, simulate_ior

    directory = tmp_path_factory.mktemp("big_ior")
    result = simulate_ior(IORConfig(
        ranks=48, ranks_per_node=24, segments=3, cid="ior", seed=4242))
    write_trace_files(result.recorders, directory,
                      trace_calls=EXPERIMENT_A_CALLS,
                      unfinished_probability=0.1, seed=7)
    return directory


@pytest.mark.slow
@pytest.mark.parametrize("workers", [2, 4, 8])
def test_parallel_equivalence_at_scale(big_ior_dir, workers,
                                       logs_identical):
    sequential = EventLog.from_source(big_ior_dir, workers=1)
    parallel = EventLog.from_source(big_ior_dir, workers=workers)
    logs_identical(parallel, sequential)


@pytest.mark.slow
def test_union_of_case_dfgs_at_scale(big_ior_dir):
    mapping = CallTopDirs(levels=2)
    log = EventLog.from_source(big_ior_dir, workers=4).with_mapping(mapping)
    shards = [DFG(EventLog(frame, mapping))
              for _, frame in log.iter_cases()]
    assert DFG.union_all(shards) == DFG(log)
