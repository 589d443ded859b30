"""Fixtures for the ingestion-engine suite.

One small trace directory per simulate workload (ls, ior, checkpoint),
written with a nonzero ``unfinished_probability`` where the workload
allows so the streaming merge path is genuinely exercised. All three
are used to pin parallel/sequential equivalence.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.core.frame import COLUMN_ORDER, FramePools


@pytest.fixture(scope="session")
def workload_dirs(tmp_path_factory) -> dict[str, Path]:
    """``{workload: trace_dir}`` for the three simulate workloads."""
    from repro.simulate.strace_writer import (
        EXPERIMENT_A_CALLS,
        write_trace_files,
    )
    from repro.simulate.workloads.checkpoint import (
        CheckpointConfig,
        simulate_checkpoint,
    )
    from repro.simulate.workloads.ior import IORConfig, simulate_ior
    from repro.simulate.workloads.ls import generate_fig1_traces

    base = tmp_path_factory.mktemp("ingest_workloads")
    dirs: dict[str, Path] = {}

    dirs["ls"] = base / "ls"
    generate_fig1_traces(dirs["ls"])

    dirs["ior"] = base / "ior"
    ior = simulate_ior(IORConfig(
        ranks=6, ranks_per_node=3, segments=2, cid="ior", seed=424))
    write_trace_files(ior.recorders, dirs["ior"],
                      trace_calls=EXPERIMENT_A_CALLS,
                      unfinished_probability=0.2, seed=11)

    dirs["ckpt"] = base / "ckpt"
    ckpt = simulate_checkpoint(CheckpointConfig(
        ranks=4, ranks_per_node=2, steps=2, shard_bytes=2 << 20,
        transfer_bytes=1 << 20, seed=303))
    write_trace_files(ckpt.recorders, dirs["ckpt"],
                      unfinished_probability=0.2, seed=12)
    return dirs


def pools_identical(a: FramePools, b: FramePools) -> bool:
    return all(list(a.pool_for(name)) == list(b.pool_for(name))
               for name in ("case", "cid", "host", "call", "fp",
                            "activity"))


def assert_logs_identical(one, other) -> None:
    """Byte-identical event-logs: every column array and every string
    pool must match exactly — not just DFG-level equivalence."""
    assert len(one.frame) == len(other.frame)
    for column in COLUMN_ORDER:
        assert np.array_equal(one.frame.column(column),
                              other.frame.column(column)), column
    assert pools_identical(one.frame.pools, other.frame.pools)


@pytest.fixture(scope="session")
def logs_identical():
    """The byte-identity assertion, as a fixture for test modules."""
    return assert_logs_identical


def assert_cases_identical(one, other) -> None:
    """Identical ``CaseColumns`` streams: the same cases in the same
    order, with equal columns, string lists and merge statistics."""
    assert [case.name for case in one] == [case.name for case in other]
    for mine, theirs in zip(one, other):
        for column, values in mine.columns().items():
            assert np.array_equal(values, theirs.columns()[column]), column
        assert (mine.calls, mine.paths) == (theirs.calls, theirs.paths)
        assert dataclasses.asdict(mine.merge_stats) == \
            dataclasses.asdict(theirs.merge_stats)


@pytest.fixture(scope="session")
def cases_identical():
    """The per-case identity assertion, as a fixture for test modules."""
    return assert_cases_identical
