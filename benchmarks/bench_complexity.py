"""The complexity claims of Sec. V ("Implementation").

The paper states: mapping application is O(n); DFG construction is a
single O(n) pass over the activity-log; statistics are O(mn); rendering
is O(m²) worst case (complete graph). This bench measures those stages
across a size sweep of synthetic event-logs and asserts near-linear
growth for the O(n) stages (time ratio within 3× of the size ratio —
generous to absorb allocator noise).
"""

import time

import numpy as np
import pytest

from repro.core.activity import ActivityLog, START_ACTIVITY, END_ACTIVITY
from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.frame import EventFrame, FramePools
from repro.core.mapping import CallTopDirs
from repro.core.render.dot import render_dot
from repro.core.statistics import CellTable, IOStatistics

from conftest import paper_vs_measured


def synthetic_log(n_events: int, n_activities: int = 24,
                  n_cases: int = 8, seed: int = 1) -> EventLog:
    """A synthetic event-log with n events over m distinct paths."""
    rng = np.random.default_rng(seed)
    pools = FramePools()
    paths = [f"/data/dir{i % 6}/file{i}" for i in range(n_activities)]
    path_codes = np.array([pools.paths.intern(p) for p in paths],
                          dtype=np.int32)
    call_code = pools.calls.intern("read")
    case_codes = np.array(
        [pools.cases.intern(f"s{i}") for i in range(n_cases)],
        dtype=np.int32)
    cid_code = pools.cids.intern("s")
    host_code = pools.hosts.intern("h")

    case = np.repeat(case_codes, n_events // n_cases)
    case = np.resize(case, n_events)
    start = np.sort(rng.integers(0, 10**9, size=n_events)) \
        .astype(np.int64)
    columns = {
        "case": case,
        "cid": np.full(n_events, cid_code, dtype=np.int32),
        "host": np.full(n_events, host_code, dtype=np.int32),
        "rid": case.astype(np.int64),
        "pid": case.astype(np.int64) + 1000,
        "call": np.full(n_events, call_code, dtype=np.int32),
        "start": start,
        "dur": rng.integers(1, 1000, size=n_events).astype(np.int64),
        "fp": path_codes[rng.integers(0, n_activities, size=n_events)],
        "size": rng.integers(0, 1 << 20, size=n_events).astype(np.int64),
        "activity": np.full(n_events, -1, dtype=np.int32),
    }
    return EventLog(EventFrame(pools, columns))


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


SIZES = (20_000, 80_000)


def test_mapping_application_linear(benchmark):
    """Step 2 of Fig. 6 is O(n)."""
    logs = {n: synthetic_log(n) for n in SIZES}
    small = min(_timed(lambda: logs[SIZES[0]].with_mapping(
        CallTopDirs())) for _ in range(3))
    large = min(_timed(lambda: logs[SIZES[1]].with_mapping(
        CallTopDirs())) for _ in range(3))
    ratio = large / small
    size_ratio = SIZES[1] / SIZES[0]
    paper_vs_measured("Sec. V — mapping is O(n)", [
        (f"time ratio for {size_ratio:.0f}x events",
         f"≈{size_ratio:.0f}", f"{ratio:.1f}")])
    assert ratio < 3 * size_ratio
    benchmark(lambda: logs[SIZES[0]].with_mapping(CallTopDirs()))


def test_dfg_construction_linear(benchmark):
    """Step 3 of Fig. 6 is a single O(n) pass."""
    logs = {n: synthetic_log(n).with_mapping(CallTopDirs())
            for n in SIZES}
    small = min(_timed(lambda: DFG(logs[SIZES[0]])) for _ in range(3))
    large = min(_timed(lambda: DFG(logs[SIZES[1]])) for _ in range(3))
    ratio = large / small
    size_ratio = SIZES[1] / SIZES[0]
    paper_vs_measured("Sec. V — DFG build is O(n)", [
        (f"time ratio for {size_ratio:.0f}x events",
         f"≈{size_ratio:.0f}", f"{ratio:.1f}")])
    assert ratio < 3 * size_ratio
    benchmark(lambda: DFG(logs[SIZES[0]]))


def _statistics_pass(log: EventLog) -> IOStatistics:
    """The whole statistics pass, cell table included: ``IOStatistics``
    memoizes the table on the frame, so repeating it would time only
    the assembly."""
    return CellTable(log.frame).fill(IOStatistics())


def test_statistics_pass_linear_in_n(benchmark):
    """Step 4 of Fig. 6 is O(mn); for fixed m it must scale with n."""
    logs = {n: synthetic_log(n).with_mapping(CallTopDirs())
            for n in SIZES}
    small = min(_timed(lambda: _statistics_pass(logs[SIZES[0]]))
                for _ in range(3))
    large = min(_timed(lambda: _statistics_pass(logs[SIZES[1]]))
                for _ in range(3))
    ratio = large / small
    size_ratio = SIZES[1] / SIZES[0]
    paper_vs_measured("Sec. V — statistics are O(mn), fixed m", [
        (f"time ratio for {size_ratio:.0f}x events",
         f"≈{size_ratio:.0f}", f"{ratio:.1f}")])
    assert ratio < 3 * size_ratio
    benchmark(lambda: _statistics_pass(logs[SIZES[0]]))


def test_render_quadratic_in_m(benchmark):
    """Sec. V: rendering is O(m²) worst case — a complete DFG on m
    activities has m² edges; DOT emission must scale with edges."""
    def complete_dfg(m: int) -> DFG:
        edges = {(f"a{i}", f"a{j}"): 1
                 for i in range(m) for j in range(m)}
        return DFG.from_counts(edges)

    small_m, large_m = 20, 40
    small = min(_timed(lambda: render_dot(complete_dfg(small_m)))
                for _ in range(3))
    large = min(_timed(lambda: render_dot(complete_dfg(large_m)))
                for _ in range(3))
    ratio = large / small
    edge_ratio = (large_m / small_m) ** 2
    paper_vs_measured("Sec. V — render is O(m²) worst case", [
        (f"time ratio for {large_m}/{small_m} nodes",
         f"≈{edge_ratio:.0f} (m² edges)", f"{ratio:.1f}")])
    assert ratio < 3 * edge_ratio
    dfg = complete_dfg(small_m)
    benchmark(render_dot, dfg)
