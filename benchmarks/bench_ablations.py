"""Ablations of the design choices behind the columnar pipeline.

1. **Dictionary encoding / distinct-pair mapping fast path** — the
   columnar frame evaluates call/fp-only mappings once per distinct
   (call, fp) pair instead of per event. Ablation: force the row-wise
   path and compare.
2. **Sweep-line max-concurrency** — O(n log n) vectorized sweep vs the
   O(n²) reference (both proven equal by hypothesis tests).
3. **Store chunk size** — write/read cost of the .elog container across
   chunk granularities.
"""

import numpy as np
import pytest

from repro._util.intervals import max_concurrency, max_concurrency_naive
from repro.core.eventlog import EventLog
from repro.core.mapping import CallTopDirs
from repro.elstore.reader import EventLogStore
from repro.elstore.writer import EventLogWriter
from repro.strace.naming import TraceFileName
from repro.strace.parser import ParsedRecord

from bench_complexity import synthetic_log
from conftest import paper_vs_measured


class TestMappingFastPath:
    N = 60_000

    @pytest.fixture(scope="class")
    def log(self):
        return synthetic_log(self.N)

    def test_fast_path(self, benchmark, log):
        mapping = CallTopDirs(levels=2)
        mapped = benchmark(log.with_mapping, mapping)
        assert len(mapped.activities()) > 0

    def test_rowwise_ablation(self, benchmark, log):
        """Same mapping, forced through the per-event Python loop."""
        inner = CallTopDirs(levels=2)
        mapped = benchmark(log.with_mapping,
                           lambda event: inner.map_event(event))
        assert len(mapped.activities()) > 0

    def test_results_identical(self, benchmark, log):
        inner = CallTopDirs(levels=2)
        fast, slow = benchmark.pedantic(
            lambda: (log.with_mapping(inner),
                     log.with_mapping(
                         lambda event: inner.map_event(event))),
            rounds=1, iterations=1)
        pools_fast = fast.frame.pools.activities
        pools_slow = slow.frame.pools.activities
        fast_names = [pools_fast.decode(int(c))
                      for c in fast.frame.column("activity")]
        slow_names = [pools_slow.decode(int(c))
                      for c in slow.frame.column("activity")]
        assert fast_names == slow_names


class TestConcurrencyAblation:
    N = 2_000

    @pytest.fixture(scope="class")
    def intervals(self):
        rng = np.random.default_rng(11)
        starts = rng.integers(0, 10**6, size=self.N).astype(float)
        durations = rng.integers(0, 10**4, size=self.N).astype(float)
        return np.stack([starts, starts + durations], axis=1)

    def test_sweep_line(self, benchmark, intervals):
        mc = benchmark(max_concurrency, intervals)
        assert mc >= 1

    def test_naive_reference_ablation(self, benchmark, intervals):
        mc = benchmark.pedantic(max_concurrency_naive, args=(intervals,),
                                rounds=2, iterations=1)
        assert mc == max_concurrency(intervals)


class TestStoreChunkSize:
    N = 50_000

    @pytest.fixture(scope="class")
    def records(self):
        return [
            ParsedRecord(pid=1, start_us=i, call="read",
                         fp=f"/data/f{i % 50}", size=i % 4096,
                         dur_us=3, errno=None)
            for i in range(self.N)
        ]

    @pytest.mark.parametrize("chunk_values", [256, 4096, 65536])
    def test_write_read_roundtrip(self, benchmark, records, tmp_path,
                                  chunk_values):
        counter = [0]

        def roundtrip():
            counter[0] += 1
            path = tmp_path / f"c{chunk_values}_{counter[0]}.elog"
            with EventLogWriter(path, chunk_values=chunk_values) as w:
                w.add_case_records(TraceFileName("a", "h", 1), records)
            return EventLogStore(path).read_case("a1")

        data = benchmark.pedantic(roundtrip, rounds=3, iterations=1)
        assert len(data["start"]) == self.N
