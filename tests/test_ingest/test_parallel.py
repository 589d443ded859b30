"""Process-pool fan-out: policy, determinism, and exact equivalence."""

from __future__ import annotations

import warnings
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro._util.errors import ReproError, TraceParseError
from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import CallTopDirs
from repro.ingest import parallel
from repro.ingest.parallel import (
    CHUNKS_PER_WORKER,
    MAX_AUTO_WORKERS,
    available_cpus,
    resolve_workers,
)
from repro.sources import StraceDirSource
from repro.strace.reader import read_trace_dir

WORKLOADS = ("ls", "ior", "ckpt")


class TestResolveWorkers:
    def test_auto_is_bounded_by_cpus_and_cap(self):
        auto = resolve_workers(None)
        assert 1 <= auto <= min(available_cpus(), MAX_AUTO_WORKERS)

    def test_never_more_workers_than_tasks(self):
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(None, 1) == 1

    def test_explicit_value_taken_as_is(self):
        assert resolve_workers(5, 100) == 5
        assert resolve_workers(1, 100) == 1

    def test_zero_tasks_still_one_worker(self):
        assert resolve_workers(None, 0) == 1

    def test_invalid_count_rejected(self):
        with pytest.raises(ReproError):
            resolve_workers(0)
        with pytest.raises(ReproError):
            resolve_workers(-2)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_list_shaped_entry_points_reject_bad_counts(self, workers):
        """iter_case_columns takes a discovered file list and must not
        silently degrade 0/-1 to the sequential loop."""
        from repro.ingest.parallel import iter_case_columns

        with pytest.raises(ReproError, match="workers must be >= 1"):
            # At the call boundary — not deferred to the first next().
            iter_case_columns([], workers=workers)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("workers", [1, 2, 4])
class TestParallelEquivalence:
    """Acceptance property: for every simulate workload, parallel
    ingestion with workers ∈ {1, 2, 4} is byte-identical to the
    sequential path — same cases, same merge stats, same frame arrays,
    same pools, same DFG."""

    def test_cases_identical(self, workload_dirs, workload, workers,
                             cases_identical):
        directory = workload_dirs[workload]
        sequential = list(StraceDirSource(directory,
                                          workers=1).iter_cases())
        parallel = list(StraceDirSource(directory,
                                        workers=workers).iter_cases())
        cases_identical(parallel, sequential)

    def test_event_log_byte_identical(self, workload_dirs, workload,
                                      workers, logs_identical):
        directory = workload_dirs[workload]
        sequential = EventLog.from_source(directory, workers=1)
        parallel = EventLog.from_source(directory, workers=workers)
        logs_identical(parallel, sequential)

    def test_dfg_identical(self, workload_dirs, workload, workers):
        directory = workload_dirs[workload]
        mapping = CallTopDirs(levels=2)
        sequential = DFG(EventLog.from_source(directory, workers=1)
                         .with_mapping(mapping))
        parallel = DFG(EventLog.from_source(directory,
                                                workers=workers)
                       .with_mapping(mapping))
        assert parallel == sequential


class TestParallelErrors:
    def test_parse_error_propagates_from_workers(self, tmp_path):
        (tmp_path / "a_h_1.st").write_text(
            "1  00:00:00.000001 close(3</x>) = 0 <0.000001>\n")
        (tmp_path / "b_h_2.st").write_text("garbage, not strace\n")
        with pytest.raises(TraceParseError):
            StraceDirSource(tmp_path, workers=2).event_log()

    def test_cids_filter_respected(self, workload_dirs):
        directory = workload_dirs["ls"]
        cases = StraceDirSource(directory, cids={"a"},
                                workers=2).iter_cases()
        assert [c.name.case_id for c in cases] == \
            ["a9042", "a9043", "a9045"]


class TestCliWorkersFlag:
    def test_synthesize_output_identical_across_workers(
            self, workload_dirs, capsys):
        from repro.cli import main

        directory = str(workload_dirs["ls"])
        assert main(["synthesize", directory, "--workers", "1"]) == 0
        sequential = capsys.readouterr().out
        assert main(["synthesize", directory, "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == sequential

    def test_convert_accepts_workers(self, workload_dirs, tmp_path,
                                     capsys):
        from repro.cli import main

        out = tmp_path / "ls.elog"
        assert main(["convert", str(workload_dirs["ls"]), str(out),
                     "--workers", "2"]) == 0
        assert out.exists()
        assert "6 cases" in capsys.readouterr().out


@pytest.mark.parametrize("workload", WORKLOADS)
class TestConvertEquivalence:
    def test_elog_bytes_identical_across_workers(self, workload_dirs,
                                                 workload, tmp_path):
        """The .elog container is append-ordered, so conversion must
        produce the same bytes for every worker count."""
        from repro.elstore.convert import convert_source

        sequential = convert_source(
            workload_dirs[workload], tmp_path / "seq.elog", workers=1)
        for workers in (2, 4):
            parallel = convert_source(
                workload_dirs[workload], tmp_path / f"par{workers}.elog",
                workers=workers)
            assert parallel.read_bytes() == sequential.read_bytes()


@pytest.mark.parametrize("workers", [2, 3])
class TestColumnarWireFormat:
    def test_frame_from_case_columns_matches_from_cases(
            self, workload_dirs, workers, logs_identical):
        """The columnar wire format reassembles to the exact frame the
        sequential record path builds — same arrays, same pools."""
        from repro.core.frame import EventFrame
        from repro.ingest.parallel import (
            frame_from_case_columns,
            iter_case_columns,
        )
        from repro.strace.reader import discover_trace_files

        found = discover_trace_files(workload_dirs["ior"])
        columnar = EventLog(frame_from_case_columns(list(
            iter_case_columns(found, workers=workers))))
        recorded = EventLog(EventFrame.from_cases(
            read_trace_dir(workload_dirs["ior"])))
        logs_identical(columnar, recorded)


# -- the one dispatcher: chunks, window, fallback ----------------------------


class _FakeFuture(Future):
    """A finished future that reports when its result is read."""

    def __init__(self, pool: "_FakePool") -> None:
        super().__init__()
        self._pool = pool

    def result(self, timeout=None):
        self._pool.pending -= 1
        if self.exception() is not None:
            self._pool.broken = True
        return super().result(timeout)


class _FakePool:
    """An in-process stand-in for ``ProcessPoolExecutor`` that records
    each chunk and the number of chunk futures pending at every submit.
    ``break_at`` makes that chunk's future fail with
    ``BrokenProcessPool``, and every submit after its result is read,
    as a pool whose worker died; ``fail_start`` makes every submit
    fail as a pool whose workers cannot be forked."""

    def __init__(self, break_at: int | None = None,
                 fail_start: bool = False) -> None:
        self.break_at = break_at
        self.fail_start = fail_start
        self.chunks: list[list] = []
        self.pending = 0
        self.most_pending = 0
        self.broken = False

    def __call__(self, max_workers, mp_context=None) -> "_FakePool":
        return self

    def submit(self, fn, chunk, strict):
        if self.fail_start:
            raise OSError("cannot fork a worker")
        if self.broken:
            raise BrokenProcessPool("a worker died")
        future = _FakeFuture(self)
        if len(self.chunks) == self.break_at:
            future.set_exception(BrokenProcessPool("a worker died"))
        else:
            future.set_result(fn(chunk, strict))
        self.chunks.append(chunk)
        self.pending += 1
        self.most_pending = max(self.most_pending, self.pending)
        return future

    def shutdown(self, wait=True, cancel_futures=False) -> None:
        pass


@pytest.fixture(scope="module")
def forty_files(tmp_path_factory):
    """40 trace files: at workers=2, chunks of 5 files each, 8 chunks
    against a window of 4 — so the window must refill."""
    from repro.simulate.strace_writer import write_trace_files
    from repro.simulate.workloads.ior import IORConfig, simulate_ior

    directory = tmp_path_factory.mktemp("forty")
    result = simulate_ior(IORConfig(
        ranks=40, ranks_per_node=20, segments=1, cid="ior", seed=17))
    write_trace_files(result.recorders, directory,
                      unfinished_probability=0.2, seed=3)
    return directory


def _columns(directory, workers):
    return list(StraceDirSource(directory, workers=workers).iter_cases())


class TestDispatcher:
    def test_forty_files_on_two_workers(self, forty_files,
                                        cases_identical, logs_identical):
        cases_identical(_columns(forty_files, 2),
                        _columns(forty_files, 1))
        logs_identical(
            StraceDirSource(forty_files, workers=2).event_log(),
            StraceDirSource(forty_files, workers=1).event_log())

    def test_chunks_and_window(self, forty_files, monkeypatch,
                               cases_identical):
        """A quarter of a worker's share per chunk, up to the cap; at
        most the window of chunk futures pending."""
        expected = _columns(forty_files, 1)
        for cap, sizes in ((parallel.MAX_CHUNK_FILES, [5] * 8),
                           (3, [3] * 13 + [1])):
            monkeypatch.setattr(parallel, "MAX_CHUNK_FILES", cap)
            pool = _FakePool()
            monkeypatch.setattr(parallel, "ProcessPoolExecutor", pool)
            cases_identical(_columns(forty_files, 2), expected)
            assert [len(chunk) for chunk in pool.chunks] == sizes
            assert pool.most_pending == CHUNKS_PER_WORKER * 2

    @pytest.mark.parametrize("stage", ["create", "start"])
    def test_pool_that_cannot_start_parses_in_process(
            self, forty_files, monkeypatch, cases_identical, stage):
        """Creating the pool fails (no semaphores), or starting its
        workers at the first submit does (no processes left)."""
        def refuse(max_workers, mp_context=None):
            raise OSError("no semaphores here")

        monkeypatch.setattr(
            parallel, "ProcessPoolExecutor",
            refuse if stage == "create" else _FakePool(fail_start=True))
        with pytest.warns(UserWarning) as caught:
            pooled = _columns(forty_files, 2)
        assert len(caught) == 1
        assert "remaining 40 of 40" in str(caught[0].message)
        cases_identical(pooled, _columns(forty_files, 1))

    @pytest.mark.parametrize("break_at", [0, 3])
    def test_broken_pool_parses_the_rest_in_process(
            self, forty_files, monkeypatch, cases_identical, break_at):
        """The first chunk, or a later one: every case arrives once."""
        monkeypatch.setattr(parallel, "ProcessPoolExecutor",
                            _FakePool(break_at=break_at))
        with pytest.warns(UserWarning) as caught:
            pooled = _columns(forty_files, 2)
        assert len(caught) == 1
        assert f"remaining {40 - 5 * break_at} of 40" in \
            str(caught[0].message)
        cases_identical(pooled, _columns(forty_files, 1))

    def test_one_worker_never_builds_a_pool(self, forty_files,
                                            monkeypatch):
        def forbidden(max_workers, mp_context=None):
            raise AssertionError("workers=1 must stay in process")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", forbidden)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(_columns(forty_files, 1)) == 40
