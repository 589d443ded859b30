"""Process-pool fan-out: policy, determinism, and exact equivalence."""

from __future__ import annotations

import concurrent.futures
import json
import os
import subprocess
import sys
import warnings
from concurrent.futures import Future
from pathlib import Path
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _reference_frame(column_cases, pools=None):
    """The frame assembly as one loop over the cases, each re-encoding
    its own columns: the reference any rewrite of
    :func:`frame_from_case_columns` (``EventFrame.from_cases``
    delegates to it, so comparing the two proves nothing) must
    reproduce exactly."""
    from repro.core.frame import (
        COLUMN_ORDER, MISSING, EventFrame, FramePools)

    pools = pools or FramePools()
    if not column_cases:
        return EventFrame.empty(pools)
    parts = {name: [] for name in COLUMN_ORDER}
    for case in column_cases:
        n = len(case)
        case_code = pools.cases.intern(case.name.case_id)
        cid_code = pools.cids.intern(case.name.cid)
        host_code = pools.hosts.intern(case.name.host)
        call_table = np.fromiter(
            (pools.calls.intern(s) for s in case.calls),
            dtype=np.int32, count=len(case.calls))
        path_table = np.fromiter(
            (pools.paths.intern(s) for s in case.paths),
            dtype=np.int32, count=len(case.paths))
        parts["case"].append(np.full(n, case_code, dtype=np.int32))
        parts["cid"].append(np.full(n, cid_code, dtype=np.int32))
        parts["host"].append(np.full(n, host_code, dtype=np.int32))
        parts["rid"].append(np.full(n, case.name.rid, dtype=np.int64))
        parts["pid"].append(case.pid)
        parts["call"].append(
            call_table[case.call].astype(np.int32, copy=False))
        parts["start"].append(case.start)
        parts["dur"].append(case.dur)
        if len(path_table):
            fp_codes = np.where(
                case.fp >= 0, path_table[np.clip(case.fp, 0, None)],
                np.int32(MISSING)).astype(np.int32, copy=False)
        else:
            fp_codes = np.full(n, MISSING, dtype=np.int32)
        parts["fp"].append(fp_codes)
        parts["size"].append(case.size)
        parts["activity"].append(np.full(n, MISSING, dtype=np.int32))
    return EventFrame(pools, {name: np.concatenate(arrays)
                              for name, arrays in parts.items()})


_SHARED = {"calls": ["read", "write", "openat", "close", "lseek"],
           "paths": ["/p/a", "/p/b", "/usr/lib/x", "/etc/y", "/tmp/z"]}


@st.composite
def column_case_lists(draw):
    """Random cases: empty ones, ones with no paths, MISSING fp codes,
    string lists drawn from one shared vocabulary or private to each
    case."""
    from repro.ingest.parallel import CaseColumns
    from repro.strace.naming import TraceFileName
    from repro.strace.resume import MergeStats

    shared = draw(st.booleans())
    cases = []
    for index in range(draw(st.integers(0, 5))):
        n = draw(st.integers(0, 6))

        def strings(kind, minimum):
            vocabulary = _SHARED[kind] if shared else [
                f"{kind}-{index}-{k}" for k in range(5)]
            return draw(st.lists(st.sampled_from(vocabulary), unique=True,
                                 min_size=minimum, max_size=4))

        calls = strings("calls", 1 if n else 0)
        paths = strings("paths", 0)

        def column(low, high, dtype):
            return np.array(draw(st.lists(st.integers(low, high),
                                          min_size=n, max_size=n)),
                            dtype=dtype)

        cases.append(CaseColumns(
            name=TraceFileName(cid=draw(st.sampled_from(["a", "b"])),
                               host=draw(st.sampled_from(["h1", "h2"])),
                               rid=draw(st.integers(0, 3))),
            pid=column(1, 99, np.int64),
            start=column(0, 10**12, np.int64),
            dur=column(-1, 10**6, np.int64),
            size=column(-1, 1 << 20, np.int64),
            call=column(0, len(calls) - 1, np.int32) if calls
            else np.zeros(0, dtype=np.int32),
            fp=column(-1, len(paths) - 1, np.int32),
            calls=calls, paths=paths, merge_stats=MergeStats()))
    return cases


def _prefilled_pools():
    from repro.core.frame import FramePools

    pools = FramePools()
    for value in ("write", "close"):
        pools.calls.intern(value)
    for value in ("/tmp/z", "/elsewhere"):
        pools.paths.intern(value)
    pools.cids.intern("b")
    pools.hosts.intern("h2")
    return pools


class TestFrameAssembly:
    @given(column_case_lists(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_frame_from_case_columns_matches_the_loop(self, cases,
                                                      prefilled):
        """Every column, dtype included, and every pool's order equal
        the per-case loop's."""
        from repro.core.frame import COLUMN_ORDER
        from repro.ingest.parallel import frame_from_case_columns

        expected = _reference_frame(
            cases, _prefilled_pools() if prefilled else None)
        frame = frame_from_case_columns(
            cases, _prefilled_pools() if prefilled else None)
        for name in COLUMN_ORDER:
            assert frame.column(name).dtype == expected.column(name).dtype
            assert np.array_equal(frame.column(name),
                                  expected.column(name)), name
        for pool in ("cases", "cids", "hosts", "calls", "paths",
                     "activities"):
            assert list(getattr(frame.pools, pool)) == \
                list(getattr(expected.pools, pool)), pool

    @pytest.mark.parametrize("call, fp, paths, message", [
        ([-1, 0], [-1, -1], [], r"call codes span \[-1, 0\], outside "
                                r"\[0, 2\)"),
        ([0, 2], [-1, 0], ["/x"], r"call codes span \[0, 2\], outside "
                                  r"\[0, 2\)"),
        ([1, 0], [0, 3], [], r"fp codes span \[0, 3\], outside "
                             r"\[-1, 0\)"),
        ([1, 0], [-2, 0], ["/x"], r"fp codes span \[-2, 0\], outside "
                                  r"\[-1, 1\)"),
    ], ids=["negative-call", "call-past-calls", "fp-without-paths",
            "fp-below-missing"])
    def test_codes_outside_their_strings_rejected(self, call, fp, paths,
                                                  message):
        """A negative call code would index the case's calls from the
        end, and an fp code past its paths would become MISSING."""
        from repro.ingest.parallel import CaseColumns, frame_from_case_columns
        from repro.strace.naming import TraceFileName
        from repro.strace.resume import MergeStats

        case = CaseColumns(
            name=TraceFileName(cid="a", host="h", rid=1),
            pid=np.ones(2, dtype=np.int64),
            start=np.arange(2, dtype=np.int64),
            dur=np.ones(2, dtype=np.int64),
            size=np.ones(2, dtype=np.int64),
            call=np.array(call, dtype=np.int32),
            fp=np.array(fp, dtype=np.int32),
            calls=["read", "write"], paths=paths, merge_stats=MergeStats())
        with pytest.raises(ReproError, match="case 'a1': " + message):
            frame_from_case_columns([case])


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
            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                                pool)
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
            concurrent.futures, "ProcessPoolExecutor",
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
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            forbidden)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(_columns(forty_files, 1)) == 40


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="forked pool workers are Linux-only")
def test_pool_workers_import_nothing(forty_files, tmp_path):
    """A pool is created per ``event_log()``, so a module a worker
    imports lazily is imported again on every call: everything the
    parse needs must already be loaded when the parent forks. The
    probe records what one fresh process's workers import inside
    ``_parse_chunk``."""
    probe = tmp_path / "imports.jsonl"
    script = (
        "import json, sys\n"
        "from repro.ingest import parallel\n"
        "parse = parallel._parse_chunk\n"
        "def probe(chunk, strict):\n"
        "    before = set(sys.modules)\n"
        "    cases = parse(chunk, strict)\n"
        f"    with open({str(probe)!r}, 'a') as out:\n"
        "        print(json.dumps(sorted(set(sys.modules) - before)),\n"
        "              file=out)\n"
        "    return cases\n"
        "parallel._parse_chunk = probe\n"
        "from repro.sources import StraceDirSource\n"
        f"StraceDirSource({str(forty_files)!r}, workers=2).event_log()\n")
    src = Path(parallel.__file__).resolve().parents[2]
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})
    imported = [json.loads(line) for line in
                probe.read_text(encoding="utf-8").splitlines()]
    assert len(imported) == 8  # one line per chunk
    assert imported == [[]] * 8
