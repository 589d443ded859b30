"""Cross-source equivalence: every route into an EventLog agrees.

The acceptance bar of the source redesign: ``StraceDirSource`` (and
with it ``EventLog.from_source``) is byte-identical to the sequential
``workers=1`` path at every worker count, the simulator source is
byte-identical to write-files-then-ingest, and the store/CSV sources
reproduce their legacy readers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import CallTopDirs
from repro.sources import (
    ElstoreSource,
    SimulationSource,
    StraceDirSource,
    combine_merge_stats,
    open_source,
)


def _sequential(directory) -> EventLog:
    """The reference every other road must match: one process, one
    file at a time."""
    return StraceDirSource(directory, workers=1).event_log()


def _same_case(got, want) -> None:
    assert (got.name, got.calls, got.paths, got.merge_stats) == \
        (want.name, want.calls, want.paths, want.merge_stats)
    for column, values in want.columns().items():
        np.testing.assert_array_equal(got.columns()[column], values)


class TestStraceDirSource:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_byte_identical_to_legacy(self, ls_traces, workers,
                                      logs_identical):
        sequential = _sequential(ls_traces)
        via_source = StraceDirSource(
            ls_traces, workers=workers).event_log()
        via_uri = open_source(f"strace:{ls_traces}",
                              workers=workers).event_log()
        logs_identical(via_source, sequential)
        logs_identical(via_uri, sequential)

    def test_from_source_bare_path(self, ls_traces, logs_identical):
        logs_identical(EventLog.from_source(str(ls_traces)),
                       _sequential(ls_traces))

    def test_iter_cases_matches_event_log(self, ls_traces,
                                          logs_identical):
        from repro.ingest.parallel import frame_from_case_columns

        source = StraceDirSource(ls_traces)
        assembled = EventLog(
            frame_from_case_columns(list(source.iter_cases())))
        logs_identical(assembled, source.event_log())

    def test_cids_filter(self, ls_traces):
        log = EventLog.from_source(str(ls_traces), cids={"a"})
        assert log.cids() == ["a"]
        assert log.n_cases == 3

    def test_merge_stats_exposed_per_case(self, ls_traces):
        cases = list(StraceDirSource(ls_traces).iter_cases())
        total = combine_merge_stats(c.merge_stats for c in cases)
        assert total.merged_pairs == 0  # ls traces have no splits
        assert len(cases) == 6


class TestElstoreSource:
    def test_event_log_matches_legacy_reader(self, ls_store,
                                             logs_identical):
        from repro.elstore.reader import read_event_log

        logs_identical(ElstoreSource(ls_store).event_log(),
                       read_event_log(ls_store))

    def test_repack_is_byte_identical(self, ls_store, tmp_path):
        """elog → iter_cases → writer reproduces the container bytes."""
        from repro.elstore.convert import convert_source

        out = convert_source(f"elog:{ls_store}", tmp_path / "re.elog")
        assert out.read_bytes() == ls_store.read_bytes()

    def test_iter_cases_reads_no_per_chunk_view(self, ls_store, tmp_path,
                                                monkeypatch):
        """``iter_cases`` takes cid, host and rid from the store's flat
        tables: with ``case_meta`` unavailable its cases, a cid subset
        and an elog → elog repack are unchanged."""
        from repro.elstore.convert import convert_source
        from repro.elstore.reader import EventLogStore

        every = list(ElstoreSource(ls_store).iter_cases())
        subset = list(ElstoreSource(ls_store, cids={"b"}).iter_cases())

        def refuse(self, case_id):
            raise AssertionError(f"case_meta({case_id!r}) was built")

        monkeypatch.setattr(EventLogStore, "case_meta", refuse)
        for cids, cases in ((None, every), ({"b"}, subset)):
            got = list(ElstoreSource(ls_store, cids=cids).iter_cases())
            assert len(got) == len(cases)
            for case, want in zip(got, cases):
                _same_case(case, want)
        assert [case.name.cid for case in subset] == ["b"] * len(subset)
        out = convert_source(f"elog:{ls_store}", tmp_path / "re.elog")
        assert out.read_bytes() == ls_store.read_bytes()

    def test_store_equals_dir_after_mapping(self, ls_traces, ls_store):
        mapping = CallTopDirs(levels=2)
        from_dir = EventLog.from_source(
            f"strace:{ls_traces}").with_mapping(mapping)
        from_store = EventLog.from_source(
            f"elog:{ls_store}").with_mapping(mapping)
        assert DFG(from_dir) == DFG(from_store)

    def test_cids_filter(self, ls_store):
        log = EventLog.from_source(str(ls_store), cids={"b"})
        assert log.cids() == ["b"]


@pytest.mark.parametrize("char", ["\x0c", "\x85", "\u2028", "\x1e"],
                         ids=["form-feed", "NEL", "line-sep", "record-sep"])
def test_text_ends_lines_where_a_file_does(tmp_path, char):
    """In-memory strace text ends a line only at ``\\r\\n``, ``\\r`` or
    ``\\n``, as a trace file does, so a path holding a character
    ``str.splitlines`` would also break at parses as from the file."""
    from repro.sources.base import case_columns_from_text

    line = (f'7 10:00:00.000001 openat(AT_FDCWD, "/p/a{char}b", '
            f"O_RDONLY) = 3</p/a{char}b> <0.000002>")
    (tmp_path / "a_host1_1.st").write_text(line + "\n", encoding="utf-8")
    (from_file,) = StraceDirSource(tmp_path, workers=1).iter_cases()
    assert from_file.paths == [f"/p/a{char}b"]
    for text in (line, line + "\n", line + "\r\n", line + "\r"):
        _same_case(case_columns_from_text(from_file.name, text), from_file)


class TestSimulationSource:
    def test_sim_ls_byte_identical_to_dir_ingest(self, ls_traces,
                                                 logs_identical):
        logs_identical(SimulationSource("ls").event_log(),
                       EventLog.from_source(f"strace:{ls_traces}"))

    @pytest.mark.parametrize("spec", [
        "sim:ior?ranks=4&ranks_per_node=2&segments=1",
        "sim:ior?ranks=4&ranks_per_node=2&segments=1&fpp=1&trace_lseek=1",
        "sim:checkpoint?ranks=4&ranks_per_node=2&steps=2",
    ])
    def test_sim_equals_write_then_ingest(self, spec, tmp_path,
                                          logs_identical):
        """The no-temp-dir path reproduces the files-on-disk path."""
        from repro.simulate.strace_writer import write_trace_files

        source = open_source(spec)
        recorders, trace_calls = source._runner(source.options)
        write_trace_files(recorders, tmp_path / "sim",
                          trace_calls=trace_calls)
        logs_identical(source.event_log(),
                       EventLog.from_source(str(tmp_path / "sim")))

    def test_deterministic_across_calls(self, logs_identical):
        source = open_source("sim:ior?ranks=4&ranks_per_node=2&segments=1")
        logs_identical(source.event_log(), source.event_log())

    def test_cids_filter(self):
        log = EventLog.from_source("sim:ls", cids={"a"})
        assert log.cids() == ["a"]
        assert log.n_cases == 3

    def test_full_pipeline_runs(self):
        log = EventLog.from_source(
            "sim:ior?ranks=4&ranks_per_node=2&segments=1")
        log.apply_mapping_fn(CallTopDirs(levels=2))
        dfg = DFG(log)
        assert dfg.n_nodes > 0


class TestConvertSource:
    def test_convert_accepts_every_scheme(self, ls_traces, ls_store,
                                          tmp_path, logs_identical):
        from repro.elstore.convert import convert_source
        from repro.sources.csv_log import write_csv_log

        base = EventLog.from_source(f"strace:{ls_traces}")
        write_csv_log(base, tmp_path / "ls.csv")

        for i, spec in enumerate([f"strace:{ls_traces}",
                                  f"elog:{ls_store}",
                                  f"csv:{tmp_path / 'ls.csv'}",
                                  "sim:ls"]):
            out = convert_source(spec, tmp_path / f"out{i}.elog")
            converted = EventLog.from_source(f"elog:{out}")
            assert converted.n_events == base.n_events
            assert converted.case_ids() == base.case_ids()
            np.testing.assert_array_equal(
                converted.frame.column("start"),
                base.frame.column("start"))

    def test_strace_convert_unchanged_by_redesign(self, ls_traces,
                                                  ls_store, tmp_path):
        """A bare directory (the session fixture's conversion) and the
        explicit ``strace:`` scheme on a process pool write the same
        bytes."""
        from repro.elstore.convert import convert_source

        out = convert_source(f"strace:{ls_traces}", tmp_path / "x.elog",
                             workers=2)
        assert out.read_bytes() == ls_store.read_bytes()


class TestDeprecatedShims:
    """``from_source`` is the one constructor the per-format shims
    (``from_strace_dir``, ``from_store``) gave way to."""

    def test_session_from_source_all_schemes(self, ls_traces, ls_store):
        from repro.pipeline.session import InspectionSession

        for spec in (f"strace:{ls_traces}", f"elog:{ls_store}",
                     "sim:ls"):
            session = InspectionSession.from_source(spec)
            session.map_default()
            assert session.dfg.n_nodes > 0
