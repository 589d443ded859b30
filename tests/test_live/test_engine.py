"""LiveIngest: directory polls equal one-shot batch ingestion."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro._util.errors import TraceParseError
from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import CallOnly, CallTopDirs
from repro.ingest.summary import cases_summary
from repro.live.engine import LiveIngest
from repro.strace.reader import read_trace_dir

MAPPING = CallTopDirs(levels=2)


def grow_file(directory: Path, filename: str, chunk: bytes) -> None:
    with open(directory / filename, "ab") as handle:
        handle.write(chunk)


def batch_dfg(directory: Path, mapping=MAPPING) -> DFG:
    log = EventLog.from_source(directory, workers=1)
    return DFG(log.with_mapping(mapping))


class TestPolling:
    def test_empty_directory_is_a_normal_state(self, tmp_path):
        engine = LiveIngest(tmp_path)
        result = engine.poll()
        assert not result.changed
        assert engine.snapshot_dfg().n_nodes == 0
        assert engine.snapshot_log().n_events == 0

    def test_missing_directory_is_an_error(self, tmp_path):
        with pytest.raises(TraceParseError, match="not a directory"):
            LiveIngest(tmp_path / "nope").poll()

    def test_files_appearing_one_per_poll(self, tmp_path, ls_file_bytes,
                                          logs_identical):
        engine = LiveIngest(tmp_path)
        for filename, content in ls_file_bytes.items():
            (tmp_path / filename).write_bytes(content)
            result = engine.poll()
            assert result.new_files  # the file was picked up
        engine.finalize()
        logs_identical(engine.snapshot_log(),
                       EventLog.from_source(tmp_path, workers=1))
        assert engine.snapshot_dfg() == batch_dfg(tmp_path)

    def test_appends_at_odd_byte_boundaries(self, tmp_path,
                                            ior_file_bytes,
                                            logs_identical):
        """Round-robin growth, cut mid-line: the full carry-over path."""
        engine = LiveIngest(tmp_path)
        chunk = 211  # prime, so cuts drift through line boundaries
        offsets = {name: 0 for name in ior_file_bytes}
        while any(offsets[n] < len(c)
                  for n, c in ior_file_bytes.items()):
            for name, content in ior_file_bytes.items():
                at = offsets[name]
                if at < len(content):
                    grow_file(tmp_path, name, content[at:at + chunk])
                    offsets[name] = at + chunk
            engine.poll()
        engine.finalize()
        logs_identical(engine.snapshot_log(),
                       EventLog.from_source(tmp_path, workers=1))
        assert engine.snapshot_dfg() == batch_dfg(tmp_path)

    def test_log_and_graph_agree_after_every_poll(self, tmp_path,
                                                  ior_file_bytes):
        """DFG(snapshot_log) == snapshot_dfg mid-stream, not just at
        the end — the standing invariant of the engine."""
        engine = LiveIngest(tmp_path)
        for name, content in ior_file_bytes.items():
            half = len(content) // 2
            grow_file(tmp_path, name, content[:half])
            engine.poll()
            assert DFG(engine.snapshot_log().with_mapping(MAPPING)) \
                == engine.snapshot_dfg()
            grow_file(tmp_path, name, content[half:])
            engine.poll()
            assert DFG(engine.snapshot_log().with_mapping(MAPPING)) \
                == engine.snapshot_dfg()

    def test_merge_diagnostics_match_batch(self, tmp_path,
                                           ior_file_bytes):
        engine = LiveIngest(tmp_path)
        for name, content in ior_file_bytes.items():
            (tmp_path / name).write_bytes(content)
        engine.poll()
        engine.finalize()
        assert cases_summary(engine.cases()) == \
            cases_summary(read_trace_dir(tmp_path))

    def test_cases_without_sealed_records_still_intern(
            self, tmp_path, logs_identical):
        """An empty trace file and one holding only an orphan
        unfinished line: batch interns both cases and reports their
        diagnostics — so must the live snapshot."""
        (tmp_path / "a_host1_1.st").write_bytes(
            b"100  10:00:00.000001 read(3</a>, ..., 10) = 10 <0.000005>\n")
        (tmp_path / "b_host1_2.st").write_bytes(b"")
        (tmp_path / "c_host1_3.st").write_bytes(
            b"300  10:00:00.000002 read(3</c>, <unfinished ...>\n")
        engine = LiveIngest(tmp_path)
        engine.poll()
        engine.finalize()
        logs_identical(engine.snapshot_log(),
                       EventLog.from_source(tmp_path, workers=1))
        assert cases_summary(engine.cases()) == \
            cases_summary(read_trace_dir(tmp_path))

    def test_finalize_consumes_late_appends_and_files(self, tmp_path,
                                                      ls_file_bytes,
                                                      logs_identical):
        """Growth between the last poll and finalize is not lost —
        finalize performs one final poll itself."""
        items = sorted(ls_file_bytes.items())
        engine = LiveIngest(tmp_path)
        (name0, content0) = items[0]
        grow_file(tmp_path, name0, content0[: len(content0) // 2])
        engine.poll()
        grow_file(tmp_path, name0, content0[len(content0) // 2:])
        for name, content in items[1:]:  # files never seen by a poll
            (tmp_path / name).write_bytes(content)
        engine.finalize()
        logs_identical(engine.snapshot_log(),
                       EventLog.from_source(tmp_path, workers=1))
        assert engine.snapshot_dfg() == batch_dfg(tmp_path)
        engine.finalize()  # idempotent

    def test_finalize_orphans_inflight_unfinished(self, tmp_path):
        (tmp_path / "a_host1_1.st").write_bytes(
            b"100  10:00:00.000001 read(3</a>, <unfinished ...>\n"
            b"200  10:00:00.000500 close(5</c>) = 0 <0.000001>\n")
        engine = LiveIngest(tmp_path, mapping=CallOnly())
        result = engine.poll()
        assert result.n_pending == 1
        assert result.n_buffered == 1  # close() waits behind the read
        assert engine.total_events == 0
        engine.finalize()
        assert engine.total_events == 1  # the close seals; read orphans
        (case,) = engine.cases()
        assert case.merge_stats.orphan_unfinished == 1
        assert engine.snapshot_dfg() == batch_dfg(tmp_path, CallOnly())


class TestPollBatch:
    """A poll tails every file, then absorbs what they sealed as one
    batch: one journal block, one fold."""

    GOOD = (b"100  10:00:00.000000 close(3</a/b>) = 0 <0.000001>\n"
            b"200  10:00:00.000002 write(4</c/d>, ..., 5) = 5 "
            b"<0.000010>\n")

    def test_rows_sealed_before_a_parse_error_are_absorbed(self, tmp_path):
        """The third of four files holds an unparseable line: the poll
        raises its located error, and the graph, the statistics and the
        journal already hold every row files 1-2 sealed — their tails
        have moved past them, so dropping them would lose them."""
        from repro.core.statistics import IOStatistics
        from repro.elstore.convert import convert_source
        from repro.pipeline.serialize import stats_payload

        traces = tmp_path / "traces"
        traces.mkdir()
        for rid in (1, 2, 4):
            (traces / f"a_h_{rid}.st").write_bytes(self.GOOD)
        (traces / "a_h_3.st").write_bytes(self.GOOD[:50]
                                          + b"not a trace line\n")
        elog = tmp_path / "run.elog"
        engine = LiveIngest(traces, keep_records=False, emit=elog)
        with pytest.raises(TraceParseError, match="a_h_3.st"):
            engine.poll()
        # What was sealed: files 1-2 whole; file 3 followed, nothing
        # sealed; file 4 never reached.
        sealed = tmp_path / "sealed"
        sealed.mkdir()
        for rid in (1, 2):
            (sealed / f"a_h_{rid}.st").write_bytes(self.GOOD)
        (sealed / "a_h_3.st").write_bytes(b"")
        log = EventLog.from_source(sealed, workers=1).with_mapping(MAPPING)
        assert engine.total_events == 4
        assert engine.snapshot_dfg() == DFG(log)
        assert stats_payload(engine.statistics()) \
            == stats_payload(IOStatistics(log))
        engine.pack_emit()
        batch = convert_source(sealed, tmp_path / "batch.elog", workers=1)
        assert elog.read_bytes() == batch.read_bytes()

    def test_one_emit_and_one_fold_phase_per_poll(self, tmp_path,
                                                  ls_file_bytes):
        from repro.telemetry import Telemetry

        for filename, content in ls_file_bytes.items():
            (tmp_path / filename).write_bytes(content)
        telemetry = Telemetry()
        engine = LiveIngest(tmp_path, keep_records=False,
                            emit=tmp_path / "run.elog",
                            telemetry=telemetry)
        engine.poll()
        registry = telemetry.registry
        assert len(ls_file_bytes) > 1
        for phase in ("emit", "fold"):
            assert registry.histogram("phase_seconds",
                                      phase=phase).count == 1


class TestDiscoveryRules:
    def test_unchanged_listing_skips_discovery(self, tmp_path,
                                               ls_file_bytes, monkeypatch):
        """While the directory lists the same files, a scan reuses the
        previous discovery; a new file takes the full one again."""
        from repro.live import engine as engine_module

        items = sorted(ls_file_bytes.items())
        for filename, content in items[:-1]:
            (tmp_path / filename).write_bytes(content)
        engine = LiveIngest(tmp_path)
        engine.poll()
        calls = []
        real = engine_module.discover_trace_files
        monkeypatch.setattr(engine_module, "discover_trace_files",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        engine.poll()
        assert calls == []
        filename, content = items[-1]
        (tmp_path / filename).write_bytes(content)
        assert engine.poll().new_files
        assert calls == [1]
        engine.finalize()
        assert engine.snapshot_dfg() == batch_dfg(tmp_path)

    def test_renamed_file_takes_full_discovery(self, tmp_path,
                                               ls_file_bytes):
        """A rename keeps the file count but changes the listing: the
        followed path is gone, which is an error, as it always was."""
        name, content = next(iter(ls_file_bytes.items()))
        (tmp_path / name).write_bytes(content)
        engine = LiveIngest(tmp_path)
        engine.poll()
        (tmp_path / name).rename(tmp_path / f"z{name}")
        with pytest.raises(TraceParseError, match="disappeared"):
            engine.poll()

    def test_recursive_per_host_layout(self, tmp_path, ls_file_bytes,
                                       logs_identical):
        nested = tmp_path / "host1"
        nested.mkdir()
        for filename, content in ls_file_bytes.items():
            (nested / filename).write_bytes(content)
        engine = LiveIngest(tmp_path, recursive=True)
        engine.poll()
        engine.finalize()
        logs_identical(
            engine.snapshot_log(),
            EventLog.from_source(tmp_path, workers=1,
                                     recursive=True))

    def test_duplicate_case_across_subdirs_rejected(self, tmp_path):
        for host_dir in ("n1", "n2"):
            sub = tmp_path / host_dir
            sub.mkdir()
            (sub / "a_host1_1.st").write_bytes(b"")
        engine = LiveIngest(tmp_path, recursive=True)
        with pytest.raises(TraceParseError, match="duplicate case"):
            engine.poll()

    def test_cids_filter(self, tmp_path, ls_file_bytes):
        for filename, content in ls_file_bytes.items():
            (tmp_path / filename).write_bytes(content)
        engine = LiveIngest(tmp_path, cids={"a"})
        engine.poll()
        engine.finalize()
        log = engine.snapshot_log()
        assert log.cids() == ["a"]
        batch = EventLog.from_source(tmp_path, cids={"a"},
                                         workers=1)
        assert log.n_events == batch.n_events

    def test_non_trace_files_ignored(self, tmp_path, ls_file_bytes):
        (tmp_path / "checkpoint.json").write_text("{}")
        (tmp_path / "notes.txt").write_text("hi")
        name, content = next(iter(ls_file_bytes.items()))
        (tmp_path / name).write_bytes(content)
        engine = LiveIngest(tmp_path)
        result = engine.poll()
        assert result.n_files == 1

    def test_tracked_file_disappearing_is_an_error(self, tmp_path,
                                                   ls_file_bytes):
        name, content = next(iter(ls_file_bytes.items()))
        (tmp_path / name).write_bytes(content)
        engine = LiveIngest(tmp_path)
        engine.poll()
        (tmp_path / name).unlink()
        with pytest.raises(TraceParseError, match="disappeared"):
            engine.poll()


class TestBoundedMemory:
    def test_keep_records_false_still_tracks_the_graph(self, tmp_path,
                                                       ior_file_bytes):
        lean = LiveIngest(tmp_path, keep_records=False)
        for name, content in ior_file_bytes.items():
            (tmp_path / name).write_bytes(content)
        lean.poll()
        lean.finalize()
        assert lean.snapshot_dfg() == batch_dfg(tmp_path)
        assert lean.total_events == \
            EventLog.from_source(tmp_path, workers=1).n_events
        # The trade: no record retention, so the snapshot log is empty.
        assert lean.snapshot_log().n_events == 0
        assert lean.cases() == []


class TestSessionWiring:
    def test_inspection_session_from_live(self, tmp_path, ls_file_bytes):
        from repro.pipeline.session import InspectionSession

        for filename, content in ls_file_bytes.items():
            (tmp_path / filename).write_bytes(content)
        engine = LiveIngest(tmp_path)
        engine.poll()
        session = InspectionSession.from_live(engine)
        assert session.dfg == engine.snapshot_dfg()
        text = session.render("ascii")
        assert "DFG:" in text
