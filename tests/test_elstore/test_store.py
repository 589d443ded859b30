"""The .elog columnar container: write/read round trips, laziness."""

import numpy as np
import pytest

from repro._util.errors import StoreFormatError
from repro.core.eventlog import EventLog
from repro.elstore.convert import convert_strace_dir
from repro.elstore.reader import EventLogStore, read_event_log
from repro.elstore.writer import EventLogWriter, write_event_log
from repro.strace.naming import TraceFileName
from repro.strace.parser import ParsedRecord


def _record(start: int, call: str = "read", fp: str | None = "/x",
            size: int | None = 10, dur: int | None = 5,
            pid: int = 1) -> ParsedRecord:
    return ParsedRecord(pid=pid, start_us=start, call=call, fp=fp,
                        size=size, dur_us=dur, errno=None)


class TestWriterReader:
    def test_roundtrip_records(self, tmp_path):
        path = tmp_path / "log.elog"
        with EventLogWriter(path) as writer:
            writer.add_case_records(
                TraceFileName("a", "h1", 1),
                [_record(10), _record(20, call="write", fp="/y", size=7)])
            writer.add_case_records(
                TraceFileName("a", "h1", 2), [_record(30, fp=None)])
        store = EventLogStore(path)
        assert store.case_ids() == ["a1", "a2"]
        assert store.n_cases == 2
        assert store.n_events == 3
        data = store.read_case("a1")
        assert data["start"].tolist() == [10, 20]
        assert data["size"].tolist() == [10, 7]
        # fp of the second case's record is missing → -1
        assert store.read_case("a2")["fp"].tolist() == [-1]

    def test_case_meta(self, tmp_path):
        path = tmp_path / "log.elog"
        with EventLogWriter(path) as writer:
            writer.add_case_records(
                TraceFileName("ssf", "node01", 20000), [_record(1)])
        meta = EventLogStore(path).case_meta("ssf20000")
        assert meta.cid == "ssf"
        assert meta.host == "node01"
        assert meta.rid == 20000
        assert meta.n_events == 1

    def test_unknown_case_rejected(self, tmp_path):
        path = tmp_path / "log.elog"
        with EventLogWriter(path) as writer:
            writer.add_case_records(TraceFileName("a", "h", 1),
                                    [_record(1)])
        with pytest.raises(StoreFormatError):
            EventLogStore(path).case_meta("nope")

    def test_duplicate_case_rejected(self, tmp_path):
        with EventLogWriter(tmp_path / "log.elog") as writer:
            writer.add_case_records(TraceFileName("a", "h", 1),
                                    [_record(1)])
            with pytest.raises(StoreFormatError):
                writer.add_case_records(TraceFileName("a", "h", 1), [])

    def test_empty_case_allowed(self, tmp_path):
        path = tmp_path / "log.elog"
        with EventLogWriter(path) as writer:
            writer.add_case_records(TraceFileName("a", "h", 1), [])
        store = EventLogStore(path)
        assert store.n_events == 0
        assert store.read_case("a1")["start"].tolist() == []

    def test_chunking_roundtrip(self, tmp_path):
        """Tiny chunks force many chunk refs; data must reassemble."""
        path = tmp_path / "log.elog"
        records = [_record(i, size=i) for i in range(100)]
        with EventLogWriter(path, chunk_values=7) as writer:
            writer.add_case_records(TraceFileName("a", "h", 1), records)
        store = EventLogStore(path)
        meta = store.case_meta("a1")
        assert len(meta.columns["start"].chunks) == 15  # ceil(100/7)
        assert store.read_case("a1")["size"].tolist() == list(range(100))

    def test_writer_removes_file_on_error(self, tmp_path):
        path = tmp_path / "log.elog"
        with pytest.raises(RuntimeError):
            with EventLogWriter(path) as writer:
                writer.add_case_records(TraceFileName("a", "h", 1),
                                        [_record(1)])
                raise RuntimeError("boom")
        assert not path.exists()

    def test_string_pools_deduplicated(self, tmp_path):
        path = tmp_path / "log.elog"
        with EventLogWriter(path) as writer:
            for rid in range(5):
                writer.add_case_records(
                    TraceFileName("a", "h", rid),
                    [_record(1, fp="/shared/path"),
                     _record(2, fp="/shared/path")])
        store = EventLogStore(path)
        assert store.pools["paths"] == ["/shared/path"]


class TestEventLogIntegration:
    def test_eventlog_roundtrip(self, fig1_dir, tmp_path):
        original = EventLog.from_source(fig1_dir)
        path = write_event_log(original, tmp_path / "fig1.elog")
        loaded = read_event_log(path)
        assert loaded.n_events == original.n_events
        assert loaded.case_ids() == original.case_ids()
        assert loaded.cids() == original.cids()
        # Column-level equality after sorting both the same way.
        for col in ("start", "dur", "size", "pid", "rid"):
            assert np.array_equal(loaded.frame.column(col),
                                  original.frame.column(col))
        # String columns compare decoded (codes may differ).
        assert loaded.frame.decoded("fp") == original.frame.decoded("fp")
        assert loaded.frame.decoded("call") == \
            original.frame.decoded("call")

    def test_cid_subset_load(self, fig1_dir, tmp_path):
        path = write_event_log(EventLog.from_source(fig1_dir),
                               tmp_path / "fig1.elog")
        loaded = read_event_log(path, cids={"a"})
        assert loaded.cids() == ["a"]
        assert loaded.n_cases == 3

    def test_missing_cid_subset_rejected(self, fig1_dir, tmp_path):
        path = write_event_log(EventLog.from_source(fig1_dir),
                               tmp_path / "fig1.elog")
        with pytest.raises(StoreFormatError):
            read_event_log(path, cids={"zzz"})

    def test_convert_strace_dir(self, fig1_dir, tmp_path):
        out = convert_strace_dir(fig1_dir, tmp_path / "conv.elog")
        store = EventLogStore(out)
        assert store.n_cases == 6
        assert store.n_events == 3 * 8 + 3 * 17

    def test_dfg_from_store_equals_dfg_from_traces(self, fig1_dir,
                                                   tmp_path):
        """The store is a faithful intermediate: same DFG either way."""
        from repro.core.dfg import DFG
        from repro.core.mapping import CallTopDirs

        direct = EventLog.from_source(fig1_dir)
        direct.apply_mapping_fn(CallTopDirs(levels=2))
        path = write_event_log(EventLog.from_source(fig1_dir),
                               tmp_path / "x.elog")
        via_store = read_event_log(path)
        via_store.apply_mapping_fn(CallTopDirs(levels=2))
        assert DFG(direct) == DFG(via_store)


class TestCorruption:
    def _store_path(self, tmp_path):
        path = tmp_path / "log.elog"
        with EventLogWriter(path) as writer:
            writer.add_case_records(
                TraceFileName("a", "h", 1),
                [_record(i) for i in range(50)])
        return path

    def test_bad_magic_rejected(self, tmp_path):
        path = self._store_path(tmp_path)
        data = bytearray(path.read_bytes())
        data[0:4] = b"XXXX"
        path.write_bytes(data)
        with pytest.raises(StoreFormatError, match="magic"):
            EventLogStore(path)

    def test_bad_version_rejected(self, tmp_path):
        path = self._store_path(tmp_path)
        data = bytearray(path.read_bytes())
        data[8] = 99  # version u16 little-endian low byte
        path.write_bytes(data)
        with pytest.raises(StoreFormatError, match="version"):
            EventLogStore(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = self._store_path(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(StoreFormatError):
            EventLogStore(path)

    def test_flipped_data_byte_fails_crc(self, tmp_path):
        path = self._store_path(tmp_path)
        data = bytearray(path.read_bytes())
        data[40] ^= 0xFF  # inside the first column chunk
        path.write_bytes(data)
        store = EventLogStore(path)  # TOC itself is intact
        with pytest.raises(StoreFormatError, match="CRC"):
            store.read_case("a1")

    def test_corrupt_toc_rejected(self, tmp_path):
        path = self._store_path(tmp_path)
        data = bytearray(path.read_bytes())
        data[-5] = 0xFF  # garbage inside the JSON TOC
        path.write_bytes(data)
        with pytest.raises(StoreFormatError):
            EventLogStore(path)

    def test_unclosed_writer_header_rejected(self, tmp_path):
        path = tmp_path / "log.elog"
        writer = EventLogWriter(path)
        writer.add_case_records(TraceFileName("a", "h", 1), [_record(1)])
        writer._handle.close()  # simulate a crash before close()
        with pytest.raises(StoreFormatError, match="TOC"):
            EventLogStore(path)


class TestColumnProjection:
    def test_subset_read(self, fig1_dir, tmp_path):
        path = write_event_log(EventLog.from_source(fig1_dir),
                               tmp_path / "p.elog")
        store = EventLogStore(path)
        data = store.read_case("a9042", columns=["start", "dur"])
        assert set(data) == {"start", "dur"}
        assert len(data["start"]) == 8

    def test_unknown_column_rejected(self, fig1_dir, tmp_path):
        path = write_event_log(EventLog.from_source(fig1_dir),
                               tmp_path / "p.elog")
        with pytest.raises(StoreFormatError, match="unknown columns"):
            EventLogStore(path).read_case("a9042", columns=["bogus"])

    def test_projection_matches_full_read(self, fig1_dir, tmp_path):
        path = write_event_log(EventLog.from_source(fig1_dir),
                               tmp_path / "p.elog")
        store = EventLogStore(path)
        full = store.read_case("b9157")
        partial = store.read_case("b9157", columns=["size"])
        assert (partial["size"] == full["size"]).all()
