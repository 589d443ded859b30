"""The .elog columnar container: write/read round trips, laziness."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util.errors import StoreFormatError
from repro.cli import main
from repro.core.eventlog import EventLog
from repro.elstore.convert import convert_source
from repro.elstore.reader import EventLogStore, read_event_log
from repro.elstore.schema import (
    CASE_COLUMNS, CASE_FIELDS, HEADER_FMT, HEADER_SIZE, Toc, TocColumn,
    decode_toc, encode_toc)
from repro.elstore.writer import EventLogWriter, write_event_log
from repro.sources import ElstoreSource
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


class _PerColumnWriter(EventLogWriter):
    """The writer laying a case down column by column — per chunk a
    ``tell``, a ``write`` and a CRC of its own bytes — kept as the byte
    reference for the one-write :meth:`EventLogWriter.add_case_arrays`."""

    def add_case_arrays(self, *, case_id, cid, host, rid, columns,
                        call_strings, path_strings):
        if case_id in self._pool_index["cases"]:
            raise StoreFormatError(f"duplicate case {case_id!r}")
        missing = set(CASE_COLUMNS) - set(columns)
        if missing:
            raise StoreFormatError(f"missing columns: {sorted(missing)}")
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise StoreFormatError(f"ragged case columns: {lengths}")
        n_events = lengths.pop() if lengths else 0
        call_map = np.array(
            [self._intern("calls", s) for s in call_strings] or [0],
            dtype=np.int32)
        path_map = np.array(
            [self._intern("paths", s) for s in path_strings] or [0],
            dtype=np.int32)
        call_codes = columns["call"].astype(np.int64)
        fp_codes = columns["fp"].astype(np.int64)
        if len(call_codes) and \
                call_codes.max(initial=-1) >= len(call_strings):
            raise StoreFormatError("call code out of range of call_strings")
        if len(fp_codes) and fp_codes.max(initial=-1) >= len(path_strings):
            raise StoreFormatError("fp code out of range of path_strings")
        encoded = dict(columns)
        encoded["call"] = np.where(
            call_codes >= 0, call_map[np.clip(call_codes, 0, None)],
            -1).astype(np.int32)
        encoded["fp"] = np.where(
            fp_codes >= 0, path_map[np.clip(fp_codes, 0, None)],
            -1).astype(np.int32)
        chunks = {}
        for name, dtype in CASE_COLUMNS.items():
            array = np.ascontiguousarray(encoded[name].astype(dtype))
            refs = chunks[name] = []
            for start in range(0, len(array) or 1, self.chunk_values):
                raw = array[start:start + self.chunk_values].tobytes()
                offset = self._handle.tell()
                self._handle.write(raw)
                refs += (offset, len(raw), zlib.crc32(raw))
                if len(array) == 0:
                    break
        self._append_case(case_id, cid, host, rid, n_events, chunks)


@st.composite
def _raw_cases(draw):
    """``add_case_arrays`` arguments: empty cases, code dtypes int32
    and int64, negative codes below -1, unused and shared strings."""
    cases = []
    for index in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 9))
        calls = draw(st.lists(st.sampled_from(["read", "write", "close"]),
                              unique=True, max_size=3))
        paths = draw(st.lists(st.sampled_from(["/a", "/b", "/c", "/d"]),
                              unique=True, max_size=3))
        code_dtype = draw(st.sampled_from([np.int32, np.int64]))

        def codes(strings):
            return np.array(draw(st.lists(
                st.integers(-3, len(strings) - 1),
                min_size=n, max_size=n)), dtype=code_dtype)

        def values():
            return np.array(draw(st.lists(
                st.integers(-1, 1 << 40), min_size=n, max_size=n)),
                dtype=np.int64)

        cases.append(dict(
            case_id=f"a{index}", cid="a", host=f"h{index % 2}", rid=index,
            columns={"pid": values(), "call": codes(calls),
                     "start": values(), "dur": values(), "fp": codes(paths),
                     "size": values()},
            call_strings=calls, path_strings=paths))
    return cases


class TestCaseBytes:
    @given(_raw_cases(), st.sampled_from([1, 2, 3, 65536]))
    @settings(max_examples=100, deadline=None)
    def test_one_write_per_case_writes_the_per_column_bytes(
            self, tmp_path_factory, cases, chunk_values):
        """The file is byte-identical to the per-column writer's, for
        every chunk size and every code the writer accepts."""
        directory = tmp_path_factory.mktemp("bytes")
        written = []
        for cls in (EventLogWriter, _PerColumnWriter):
            path = directory / f"{cls.__name__}.elog"
            with cls(path, chunk_values=chunk_values) as writer:
                for case in cases:
                    writer.add_case_arrays(**case)
            written.append(path.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("column,message", [
        ("call", "call code out of range of call_strings"),
        ("fp", "fp code out of range of path_strings")])
    def test_out_of_range_codes_rejected(self, tmp_path, column, message):
        columns = {name: np.zeros(2, dtype=np.int64)
                   for name in CASE_COLUMNS}
        columns[column] = np.array([0, 1])
        with EventLogWriter(tmp_path / "log.elog") as writer:
            with pytest.raises(StoreFormatError, match=message):
                writer.add_case_arrays(
                    case_id="a1", cid="a", host="h", rid=1,
                    columns=columns, call_strings=["read"],
                    path_strings=["/x"])


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
        out = convert_source(fig1_dir, tmp_path / "conv.elog")
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
        data[-5] = 0xFF  # the TOC's last pool byte, before its CRC
        path.write_bytes(data)
        with pytest.raises(StoreFormatError, match="corrupt TOC: CRC "
                                                   "mismatch"):
            EventLogStore(path)

    def test_version_1_names_the_way_back(self, tmp_path):
        """A JSON-TOC store is rejected before its TOC is read, with
        the version and how to rebuild it."""
        path = self._store_path(tmp_path)
        data = bytearray(path.read_bytes())
        data[8:10] = (1).to_bytes(2, "little")
        path.write_bytes(data)
        with pytest.raises(StoreFormatError,
                           match=r"unsupported version 1 \(expected 2\) "
                                 r"— a JSON-TOC store: re-run convert"):
            EventLogStore(path)

    def test_bytes_after_the_toc_rejected(self, tmp_path):
        path = self._store_path(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(StoreFormatError, match="1 bytes after the TOC"):
            EventLogStore(path)

    @pytest.mark.parametrize("field, value, message", [
        (2, 1, "reserved header field is 1, not 0"),
        (3, 1 << 62, "truncated TOC"),
        (4, 1 << 62, "truncated TOC"),
    ], ids=["reserved", "toc-offset", "toc-length"])
    def test_damaged_header_field_rejected(self, tmp_path, field, value,
                                           message):
        """Every header field is checked at open; a TOC offset or
        length past the end fails before it can size a read."""
        path = self._store_path(tmp_path)
        data = path.read_bytes()
        header = list(struct.unpack(HEADER_FMT, data[:HEADER_SIZE]))
        header[field] = value
        path.write_bytes(struct.pack(HEADER_FMT, *header)
                         + data[HEADER_SIZE:])
        with pytest.raises(StoreFormatError, match=message):
            EventLogStore(path)

    def test_rid_past_int64_rejected_at_write(self, tmp_path):
        with EventLogWriter(tmp_path / "log.elog") as writer:
            with pytest.raises(StoreFormatError, match="does not fit"):
                writer.add_case_records(TraceFileName("a", "h", 1 << 63),
                                        [_record(1)])

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


def _two_cid_store(path, chunk_values=4):
    """16 cases over cids ``a``/``b``, written in a shuffled order with
    small chunks, so the one-pass read joins many chunks per column."""
    with EventLogWriter(path, chunk_values=chunk_values) as writer:
        for rid in (7, 2, 12, 0, 15, 9, 4, 11, 1, 14, 5, 8, 13, 3, 10, 6):
            writer.add_case_records(
                TraceFileName("ab"[rid % 2], f"h{rid % 3}", rid),
                [_record(100 * rid + 3 * i, size=rid + i, dur=i % 4,
                         fp=None if i % 5 == 0 else f"/d{i % 3}",
                         call=("read", "write", "openat")[i % 3])
                 for i in range(rid % 7 + 1)])
    return path


def _toc(path):
    """The container's TOC tables, decoded into writable copies."""
    data = path.read_bytes()
    toc_offset, toc_len = struct.unpack(HEADER_FMT, data[:HEADER_SIZE])[3:]
    toc = decode_toc(data[toc_offset:toc_offset + toc_len])
    return Toc(pools={name: list(strings)
                      for name, strings in toc.pools.items()},
               cases=toc.cases.copy(),
               columns={name: TocColumn(column.starts.copy(),
                                        column.refs.copy())
                        for name, column in toc.columns.items()})


def _rewrite_toc(path, edit):
    """Re-encode the container's TOC, with a fresh CRC, after
    ``edit(toc)`` changed its tables in place or returned new ones;
    every data byte stays where it was."""
    toc = _toc(path)
    _replace_toc(path, encode_toc(edit(toc) or toc))


def _rewrite_toc_bytes(path, edit):
    """Replace the container's TOC by ``edit(body)`` of its bytes before
    the CRC, with a fresh CRC: a layout the writer never makes."""
    data = path.read_bytes()
    toc_offset = struct.unpack(HEADER_FMT, data[:HEADER_SIZE])[3]
    body = edit(bytearray(data[toc_offset:-4]))
    _replace_toc(path, bytes(body) + struct.pack("<I", zlib.crc32(body)))


def _replace_toc(path, raw):
    data = path.read_bytes()
    magic, version, reserved, toc_offset, _ = struct.unpack(
        HEADER_FMT, data[:HEADER_SIZE])
    path.write_bytes(struct.pack(HEADER_FMT, magic, version, reserved,
                                 toc_offset, len(raw))
                     + data[HEADER_SIZE:toc_offset] + raw)


def _chunk(toc, index=5, column="start"):
    """The first chunk ref of case row ``index`` in ``column``."""
    starts, refs = toc.columns[column]
    return refs[starts[index]]


def _field(name):
    return CASE_FIELDS.index(name)


def _without_column(name, row):
    """Case row ``row`` keeps no chunk of column ``name``."""
    def edit(toc):
        starts, refs = toc.columns[name]
        begin, end = starts[row], starts[row + 1]
        starts[row + 1:] -= end - begin
        toc.columns[name] = TocColumn(
            starts, np.delete(refs, np.s_[begin:end], axis=0))
    return edit


class TestOnePassRead:
    def test_equals_per_case_reads(self, tmp_path):
        """The whole-file read yields, column for column, the per-case
        reads laid end to end in sorted case order — and a frame that
        is already sorted, so ``EventLog`` keeps it as is."""
        path = _two_cid_store(tmp_path / "log.elog")
        store = EventLogStore(path)
        frame = read_event_log(path).frame
        for name in ("pid", "call", "start", "dur", "fp", "size"):
            joined = np.concatenate([store.read_case(case)[name]
                                     for case in store.case_ids()])
            assert frame.column(name).tolist() == joined.tolist(), name
        assert frame.decoded("case") == [
            case for case in store.case_ids()
            for _ in range(store.case_meta(case).n_events)]
        assert frame.column("rid").tolist() == [
            store.case_meta(case).rid for case in store.case_ids()
            for _ in range(store.case_meta(case).n_events)]
        assert frame.sorted_within_cases() is frame

    def test_cid_subset_reads_only_those_cases(self, tmp_path):
        path = _two_cid_store(tmp_path / "log.elog")
        frame = read_event_log(path, cids={"b"}).frame
        assert set(frame.decoded("cid")) == {"b"}
        assert frame.n_events == sum(
            EventLogStore(path).case_meta(case).n_events
            for case in EventLogStore(path).case_ids()
            if case.startswith("b"))

    def test_crc_mismatch_names_column_and_offset(self, tmp_path):
        path = _two_cid_store(tmp_path / "log.elog")
        offset = EventLogStore(path).case_meta("a12").columns["dur"] \
            .chunks[1].offset
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(data)
        with pytest.raises(StoreFormatError,
                           match=f"CRC mismatch in column 'dur' at "
                                 f"offset {offset}"):
            read_event_log(path)

    def test_case_without_chunks_reads_empty(self, tmp_path):
        """A TOC may give an empty case no chunks at all; its byte count
        is then 0, not the next case's first chunk."""
        path = tmp_path / "log.elog"
        with EventLogWriter(path) as writer:
            for rid, n in ((1, 3), (2, 0), (3, 2)):
                writer.add_case_records(TraceFileName("a", "h", rid),
                                        [_record(10 * rid + i)
                                         for i in range(n)])

        def no_chunks(toc):
            for name in CASE_COLUMNS:
                _without_column(name, 1)(toc)

        _rewrite_toc(path, no_chunks)
        assert read_event_log(path).frame.column("start").tolist() == [
            10, 11, 12, 30, 31]
        assert EventLogStore(path).read_case("a2")["start"].tolist() == []

    def test_value_count_mismatch_rejected(self, tmp_path):
        path = _two_cid_store(tmp_path / "log.elog")

        def inflate(toc):
            toc.cases[2, _field("n_events")] += 1

        _rewrite_toc(path, inflate)
        with pytest.raises(StoreFormatError,
                           match=r"column 'pid' of case 'a12' has 6 "
                                 r"values, expected 7"):
            read_event_log(path)


def _rejected_end_to_end(path, capsys, message):
    """``message`` names the fault through the whole-log read, the
    streaming per-case read and the CLI (exit 2, path on stderr)."""
    with pytest.raises(StoreFormatError, match=message) as caught:
        read_event_log(path)
    assert str(path) in str(caught.value)
    with pytest.raises(StoreFormatError, match=message):
        list(ElstoreSource(path).iter_cases())
    assert main(["report", f"elog:{path}"]) == 2
    assert f"error: {path}: " in capsys.readouterr().err


def _set_field(field, row, value):
    def edit(toc):
        toc.cases[row, _field(field)] = value(toc)
    return edit


def _lower_start(toc):
    starts = toc.columns["dur"].starts
    starts[3] = starts[2] - 1


def _no_cases(toc):
    """An empty case table, the chunk refs left in place."""
    return toc._replace(cases=toc.cases[:0], columns={
        name: TocColumn(starts[:1], refs)
        for name, (starts, refs) in toc.columns.items()})


@pytest.mark.parametrize("edit, message", [
    (_no_cases,
     r"corrupt TOC: chunk starts of column 'pid' do not run from 0 to "
     r"its \d+ refs"),
    (_set_field("n_events", 2, lambda toc: -1),
     r"column 'pid' of case 'a12' has 6 values, expected -1"),
    (_without_column("size", 4),
     r"column 'size' of case 'b15' has 0 values, expected 2"),
    (lambda toc: _chunk(toc).__setitem__(0, -40),
     r"chunk of column 'start' in case '\w+' at offset -40"),
    (lambda toc: _chunk(toc, 9, "fp").__setitem__(0, 1 << 40),
     r"chunk of column 'fp' in case '\w+' at offset 1099511627776 "
     r"\(\d+ bytes\) lies outside the file"),
    (lambda toc: toc.cases.__setitem__(
        (1, _field("case")), toc.cases[0, _field("case")]),
     r"corrupt TOC: case '\w+' appears more than once"),
    (lambda toc: toc.pools["paths"].__setitem__(
        1, toc.pools["paths"][0]),
     r"corrupt TOC: pool 'paths' repeats '/d\d'"),
    (_set_field("case", 0, lambda toc: len(toc.pools["cases"])),
     r"corrupt TOC: case row 0 holds case code 16, outside \[0, 16\) of "
     r"pool 'cases'"),
    (_set_field("cid", 3, lambda toc: len(toc.pools["cids"])),
     r"corrupt TOC: case row 3 holds cid code 2, outside \[0, 2\) of "
     r"pool 'cids'"),
    (_set_field("host", 4, lambda toc: -1),
     r"corrupt TOC: case row 4 holds host code -1, outside \[0, 3\) of "
     r"pool 'hosts'"),
    (_lower_start,
     r"corrupt TOC: chunk starts of column 'dur' do not run from 0 to "
     r"its \d+ refs without decreasing"),
    (lambda toc: toc.columns["fp"].starts.__setitem__(-1, 0),
     r"corrupt TOC: chunk starts of column 'fp' do not run"),
], ids=["no-cases", "bad-n-events", "missing-column", "negative-offset",
        "offset-past-eof", "case-named-twice",
        "pool-repeats-a-path", "case-outside-its-pool",
        "cid-outside-its-pool", "host-outside-its-pool",
        "starts-decrease", "starts-end-short"])
def test_malformed_toc_is_a_located_store_error(tmp_path, capsys, edit,
                                                message):
    """A TOC whose CRC matches but whose tables are malformed, or point
    a chunk outside the file, fails with the path — at open, or at the
    first read for a case's event count — through the whole-log read,
    the streaming per-case read, and the CLI (exit 2), never as an
    ``IndexError`` traceback or a bare errno. A case named twice would
    otherwise load as one case, and a repeated pool string shift every
    later code of its pool."""
    path = _two_cid_store(tmp_path / "log.elog")
    _rewrite_toc(path, edit)
    _rejected_end_to_end(path, capsys, message)


def _set_int(index, value):
    """A TOC-bytes edit: the ``index``-th int64 becomes ``value``."""
    def edit(body):
        struct.pack_into("<q", body, 8 * index, value)
        return body
    return edit


def _lengthen_last_string(body):
    """The last string's end one byte past the text."""
    at = 8 * (11 + sum(struct.unpack_from("<5q", body)))
    struct.pack_into("<q", body, at, struct.unpack_from("<q", body, at)[0]
                     + 1)
    return body


@pytest.mark.parametrize("edit, message", [
    (lambda body: body[:10], r"corrupt TOC: 14 bytes, too short for a TOC"),
    (_set_int(1, -1), r"corrupt TOC: negative count"),
    (_set_int(8, 1 << 40),
     r"corrupt TOC: counts \[.*\] need \d+ bytes, the TOC holds \d+"),
    (_lengthen_last_string,
     r"corrupt TOC: string ends do not run through the \d+-byte text"),
    (lambda body: body.replace(b"openat", b"open\xfft"),
     r"corrupt TOC: 'utf-8' codec can't decode byte 0xff"),
], ids=["too-short", "negative-count", "counts-past-the-toc",
        "string-end-past-text", "not-utf8"])
def test_malformed_toc_layout_is_a_located_store_error(tmp_path, capsys,
                                                       edit, message):
    """TOC bytes whose CRC matches but whose counts, string ends or
    text do not fill the TOC exactly fail at open with the path, before
    any table is read."""
    path = _two_cid_store(tmp_path / "log.elog")
    _rewrite_toc_bytes(path, edit)
    _rejected_end_to_end(path, capsys, message)


class TestCodesInPools:
    @pytest.mark.parametrize("column, code, message", [
        ("call", 7, r"holds code 7, outside \[0, 3\) of pool 'calls'"),
        ("call", -1, r"holds code -1, outside \[0, 3\) of pool 'calls'"),
        ("fp", 3, r"holds code 3, outside \[-1, 3\) of pool 'paths'"),
        ("fp", -2, r"holds code -2, outside \[-1, 3\) of pool 'paths'"),
    ])
    def test_code_outside_its_pool_rejected(self, tmp_path, capsys, column,
                                            code, message):
        """A chunk whose CRC matches but whose code lies outside its
        pool is a located error, not an ``IndexError`` in the mapping
        or a code read from the end of the pool."""
        path = _two_cid_store(tmp_path / "log.elog")
        store = EventLogStore(path)
        chunk = store.case_meta("a12").columns[column].chunks[0]
        row = store.stored_case_ids().index("a12")
        data = bytearray(path.read_bytes())
        data[chunk.offset + 4:chunk.offset + 8] = struct.pack("<i", code)
        crc = zlib.crc32(data[chunk.offset:chunk.offset + chunk.nbytes])
        path.write_bytes(data)

        def fix_crc(toc):
            _chunk(toc, row, column)[2] = crc

        _rewrite_toc(path, fix_crc)
        _rejected_end_to_end(
            path, capsys, f"column '{column}' of case 'a12' {message}")


@st.composite
def _stores(draw):
    """A store's cases in a shuffled write order (0-9 events each,
    empty ones too, over three cids), its chunk size and a cid
    subset to read."""
    cases = []
    for rid in draw(st.permutations(range(draw(st.integers(0, 6))))):
        n = draw(st.integers(0, 9))
        calls = draw(st.lists(st.sampled_from(["read", "write", "close"]),
                              unique=True, min_size=1, max_size=3))
        paths = draw(st.lists(st.sampled_from(["/a", "/b", "/c", "/d"]),
                              unique=True, max_size=3))

        def values(low, high):
            return np.array(draw(st.lists(st.integers(low, high),
                                          min_size=n, max_size=n)),
                            dtype=np.int64)

        cid = draw(st.sampled_from("abc"))
        cases.append(dict(
            case_id=f"{cid}{rid}", cid=cid, host=f"h{rid % 2}", rid=rid,
            columns={"pid": values(1, 99),
                     "call": values(0, len(calls) - 1),
                     "start": np.sort(values(0, 1 << 40)),
                     "dur": values(-1, 1 << 20),
                     "fp": values(-1, len(paths) - 1),
                     "size": values(-1, 1 << 30)},
            call_strings=calls, path_strings=paths))
    chunk_values = draw(st.sampled_from([1, 2, 3, 65536]))
    cids = draw(st.none() | st.sets(st.sampled_from("abc")))
    return cases, chunk_values, cids


#: Pool strings the TOC must carry unchanged: NUL, non-BMP characters
#: and lone surrogates (``Cs``) among any others.
_pool_text = st.one_of(
    st.sampled_from(["", "\0", "a\0b", "\U0001F600", "\ud800",
                     "\udfff/x", "\ud83d\ude00"]),
    st.text(st.characters(blacklist_categories=()), max_size=6))


def _write_store(path, cases, chunk_values):
    with EventLogWriter(path, chunk_values=chunk_values) as writer:
        for case in cases:
            writer.add_case_arrays(**case)
    return path


class TestFlatTocProperties:
    @given(_stores())
    @settings(max_examples=100, deadline=None)
    def test_whole_log_equals_per_case_reads(self, tmp_path_factory,
                                             store_spec):
        """``read_event_log`` equals the per-case reads laid end to end
        in sorted case order, column for column and pool for pool; each
        case reads back what was written; ``case_meta`` names each case
        as written and its chunks as the writer cut them, each with the
        CRC of its bytes in the file."""
        cases, chunk_values, cids = store_spec
        path = _write_store(tmp_path_factory.mktemp("flat") / "log.elog",
                            cases, chunk_values)
        store = EventLogStore(path)
        assert store.stored_case_ids() == [c["case_id"] for c in cases]
        data = path.read_bytes()
        for case in cases:
            meta = store.case_meta(case["case_id"])
            n = len(case["columns"]["pid"])
            assert (meta.cid, meta.host, meta.rid, meta.n_events) == (
                case["cid"], case["host"], case["rid"], n)
            for name, dtype in CASE_COLUMNS.items():
                column = meta.columns[name]
                itemsize = np.dtype(dtype).itemsize
                assert (column.name, column.dtype) == (name, dtype)
                assert [chunk.nbytes for chunk in column.chunks] == [
                    min(chunk_values, n - first) * itemsize
                    for first in range(0, n or 1, chunk_values)]
                for chunk in column.chunks:
                    assert zlib.crc32(data[chunk.offset:chunk.offset
                                           + chunk.nbytes]) == chunk.crc32
        written = {case["case_id"]: case for case in cases}
        chosen = [case_id for case_id in store.case_ids()
                  if cids is None or written[case_id]["cid"] in cids]
        if not chosen:
            with pytest.raises(StoreFormatError, match="no cases"):
                read_event_log(path, cids=cids)
            return
        frame = read_event_log(path, cids=cids).frame
        reads = {case_id: store.read_case(case_id) for case_id in chosen}
        for case_id, data in reads.items():
            case = written[case_id]
            for name in ("pid", "start", "dur", "size"):
                assert data[name].tolist() == case["columns"][name].tolist()
            assert [store.pools["calls"][code] for code in data["call"]] \
                == [case["call_strings"][code]
                    for code in case["columns"]["call"]]
            assert [store.pools["paths"][code] if code >= 0 else None
                    for code in data["fp"]] == \
                [case["path_strings"][code] if code >= 0 else None
                 for code in case["columns"]["fp"]]
        for name in CASE_COLUMNS:
            joined = np.concatenate([reads[case_id][name]
                                     for case_id in chosen])
            assert frame.column(name).tolist() == joined.tolist(), name
        counts = [len(reads[case_id]["pid"]) for case_id in chosen]
        for name, key in (("case", "case_id"), ("cid", "cid"),
                          ("host", "host"), ("rid", "rid")):
            expected = [written[case_id][key] for case_id, count
                        in zip(chosen, counts) for _ in range(count)]
            values = frame.column(name).tolist() if name == "rid" \
                else frame.decoded(name)
            assert values == expected, name
        assert list(frame.pools.calls) == store.pools["calls"]
        assert list(frame.pools.paths) == store.pools["paths"]
        assert list(frame.pools.cases) == chosen
        for pool, key in (("cids", "cid"), ("hosts", "host")):
            assert list(getattr(frame.pools, pool)) == list(dict.fromkeys(
                written[case_id][key] for case_id in chosen)), pool
        assert frame.sorted_within_cases() is frame

    @given(_stores(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_damage_is_a_located_store_error(self, tmp_path_factory,
                                             store_spec, data):
        """A cut anywhere, or a flipped byte in the header, the chunks
        or the TOC, raises ``StoreFormatError`` naming the path —
        through the whole-log read and the per-case reads alike."""
        cases, chunk_values, _ = store_spec
        path = _write_store(tmp_path_factory.mktemp("damage") / "log.elog",
                            cases, chunk_values)
        original = path.read_bytes()
        toc_offset = struct.unpack(HEADER_FMT, original[:HEADER_SIZE])[3]
        damaged = bytearray(original)
        region = data.draw(st.sampled_from(["cut", "header", "chunks",
                                            "toc"]))
        if region == "cut":
            del damaged[data.draw(st.integers(0, len(original) - 1)):]
        else:
            low, high = {"header": (0, HEADER_SIZE),
                         "chunks": (HEADER_SIZE, toc_offset),
                         "toc": (toc_offset, len(original))}[region]
            if low == high:  # a store with no cases has no chunk bytes
                return
            damaged[data.draw(st.integers(low, high - 1))] ^= data.draw(
                st.integers(1, 255))
        path.write_bytes(damaged)
        with pytest.raises(StoreFormatError) as caught:
            read_event_log(path)
        assert str(path) in str(caught.value)
        with pytest.raises(StoreFormatError) as caught:
            for _ in ElstoreSource(path).iter_cases():
                pass
        assert str(path) in str(caught.value)

    def test_every_header_and_toc_byte_flip_is_caught(self, tmp_path):
        """Each header field is checked (the TOC must end the file) and
        the CRC covers every TOC byte, its own included: every flip of
        one of those bytes fails at open, naming the path."""
        path = _two_cid_store(tmp_path / "log.elog", chunk_values=3)
        original = path.read_bytes()
        toc_offset = struct.unpack(HEADER_FMT, original[:HEADER_SIZE])[3]
        loaded = []
        for at in [*range(HEADER_SIZE), *range(toc_offset, len(original))]:
            for mask in (0x01, 0x80, 0xFF, 0x5A):
                damaged = bytearray(original)
                damaged[at] ^= mask
                path.write_bytes(damaged)
                try:
                    EventLogStore(path)
                except StoreFormatError as exc:
                    assert str(exc).startswith(f"{path}: ")
                else:
                    loaded.append((at, mask))
        assert loaded == []
        assert toc_offset < len(original) - 1000  # a TOC of many refs

    @given(st.lists(st.tuples(_pool_text, _pool_text, _pool_text,
                              st.lists(_pool_text, min_size=1, max_size=3,
                                       unique=True),
                              st.lists(_pool_text, max_size=3, unique=True)),
                    max_size=4, unique_by=lambda case: case[0]))
    @settings(max_examples=100, deadline=None)
    def test_any_string_round_trips(self, tmp_path_factory, named):
        """Case ids, cids, hosts, calls and paths read back equal: NUL,
        non-BMP characters and lone surrogates included."""
        cases = []
        for rid, (case_id, cid, host, calls, paths) in enumerate(named):
            n = len(calls) + len(paths)
            fp = [*[-1] * len(calls), *range(len(paths))]
            cases.append(dict(
                case_id=case_id, cid=cid, host=host, rid=rid,
                columns={"pid": np.ones(n, dtype=np.int64),
                         "call": np.arange(n) % len(calls),
                         "start": np.arange(n),
                         "dur": np.zeros(n, dtype=np.int64),
                         "fp": np.array(fp, dtype=np.int64),
                         "size": np.zeros(n, dtype=np.int64)},
                call_strings=calls, path_strings=paths))
        path = _write_store(tmp_path_factory.mktemp("text") / "log.elog",
                            cases, 65536)
        store = EventLogStore(path)
        assert store.stored_case_ids() == [case[0] for case in named]
        for rid, (case_id, cid, host, calls, paths) in enumerate(named):
            assert store.case_name(case_id) == (cid, host, rid)
            data = store.read_case(case_id)
            assert [store.pools["calls"][code] for code in data["call"]] \
                == [calls[i % len(calls)] for i in range(len(data["call"]))]
            assert [store.pools["paths"][code] for code in data["fp"]
                    if code >= 0] == paths
        if not named:
            return
        frame = read_event_log(path).frame
        assert set(frame.decoded("case")) == {case[0] for case in named}
        assert set(frame.decoded("cid")) == {case[1] for case in named}
        assert set(frame.decoded("host")) == {case[2] for case in named}
        assert set(frame.decoded("call")) == {
            call for case in named for call in case[3]}
        assert set(frame.decoded("fp")) - {None} == {
            path for case in named for path in case[4]}
