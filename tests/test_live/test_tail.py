"""FileTail: byte-offset tailing with carry-over parse state."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro._util.errors import TraceParseError
from repro.live.tail import FileTail
from repro.strace.reader import read_trace_file

LINE_A = b"100  10:00:00.000001 read(3</a>, ..., 10) = 10 <0.000005>\n"
LINE_B = b"100  10:00:00.000200 write(4</b>, ..., 5) = 5 <0.000002>\n"
UNFINISHED = b"100  10:00:00.000400 read(3</a>, <unfinished ...>\n"
OTHER_PID = b"200  10:00:00.000500 close(5</c>) = 0 <0.000001>\n"
RESUMED = b"100  10:00:00.000900 <... read resumed> ..., 20) = 20 <0.000899>\n"


def calls(rows: list[tuple]) -> list[str]:
    """The syscall names of sealed ``(pid, start_us, call, …)`` rows."""
    return [row[2] for row in rows]


def _tail(tmp_path: Path, name: str = "a_host1_1.st",
          **kwargs) -> tuple[Path, FileTail]:
    path = tmp_path / name
    path.write_bytes(b"")
    return path, FileTail(path, **kwargs)


class TestByteTailing:
    def test_records_across_polls(self, tmp_path):
        path, tail = _tail(tmp_path)
        path.write_bytes(LINE_A)
        assert calls(tail.poll()) == ["read"]
        with open(path, "ab") as h:
            h.write(LINE_B)
        assert calls(tail.poll()) == ["write"]
        assert tail.poll() == []  # nothing appended

    def test_line_split_at_arbitrary_byte(self, tmp_path):
        path, tail = _tail(tmp_path)
        path.write_bytes(LINE_A[:17])  # mid-timestamp
        assert tail.poll() == []
        with open(path, "ab") as h:
            h.write(LINE_A[17:] + LINE_B)
        assert calls(tail.poll()) == ["read", "write"]

    def test_crlf_split_between_cr_and_lf(self, tmp_path):
        path, tail = _tail(tmp_path)
        path.write_bytes(LINE_A[:-1] + b"\r")  # CR lands, LF pending
        assert tail.poll() == []  # held back: may pair with a '\n'
        with open(path, "ab") as h:
            h.write(b"\n" + LINE_B)
        records = tail.poll()
        assert calls(records) == ["read", "write"]

    def test_lone_cr_terminates_line_at_finish(self, tmp_path):
        path, tail = _tail(tmp_path)
        path.write_bytes(LINE_A[:-1] + b"\r")
        assert tail.poll() == []
        records = tail.finish()
        assert calls(records) == ["read"]

    def test_unterminated_final_line_parsed_at_finish(self, tmp_path):
        path, tail = _tail(tmp_path)
        path.write_bytes(LINE_A + LINE_B[:-1])  # no trailing newline
        assert calls(tail.poll()) == ["read"]
        assert calls(tail.finish()) == ["write"]

    def test_shrunk_file_is_an_error(self, tmp_path):
        path, tail = _tail(tmp_path)
        path.write_bytes(LINE_A + LINE_B)
        tail.poll()
        path.write_bytes(LINE_A)
        with pytest.raises(TraceParseError, match="shrank"):
            tail.poll()

    def test_poll_after_finish_rejected(self, tmp_path):
        path, tail = _tail(tmp_path)
        tail.finish()
        with pytest.raises(TraceParseError, match="finish"):
            tail.poll()

    def test_vanished_file_is_an_error(self, tmp_path):
        path, tail = _tail(tmp_path)
        path.unlink()
        with pytest.raises(TraceParseError, match="vanished"):
            tail.poll()


class TestMergeAcrossPolls:
    def test_unfinished_resumed_in_different_polls(self, tmp_path):
        path, tail = _tail(tmp_path)
        path.write_bytes(UNFINISHED)
        assert tail.poll() == []
        with open(path, "ab") as h:
            h.write(RESUMED)
        (row,) = tail.poll()
        assert (row[2], row[4]) == ("read", 20)  # call, size
        assert tail.merger.stats.merged_pairs == 1

    def test_intermediate_record_sealed_only_after_merge(self, tmp_path):
        """A record between the two halves must wait: the merged record
        sorts before it."""
        path, tail = _tail(tmp_path)
        path.write_bytes(UNFINISHED + OTHER_PID)
        assert tail.poll() == []  # close(5) buffered behind the merge
        assert tail.merger.n_buffered == 1
        with open(path, "ab") as h:
            h.write(RESUMED)
        records = tail.poll()
        assert [(row[0], row[2]) for row in records] == [
            (100, "read"), (200, "close")]

    def test_matches_batch_parse_of_final_file(self, tmp_path):
        content = LINE_A + UNFINISHED + OTHER_PID + RESUMED + LINE_B[:0]
        path, tail = _tail(tmp_path)
        records = []
        for i in range(0, len(content), 37):  # odd chunk size
            with open(path, "ab") as h:
                h.write(content[i:i + 37])
            records += tail.poll()
        records += tail.finish()
        batch = read_trace_file(path)
        assert records == batch.records
        assert tail.merger.stats == batch.merge_stats


class TestDecoding:
    BAD = b"100  10:00:00.000001 read(3</a\xff>, ..., 10) = 10 <0.000005>\n"

    def test_strict_raises_on_undecodable_bytes(self, tmp_path):
        path, tail = _tail(tmp_path)
        path.write_bytes(self.BAD)
        with pytest.raises(TraceParseError, match="undecodable"):
            tail.poll()

    def test_lenient_counts_replacements(self, tmp_path):
        path = tmp_path / "a_host1_1.st"
        path.write_bytes(self.BAD)
        tail = FileTail(path, strict=False)
        assert calls(tail.poll()) == ["read"]
        assert tail.merger.stats.decode_replacements == 1

    def test_lineno_cumulative_across_polls(self, tmp_path):
        path, tail = _tail(tmp_path)
        path.write_bytes(LINE_A)
        tail.poll()
        with open(path, "ab") as h:
            h.write(b"garbage without a header\n")
        with pytest.raises(TraceParseError) as excinfo:
            tail.poll()
        assert excinfo.value.lineno == 2
