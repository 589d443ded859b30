"""The streaming tokenizer path (repro.ingest.streaming)."""

from __future__ import annotations

import pytest

from repro._util.errors import TraceParseError
from repro.ingest.streaming import TokenStream
from repro.strace.reader import read_trace_file
from repro.strace.resume import merge_unfinished
from repro.strace.tokenizer import RecordKind, tokenize_line

GOOD_LINE = "1  00:00:00.000001 close(3</x>) = 0 <0.000001>\n"


class TestTokenStream:
    def test_yields_same_tokens_as_list_path(self, fig1_dir):
        path = fig1_dir / "b_host1_9157.st"
        streamed = list(TokenStream(path))
        eager = [
            tokenize_line(line, path=str(path), lineno=i)
            for i, line in enumerate(
                path.read_text().splitlines(), start=1)
            if line.strip()
        ]
        assert streamed == eager

    def test_is_lazy(self, tmp_path):
        """Construction must not open the file; iteration must not
        read past the line it is asked for."""
        path = tmp_path / "a_h_1.st"
        stream = TokenStream(path)  # file does not exist yet
        path.write_text(GOOD_LINE + "this line is garbage\n")
        iterator = iter(stream)
        token = next(iterator)
        assert token.kind is RecordKind.SYSCALL
        with pytest.raises(TraceParseError):
            next(iterator)

    def test_restartable(self, tmp_path):
        path = tmp_path / "a_h_1.st"
        path.write_text(GOOD_LINE * 3)
        stream = TokenStream(path)
        assert len(list(stream)) == 3
        assert len(list(stream)) == 3  # second pass re-opens

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "a_h_1.st"
        path.write_text("\n" + GOOD_LINE + "   \n" + GOOD_LINE)
        assert len(list(TokenStream(path))) == 2

    def test_crlf_tolerated(self, tmp_path):
        path = tmp_path / "a_h_1.st"
        path.write_bytes(GOOD_LINE.rstrip("\n").encode() + b"\r\n")
        (token,) = TokenStream(path)
        assert token.kind is RecordKind.SYSCALL
        assert token.body.endswith("<0.000001>")

    def test_cr_only_terminators_tolerated(self, tmp_path):
        """Universal-newline parity with the old text-mode reader:
        lone \\r separates records too."""
        path = tmp_path / "a_h_1.st"
        path.write_bytes(
            GOOD_LINE.rstrip("\n").encode() + b"\r"
            + GOOD_LINE.rstrip("\n").encode() + b"\r")
        tokens = list(TokenStream(path))
        assert len(tokens) == 2
        assert all(t.kind is RecordKind.SYSCALL for t in tokens)

    def test_line_numbers_follow_logical_lines(self, tmp_path):
        """Error positions count universal-newline logical lines, so a
        CR-separated file reports the true line, not physical-\\n 1."""
        path = tmp_path / "a_h_1.st"
        path.write_bytes(GOOD_LINE.rstrip("\n").encode() + b"\r"
                         + b"garbage line")
        with pytest.raises(TraceParseError) as excinfo:
            list(TokenStream(path))
        assert excinfo.value.lineno == 2

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 64])
    def test_raw_line_splitter_chunk_boundaries(self, chunk_size):
        """\\r\\n spanning a chunk boundary must not produce a phantom
        blank line; every terminator style round-trips, as ``\\n``
        in blocks of complete lines."""
        import io

        from repro.ingest.streaming import _iter_raw_blocks

        data = b"one\r\ntwo\rthree\nfour\r\n\r\nfive"
        blocks = list(_iter_raw_blocks(io.BytesIO(data),
                                       chunk_size=chunk_size))
        assert all(block.endswith(b"\n") for block in blocks)
        assert b"".join(blocks) == b"one\ntwo\nthree\nfour\n\nfive\n"

    def test_composes_with_merger_without_list(self, tmp_path):
        path = tmp_path / "a_h_1.st"
        path.write_text(
            "1  00:00:00.000001 read(3</x>, <unfinished ...>\n"
            "1  00:00:00.000900 <... read resumed> ..., 5) = 5 "
            "<0.000899>\n")
        records, stats = merge_unfinished(TokenStream(path),
                                          path=str(path))
        assert len(records) == 1
        assert stats.merged_pairs == 1


class TestDecodeDiagnostics:
    """Satellite: undecodable bytes are counted, warned, or fatal —
    never silently smoothed over."""

    MALFORMED = (b"1  00:00:00.000001 read(3</data/f\xff\xfeile>, ..., 5)"
                 b" = 5 <0.000001>\n")

    def test_strict_raises_at_offending_line(self, tmp_path):
        path = tmp_path / "a_h_1.st"
        path.write_bytes(GOOD_LINE.encode() + self.MALFORMED)
        with pytest.raises(TraceParseError) as excinfo:
            read_trace_file(path)
        assert excinfo.value.lineno == 2
        assert "undecodable" in str(excinfo.value)

    def test_lenient_counts_and_warns(self, tmp_path):
        path = tmp_path / "a_h_1.st"
        path.write_bytes(GOOD_LINE.encode() + self.MALFORMED)
        with pytest.warns(UserWarning, match="undecodable"):
            case = read_trace_file(path, strict=False)
        assert case.merge_stats.decode_replacements == 2
        assert len(case) == 2
        assert "�" in case.records[1].fp

    def test_clean_file_has_zero_replacements(self, fig1_dir):
        case = read_trace_file(fig1_dir / "a_host1_9042.st")
        assert case.merge_stats.decode_replacements == 0

    def test_preexisting_replacement_char_not_counted(self, tmp_path):
        """A path legitimately containing U+FFFD (valid UTF-8) must not
        inflate the corruption count of an undecodable byte."""
        path = tmp_path / "a_h_1.st"
        legit = "1  00:00:00.000001 read(3</weird�name>, ..., 5) = 5 " \
                "<0.000001>\n"
        bad = b"1  00:00:00.000900 read(3</bro\xffken>, ..., 5) = 5 " \
              b"<0.000001>\n"
        path.write_bytes(legit.encode("utf-8") + bad)
        with pytest.warns(UserWarning):
            case = read_trace_file(path, strict=False)
        assert case.merge_stats.decode_replacements == 1

    def test_session_strict_passthrough(self, tmp_path):
        from repro.pipeline.session import InspectionSession

        path = tmp_path / "a_h_1.st"
        path.write_bytes(GOOD_LINE.encode() + self.MALFORMED)
        with pytest.raises(TraceParseError):
            InspectionSession.from_source(tmp_path)
        with pytest.warns(UserWarning):
            session = InspectionSession.from_source(tmp_path,
                                                       strict=False)
        assert session.event_log.n_events == 2

    def test_cli_lenient_flag(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "a_h_1.st").write_bytes(
            GOOD_LINE.encode() + self.MALFORMED)
        assert main(["report", str(tmp_path)]) == 2  # strict default
        assert "undecodable" in capsys.readouterr().err
        with pytest.warns(UserWarning, match="undecodable"):
            assert main(["report", str(tmp_path), "--lenient"]) == 0
        assert "read" in capsys.readouterr().out


class TestStreamingReader:
    def test_read_trace_file_unchanged_results(self, fig1_dir):
        """The streaming rewrite preserves the documented output."""
        case = read_trace_file(fig1_dir / "a_host1_9042.st")
        assert case.case_id == "a9042"
        assert len(case) == 8
        starts = [r.start_us for r in case.records]
        assert starts == sorted(starts)
