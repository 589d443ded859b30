"""Line tokenization and record-kind classification."""

import pytest

from repro._util.errors import TraceParseError
from repro.strace.tokenizer import (
    RecordKind,
    resumed_call_name,
    tokenize_line,
    unfinished_call_name,
)


class TestHeader:
    def test_paper_line(self):
        token = tokenize_line(
            "9054  08:55:54.153994 read(3</etc/passwd>, ..., 832) "
            "= 832 <0.000203>")
        assert token.pid == 9054
        assert token.start_us == 32154153994
        assert token.kind is RecordKind.SYSCALL

    def test_trailing_newline_tolerated(self):
        token = tokenize_line(
            "1  00:00:00.000001 close(3</x>) = 0 <0.000001>\n")
        assert token.kind is RecordKind.SYSCALL

    @pytest.mark.parametrize("bad", [
        "",                                     # empty
        "no header at all",
        "9054 read(...) = 0",                   # missing timestamp
        "9054  25:00:00.000000 read() = 0",     # invalid hour
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(TraceParseError):
            tokenize_line(bad)

    def test_error_carries_location(self):
        with pytest.raises(TraceParseError) as excinfo:
            tokenize_line("garbage", path="x.st", lineno=7)
        assert "x.st" in str(excinfo.value)
        assert "7" in str(excinfo.value)


class TestClassification:
    def test_unfinished(self):
        token = tokenize_line(
            "77423  16:56:40.452431 read(3</usr/lib/libc.so>, "
            "<unfinished ...>")
        assert token.kind is RecordKind.UNFINISHED

    def test_resumed(self):
        token = tokenize_line(
            "77423  16:56:40.452660 <... read resumed> ..., 405) "
            "= 404 <0.000223>")
        assert token.kind is RecordKind.RESUMED

    def test_signal(self):
        token = tokenize_line(
            "9054  08:55:54.200000 --- SIGCHLD {si_signo=SIGCHLD, "
            "si_code=CLD_EXITED} ---")
        assert token.kind is RecordKind.SIGNAL

    def test_exit(self):
        token = tokenize_line("9054  08:55:54.300000 +++ exited with 0 +++")
        assert token.kind is RecordKind.EXIT

    def test_killed(self):
        token = tokenize_line(
            "9054  08:55:54.300000 +++ killed by SIGKILL +++")
        assert token.kind is RecordKind.EXIT

    def test_unrecognized_body_rejected(self):
        with pytest.raises(TraceParseError):
            tokenize_line("9054  08:55:54.300000 ??? what is this")


class TestCallNameExtraction:
    def test_resumed_call_name(self):
        assert resumed_call_name(
            "<... read resumed> ..., 405) = 404 <0.000223>") == "read"

    def test_resumed_call_name_pwrite(self):
        assert resumed_call_name(
            "<... pwrite64 resumed> ) = 1048576 <0.001000>") == "pwrite64"

    def test_resumed_rejects_non_resumed(self):
        with pytest.raises(TraceParseError):
            resumed_call_name("read(3, ...) = 0")

    def test_unfinished_call_name(self):
        assert unfinished_call_name(
            "read(3</x>, <unfinished ...>") == "read"

    def test_unfinished_rejects_non_call(self):
        with pytest.raises(TraceParseError):
            unfinished_call_name("--- SIGCHLD ---")


class TestAlternativeHeaderFormats:
    def test_ttt_epoch_stamp(self):
        token = tokenize_line(
            "9054  1700000000.123456 read(3</x>, ..., 8) = 8 <0.000001>")
        assert token.pid == 9054
        assert token.start_us == 1700000000123456
        assert token.kind is RecordKind.SYSCALL

    def test_pidless_wallclock(self):
        token = tokenize_line(
            "08:55:54.153994 read(3</x>, ..., 8) = 8 <0.000001>")
        assert token.pid == 0
        assert token.start_us == 32154153994

    def test_pidless_epoch(self):
        token = tokenize_line(
            "1700000000.123456 close(3</x>) = 0 <0.000001>")
        assert token.pid == 0
        assert token.start_us == 1700000000123456

    def test_ambiguous_short_epoch_rejected(self):
        with pytest.raises(TraceParseError):
            tokenize_line("12345  67890.123456 read() = 0")
