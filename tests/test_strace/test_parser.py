"""Argument-level syscall parsing: fp / size / dur extraction rules."""

import pytest

from repro._util.errors import TraceParseError
from repro.strace.parser import parse_body, parse_line, split_args


def parse(line: str):
    record = parse_line(line)
    assert record is not None
    return record


class TestSplitArgs:
    def test_simple(self):
        args, end = split_args("3, 4, 5) tail")
        assert args == ["3", "4", "5"]
        assert end == 7

    def test_quoted_commas(self):
        args, _ = split_args('"a,b", 2)')
        assert args == ['"a,b"', "2"]

    def test_escaped_quote_inside_string(self):
        args, _ = split_args('"say \\"hi\\", ok", 1)')
        assert args == ['"say \\"hi\\", ok"', "1"]

    def test_nested_braces(self):
        args, _ = split_args("{st_mode=S_IFREG|0644, st_size=123}, 9)")
        assert args == ["{st_mode=S_IFREG|0644, st_size=123}", "9"]

    def test_fd_annotation_with_comma_in_path(self):
        args, _ = split_args("3</weird,path/file>, 10)")
        assert args == ["3</weird,path/file>", "10"]

    def test_empty_args(self):
        args, end = split_args(")")
        assert args == []
        assert end == 0

    def test_unterminated_rejected(self):
        with pytest.raises(TraceParseError):
            split_args("1, 2, 3")

    def test_unbalanced_rejected(self):
        with pytest.raises(TraceParseError):
            split_args("1}, 2)")


class TestTransferCalls:
    def test_read_paper_line(self):
        record = parse(
            "9054  08:55:54.153994 read(3</usr/lib/x86_64-linux-gnu/"
            "libselinux.so.1>, ..., 832) = 832 <0.000203>")
        assert record.call == "read"
        assert record.fp == "/usr/lib/x86_64-linux-gnu/libselinux.so.1"
        assert record.size == 832
        assert record.dur_us == 203
        assert record.ok

    def test_short_read_size_differs_from_requested(self):
        # Sec. III item 6: requested may differ from transferred; the
        # size is what was transferred (the return value).
        record = parse(
            "9054  08:55:54.162874 read(3</proc/filesystems>, ..., 1024) "
            "= 478 <0.000052>")
        assert record.size == 478

    def test_eof_read_zero(self):
        record = parse(
            "9054  08:55:54.163049 read(3</proc/filesystems>, \"\", 1024) "
            "= 0 <0.000040>")
        assert record.size == 0

    def test_write_with_string_buffer(self):
        record = parse(
            '9173  08:56:04.758661 write(1</dev/pts/7>, "total 40\\n", 9) '
            "= 9 <0.000074>")
        assert record.call == "write"
        assert record.fp == "/dev/pts/7"
        assert record.size == 9

    def test_pwrite64_with_offset(self):
        record = parse(
            "100  10:00:00.000000 pwrite64(3</p/scratch/t>, ..., 1048576, "
            "16777216) = 1048576 <0.000310>")
        assert record.call == "pwrite64"
        assert record.size == 1048576
        assert record.fp == "/p/scratch/t"

    def test_failed_read_has_no_size(self):
        record = parse(
            "100  10:00:00.000000 read(3</x>, ..., 512) = -1 EINTR "
            "(Interrupted system call) <0.000100>")
        assert record.size is None
        assert record.errno == "EINTR"
        assert not record.ok


class TestOpenat:
    def test_openat_path_from_returned_fd(self):
        # With -y, strace annotates the *returned* descriptor.
        record = parse(
            '77  10:00:00.000001 openat(AT_FDCWD, "/etc/passwd", '
            "O_RDONLY|O_CLOEXEC) = 3</etc/passwd> <0.000010>")
        assert record.call == "openat"
        assert record.fp == "/etc/passwd"
        assert record.ok
        assert record.size is None  # openat is not a transfer call

    def test_openat_fallback_to_quoted_arg_without_y(self):
        record = parse(
            '77  10:00:00.000001 openat(AT_FDCWD, "/etc/passwd", '
            "O_RDONLY) = 3 <0.000010>")
        assert record.fp == "/etc/passwd"

    def test_failed_openat_probe(self):
        record = parse(
            '77  10:00:00.000001 openat(AT_FDCWD, "/lib/nope.so", '
            "O_RDONLY|O_CLOEXEC) = -1 ENOENT (No such file or directory) "
            "<0.000004>")
        assert record.fp == "/lib/nope.so"
        assert record.errno == "ENOENT"
        assert not record.ok and record.size is None

    def test_open_with_mode(self):
        record = parse(
            '77  10:00:00.000001 openat(AT_FDCWD, "/p/scratch/t", '
            "O_WRONLY|O_CREAT, 0664) = 4</p/scratch/t> <0.000300>")
        assert record.fp == "/p/scratch/t"
        assert record.ok and record.size is None


class TestOtherCalls:
    def test_lseek(self):
        record = parse(
            "9  09:00:00.000000 lseek(3</p/scratch/t>, 16777216, SEEK_SET) "
            "= 16777216 <0.000003>")
        assert record.call == "lseek"
        assert record.fp == "/p/scratch/t"
        assert record.size is None       # not a transfer call (Sec. III)
        assert record.dur_us == 3

    def test_close(self):
        record = parse(
            "9  09:00:00.000000 close(3</p/scratch/t>) = 0 <0.000002>")
        assert record.fp == "/p/scratch/t"

    def test_fsync(self):
        record = parse(
            "9  09:00:00.000000 fsync(3</p/scratch/t>) = 0 <0.004500>")
        assert record.call == "fsync"
        assert record.dur_us == 4500

    def test_stat_path_argument(self):
        record = parse(
            '9  09:00:00.000000 stat("/etc/hosts", {st_mode=S_IFREG|0644, '
            "st_size=411}) = 0 <0.000008>")
        assert record.fp == "/etc/hosts"

    def test_mmap_hex_return(self):
        record = parse(
            "9  09:00:00.000000 mmap(NULL, 8192, PROT_READ, MAP_PRIVATE, "
            "3, 0) = 0x7f1234560000 <0.000012>")
        assert record.call == "mmap"
        assert record.ok and record.size is None
        assert record.fp is None

    def test_unknown_call_still_parses(self):
        record = parse(
            "9  09:00:00.000000 frobnicate(1</x>, 2) = 0 <0.000001>")
        assert record.call == "frobnicate"
        assert record.fp == "/x"  # generic fd-annotation extraction

    def test_read_without_y_annotation_has_no_fp(self):
        record = parse(
            "9  09:00:00.000000 read(3, ..., 100) = 100 <0.000001>")
        assert record.fp is None
        assert record.size == 100


class TestReturnClause:
    def test_missing_duration_is_none(self):
        record = parse_body(
            9, 0, "read(3</x>, ..., 4) = 4")
        assert record.dur_us is None

    def test_detached_question_mark(self):
        record = parse_body(9, 0, "read(3</x>, ..., 4) = ? <0.000001>")
        assert record.size is None
        assert record.dur_us == 1

    def test_unparseable_return_rejected(self):
        with pytest.raises(TraceParseError):
            parse_body(9, 0, "read(3</x>) = banana")

    def test_non_syscall_body_rejected(self):
        with pytest.raises(TraceParseError):
            parse_body(9, 0, "= 0 <0.000001>")


def test_parse_line_returns_none_for_signals():
    assert parse_line("9  09:00:00.000000 --- SIGUSR1 {} ---") is None
    assert parse_line("9  09:00:00.000000 +++ exited with 0 +++") is None
