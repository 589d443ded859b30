"""The fast line parse against the general scan (differential).

Every line goes through :func:`repro.strace.parser.match_line` first;
the tokenizer plus :func:`repro.strace.parser.scan_body` are the
general path. The fast path may decline any line, but a line it takes
must give exactly the general scan's row, and a line the general path
rejects must be declined — so errors fire on the same lines. Lines are
drawn from the simulator's strace writer and then mutated
adversarially: quoted arguments holding ``,)]}>``, escapes and the
``"..."...`` abbreviation, ``fd<path>`` at a non-zero index,
struct/array arguments, hex and ``?`` returns, ``ERESTART*``,
``(Timeout)``-style flag descriptions, pid-less and ``-ttt`` headers,
and stray characters anywhere.
"""

from __future__ import annotations

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util.errors import TraceParseError
from repro.simulate.recording import SyscallRecord
from repro.simulate.strace_writer import format_record, format_record_split
from repro.strace import parser
from repro.strace.parser import match_body, match_line, scan_body
from repro.strace.resume import IncrementalMerger
from repro.strace.tokenizer import RecordKind, tokenize_line

# -- strategies -----------------------------------------------------------

_PATH_CHARS = st.sampled_from(list("abz/._-0 ,=x") + ["\\", "é"])
_ADVERSARIAL = list(',)]}>({[<"\\') + ["\\\"", "\\\\", "\\n", "..."]

paths = st.text(_PATH_CHARS, min_size=1, max_size=12).map(
    lambda tail: "/" + tail)


@st.composite
def quoted(draw):
    """A C string as strace prints it, possibly abbreviated."""
    parts = draw(st.lists(
        st.one_of(st.sampled_from(_ADVERSARIAL),
                  st.text(_PATH_CHARS, max_size=4)),
        max_size=5))
    body = "".join(p if p not in ('"', "\\") else "\\" + p for p in parts)
    return f'"{body}"' + draw(st.sampled_from(["", "", "..."]))


def arguments():
    return st.one_of(
        st.builds(lambda fd, p: f"{fd}<{p}>",
                  st.integers(0, 99), paths),              # fd<path>
        quoted(),
        st.sampled_from(["...", "1048576", "0", "AT_FDCWD", "SEEK_SET",
                         "O_RDONLY|O_CLOEXEC", "0644", "NULL", ""]),
        st.sampled_from(["{st_mode=S_IFREG|0644, st_size=411}",
                         '[{iov_base="ab,)", iov_len=4}]',
                         "[1, 2]", "{}"]),                 # struct/array
    )


@st.composite
def returns(draw):
    val = draw(st.sampled_from(
        ["0", "3", "832", "1048576", "-1", "?", "0x7f1234560000", "0x10",
         "-3"]))
    ret = "= " + val
    if draw(st.booleans()):
        ret += f"<{draw(paths)}>"
    errno = draw(st.sampled_from(
        [None, None, "ENOENT (No such file or directory)",
         "EINTR (Interrupted system call)",
         "ERESTARTSYS (To be restarted if SA_RESTART is set)",
         "ERESTARTNOHAND (To be restarted if no handler)",
         "ERESTART_RESTARTBLOCK (Interrupted by signal)"]))
    if errno:
        ret += " " + errno
    if draw(st.integers(0, 4)) == 0:
        ret += " (Timeout)"
    if draw(st.integers(0, 5)):
        ret += " <%d.%06d>" % (draw(st.integers(0, 3)),
                               draw(st.integers(0, 999_999)))
    return ret + draw(st.sampled_from(["", "", " ", "\t"]))


CALLS = ["read", "write", "pread64", "pwrite64", "readv", "openat",
         "open", "creat", "lseek", "close", "fsync", "sync", "mmap",
         "stat", "newfstatat", "access", "frobnicate"]


@st.composite
def writer_lines(draw):
    """A complete line or an unfinished/resumed pair, as the
    simulator's strace writer renders it."""
    call = draw(st.sampled_from(
        ["read", "write", "pread64", "pwrite64", "openat", "open",
         "lseek", "close", "fsync"]))
    path = draw(paths)
    record = SyscallRecord(
        pid=draw(st.integers(1, 99999)), call=call,
        start_us=draw(st.integers(0, 86_000_000_000)),
        dur_us=draw(st.integers(1, 10**6)), path=path,
        fd=draw(st.integers(3, 99)), size=draw(st.integers(0, 1 << 20)),
        requested=1 << 20,
        ret_fd=draw(st.one_of(st.none(), st.integers(3, 99))),
        args_hint=draw(st.sampled_from([None, "0", "4096"])))
    if draw(st.booleans()):
        return list(format_record_split(record))
    return [format_record(record)]


_WRITER_LINE_RE = re.compile(
    r"^(\d+)  (\S+) (\w+)\((.*)\) = (.*?)( <\d+\.\d{6}>)?$")


@st.composite
def mutated(draw, line):
    """``line`` with zero or more adversarial rewrites."""
    m = _WRITER_LINE_RE.match(line)
    if m is not None:
        pid, stamp, call, args, ret, dur = m.groups()
        header = f"{pid}  {stamp} "
        choice = draw(st.integers(0, 3))
        if choice == 1:
            header = f"{stamp} "                            # pid-less
        elif choice == 2:
            header = f"{pid} {draw(st.integers(10**9, 10**12 - 1))}" \
                     f".{draw(st.integers(0, 999_999)):06d} "  # -ttt
        elif choice == 3:
            header = f"{pid}  {draw(st.sampled_from(['23', '24', '99']))}" \
                     f"{stamp[2:]} "                       # hour range
        if draw(st.booleans()):
            args = ", ".join(draw(st.lists(arguments(), max_size=4)))
        if draw(st.booleans()):
            call = draw(st.sampled_from(CALLS))
        tail = f"= {ret}{dur or ''}"
        if draw(st.booleans()):
            tail = draw(returns())
        line = f"{header}{call}({args}) {tail}"
    for _ in range(draw(st.integers(0, 2))):                # stray chars
        pos = draw(st.integers(0, len(line)))
        if draw(st.booleans()) and pos < len(line):
            line = line[:pos] + line[pos + 1:]
        else:
            line = line[:pos] + draw(st.sampled_from(
                list('()[]{}<>,"\\ =?x0') + ["<unfinished ...>"])) \
                + line[pos:]
    return line


@st.composite
def grammar_lines(draw):
    """A line built from the grammar's pieces, any call."""
    pid = draw(st.sampled_from(["", "7 ", "4711  "]))
    stamp = draw(st.sampled_from(
        ["10:00:00.000001", "23:59:59.999999", "00:00:00.000000",
         "1700000000.123456"]))
    call = draw(st.sampled_from(CALLS))
    args = ", ".join(draw(st.lists(arguments(), max_size=4)))
    return f"{pid}{stamp} {call}({args}) {draw(returns())}"


lines = st.one_of(
    writer_lines().flatmap(
        lambda pair: st.tuples(*(mutated(line) for line in pair))
    ).flatmap(st.sampled_from),
    grammar_lines(),
)


# -- the general path as reference ----------------------------------------

def general_row(line: str):
    """The general path: tokenize, then scan a syscall body. Returns the
    row, None for other record kinds, or the raised error."""
    try:
        token = tokenize_line(line)
        if token.kind is not RecordKind.SYSCALL:
            return None
        return scan_body(token.pid, token.start_us, token.body)
    except TraceParseError as exc:
        return exc


# -- properties -----------------------------------------------------------

@given(lines)
@settings(max_examples=300, deadline=None)
def test_fast_line_agrees_with_general_scan(line):
    fast = match_line(line)
    if fast is not None:
        assert general_row(line) == fast


@given(lines)
@settings(max_examples=200, deadline=None)
def test_fast_body_agrees_with_general_scan(line):
    body = line.split(" ", 3)[-1].lstrip()
    fast = match_body(9, 42, body)
    if fast is None:
        return
    assert scan_body(9, 42, body) == fast


def _merge(texts: list[str]):
    """Rows + stats, or the (lineno, message) of the error raised."""
    merger = IncrementalMerger(path="t.st", rows=True)
    try:
        rows = merger.feed_lines(
            (n, text) for n, text in enumerate(texts, start=1)
            if text.strip())
        rows += merger.finish()
    except TraceParseError as exc:
        return exc.lineno, str(exc)
    return rows, merger.stats


@given(st.lists(writer_lines().flatmap(
    lambda pair: st.tuples(*(mutated(line) for line in pair))),
    min_size=1, max_size=6).map(
        lambda pairs: [line for pair in pairs for line in pair]))
@settings(max_examples=150, deadline=None)
def test_merge_with_and_without_fast_path(texts):
    """Whole files: the same rows and merge statistics, or the same
    located error, whether or not the fast path takes any line."""
    fast = _merge(texts)
    with mock.patch("repro.strace.resume.match_line",
                    lambda line, default_pid=0: None), \
            mock.patch.object(parser, "match_body",
                              lambda pid, start_us, body: None):
        general = _merge(texts)
    assert fast == general


# -- the fast path is the common path --------------------------------------

def test_writer_lines_take_the_fast_path():
    """Every complete line the simulator writes for the paper's call
    sets is taken by the fast path (a regression to the general scan
    would keep results but lose the speed)."""
    rng = np.random.default_rng(0)
    for call in ["read", "write", "pread64", "pwrite64", "openat",
                 "open", "lseek", "close", "fsync"]:
        for ret_fd in (None, 5):
            record = SyscallRecord(
                pid=int(rng.integers(1, 99999)), call=call,
                start_us=int(rng.integers(0, 86_000_000_000)), dur_us=17,
                path="/p/scratch/fpp/test.00000003", fd=3, size=1 << 20,
                requested=1 << 20, ret_fd=ret_fd, args_hint="4096")
            line = format_record(record)
            assert match_line(line) is not None, line
            assert match_line(line) == general_row(line)


@pytest.mark.parametrize("line", [
    '1 10:00:00.000001 read(3</x>, "a,b)c]d}e>f", 5) = 5 <0.000001>',
    '1 10:00:00.000001 write(3</x>, "esc \\" q\\\\", 9) = 9 <0.000001>',
    '1 10:00:00.000001 write(3</x>, "abbrev"..., 9) = 9 <0.000001>',
    '10:00:00.000001 read(3</x>, ..., 5) = 5 <0.000001>',
    '1 1700000000.000001 read(3</x>, ..., 5) = 0x10 <0.000001>',
    '1 10:00:00.000001 read(3</x>, ..., 5) = ? <0.000001>',
    '1 10:00:00.000001 read(3</x>, ..., 5) = ? ERESTARTSYS (To be '
    'restarted if SA_RESTART is set) <0.000001>',
    '1 10:00:00.000001 openat(AT_FDCWD, "/a\\"b", O_RDONLY) = -1 '
    'ENOENT (No such file or directory) <0.000004>',
    '1 10:00:00.000001 poll(5</x>, 1, 0) = 0 (Timeout) <0.000001>',
])
def test_adversarial_shapes_agree(line):
    """One fixed line per mutation kind of the module docstring, each
    taken by the fast path."""
    fast = match_line(line)
    assert fast is not None
    assert fast == general_row(line)


@pytest.mark.parametrize("line", [
    '1 10:00:00.000001 fstat(3</x>, {st_mode=S_IFREG, st_size=1}) = 0',
    '1 10:00:00.000001 readv(3</x>, [{iov_base="a", iov_len=1}], 1) = 1',
    '1 10:00:00.000001 lseek(AT_FDCWD, 3</x>, SEEK_SET) = 0 <0.000001>',
    '1 10:00:00.000001 stat("/etc/hosts", 0x1) = 0 <0.000001>',
    '1 10:00:00.000001 read(3</x>) = 3<unfinished ...>',
    '1 25:00:00.000001 read(3</x>, ..., 5) = 5 <0.000001>',
])
def test_general_scan_shapes_are_declined(line):
    """Structs, arrays, an ``fd<path>`` at a non-zero index, a quoted
    path the catalog puts at an argument index, a return that reads as
    ``<unfinished ...>`` and out-of-range stamps go to the general
    path."""
    assert match_line(line) is None
