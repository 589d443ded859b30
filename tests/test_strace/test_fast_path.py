"""The fast road of the line parse against the general road
(differential).

:meth:`~repro.strace.resume.IncrementalMerger.feed_text` scans a block
of lines with one :data:`repro.strace.parser.LINE_RE` ``finditer``
and builds rows, fills a pid's slot or splices a resumed pair straight
from the groups of each line it takes; every line it declines is
tokenized (:func:`~repro.strace.tokenizer.tokenize_line`) and handled
by the general road, whose bodies go through
:func:`repro.strace.parser.scan_body`. The fast road may decline any
line, but what it takes must give exactly the general road's rows,
merge statistics and located errors. Lines are drawn from the
simulator's strace writer and then mutated adversarially: quoted
arguments holding ``,)]}>``, escapes and the ``"..."...``
abbreviation, ``fd<path>`` at a non-zero index, struct/array
arguments, hex and ``?`` returns, ``ERESTART*``, ``(Timeout)``-style
flag descriptions, pid-less and ``-ttt`` headers, out-of-range hours
and stray characters anywhere. Whole files are also read from bytes —
any line terminators, blank lines, undecodable bytes, blocks cut
anywhere — by the batch reader and by the live follower, against a
reference that decodes and tokenizes one line at a time.
"""

from __future__ import annotations

import functools
import json
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util.errors import TraceParseError
from repro.ingest import streaming
from repro.ingest.streaming import decode_trace_line
from repro.live.tail import FileTail
from repro.simulate.recording import SyscallRecord
from repro.simulate.strace_writer import format_record, format_record_split
from repro.strace import resume
from repro.strace.parser import scan_body
from repro.strace.reader import read_trace_records
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
def writer_lines(draw, pids=st.integers(1, 99999)):
    """A complete line or an unfinished/resumed pair, as the
    simulator's strace writer renders it."""
    call = draw(st.sampled_from(
        ["read", "write", "pread64", "pwrite64", "openat", "open",
         "lseek", "close", "fsync"]))
    path = draw(paths)
    record = SyscallRecord(
        pid=draw(pids), call=call,
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
_WRITER_HEADER_RE = re.compile(r"^(\d+)  (\S+) (.*)$")


@st.composite
def headers(draw, pid, stamp):
    """The writer's ``pid  HH:MM:SS.ffffff `` header, or a pid-less,
    ``-ttt`` or out-of-range-hour variant of it."""
    choice = draw(st.integers(0, 3))
    if choice == 1:
        return f"{stamp} "                                  # pid-less
    if choice == 2:
        return f"{pid} {draw(st.integers(10**9, 10**12 - 1))}" \
               f".{draw(st.integers(0, 999_999)):06d} "     # -ttt
    if choice == 3:
        return f"{pid}  {draw(st.sampled_from(['23', '24', '99']))}" \
               f"{stamp[2:]} "                              # hour range
    return f"{pid}  {stamp} "


@st.composite
def mutated(draw, line):
    """``line`` with zero or more adversarial rewrites."""
    m = _WRITER_LINE_RE.match(line)
    if m is not None:
        pid, stamp, call, args, ret, dur = m.groups()
        header = draw(headers(pid, stamp))
        if draw(st.booleans()):
            args = ", ".join(draw(st.lists(arguments(), max_size=4)))
        if draw(st.booleans()):
            call = draw(st.sampled_from(CALLS))
        tail = f"= {ret}{dur or ''}"
        if draw(st.booleans()):
            tail = draw(returns())
        line = f"{header}{call}({args}) {tail}"
    elif (m := _WRITER_HEADER_RE.match(line)) is not None:  # split half
        pid, stamp, body = m.groups()
        line = draw(headers(pid, stamp)) + body
    for _ in range(draw(st.integers(0, 2))):                # stray chars
        pos = draw(st.integers(0, len(line)))
        if draw(st.booleans()) and pos < len(line):
            line = line[:pos] + line[pos + 1:]
        else:
            line = line[:pos] + draw(st.sampled_from(
                list('()[]{}<>,"\\ =?x0\n') + ["<unfinished ...>"])) \
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


#: The merge's own shapes, on a pid the writer lines below share: a
#: complete call returning ``3<unfinished ...>``, a resumed tail with
#: no head, two heads in flight, a head resumed as another call, and a
#: tail interrupted with ``ERESTART*``.
def _merge_shapes(pid: int, stamp: str) -> list[list[str]]:
    head = f"{pid}  {stamp} read(3</x>, <unfinished ...>"
    return [
        [f'{pid}  {stamp} openat(AT_FDCWD, "/x", O_RDONLY) = '
         f"3<unfinished ...>"],
        [f'{pid}  {stamp} <... read resumed> "ab", 2) = 2 <0.000001>'],
        [head, head],
        [head, f'{pid}  {stamp} <... write resumed> "ab", 2) = 2 '
               f"<0.000001>"],
        [head, f"{pid}  {stamp} <... read resumed> ..., 2) = ? "
               f"ERESTARTSYS (To be restarted if SA_RESTART is set) "
               f"<0.000004>"],
    ]


_PIDS = st.sampled_from([7, 8, 9, 10, 11, 12])


@st.composite
def trace_files(draw):
    """A whole file: writer lines and merge shapes on six pids, a sixth
    of the lines mutated, a pair's tail placed up to two
    entries after its head, so pairs of one pid and of several
    interleave."""
    placed: list[tuple[float, str]] = []
    for position in range(draw(st.integers(1, 10))):
        if draw(st.integers(0, 5)):
            chunk = draw(writer_lines(pids=_PIDS))
        else:
            chunk = draw(st.sampled_from(_merge_shapes(
                draw(_PIDS), draw(st.sampled_from(
                    ["10:00:00.000001", "10:00:00.000002"])))))
        for offset, line in enumerate(chunk):
            delay = draw(st.integers(0, 2)) + 0.5 if offset else 0
            if not draw(st.integers(0, 5)):
                line = draw(mutated(line))
            placed.append((position + delay, line))
    placed.sort(key=lambda item: item[0])
    return [line for _, line in placed]


# -- the general road as reference ----------------------------------------

def general_row(line: str):
    """The general road for one line: tokenize, then scan a syscall
    body. Returns the row, None for other record kinds, or the raised
    error."""
    try:
        token = tokenize_line(line)
        if token.kind is not RecordKind.SYSCALL:
            return None
        return scan_body(token.pid, token.start_us, token.body)
    except TraceParseError as exc:
        return exc


def _file_text(texts: list[str]) -> str:
    """``texts`` as the text of a file, each ended by a newline (a
    text holding a newline is two lines, as in a file)."""
    return "".join(text + "\n" for text in texts)


def _numbered(text: str):
    """The non-blank lines of file text, numbered as in the file."""
    texts = text.split("\n")
    texts.pop()
    return [(n, line) for n, line in enumerate(texts, start=1)
            if line.strip()]


def _merge(texts: list[str], strict: bool):
    """``feed_text``: rows + stats, or the (path, lineno, message) of
    the error raised."""
    merger = IncrementalMerger(path="t.st", strict=strict)
    try:
        rows = merger.feed_text(_file_text(texts))
        rows += merger.finish()
    except TraceParseError as exc:
        return exc.path, exc.lineno, str(exc)
    return rows, merger.stats


def _reference(numbered, strict: bool, path: str = "t.st"):
    """The general road alone: every ``(lineno, line)`` of
    ``numbered`` tokenized and fed through the merger's token
    handling. Rows + stats, or the (path, lineno, message) of the
    first error raised, by the merger or by ``numbered`` itself."""
    merger = IncrementalMerger(path=path, strict=strict)
    try:
        for lineno, text in numbered:
            merger._consume(tokenize_line(text, path=path, lineno=lineno),
                            lineno)
        rows = merger._drain()
        rows += merger.finish()
    except TraceParseError as exc:
        return exc.path, exc.lineno, str(exc)
    return rows, merger.stats


def _reference_merge(texts: list[str], strict: bool):
    return _reference(_numbered(_file_text(texts)), strict)


class _Declined(Exception):
    """Raised by the tokenizer stand-in: the fast road handed a line to
    the general road."""


def fast_rows(texts: list[str], **options):
    """The rows the fast road alone gives ``texts``, interrupted calls
    kept, or None as soon as it hands a line to the tokenizer."""
    merger = IncrementalMerger(**options)
    with mock.patch.object(resume, "tokenize_line", side_effect=_Declined), \
            mock.patch.object(resume, "RESTART_ERRNOS", frozenset()):
        try:
            return merger.feed_text(_file_text(texts)) + merger.finish()
        except _Declined:
            return None


# -- properties -----------------------------------------------------------

@given(lines)
@settings(max_examples=300, deadline=None)
def test_fast_line_agrees_with_general_scan(line):
    """Each line the fast road takes gives the general scan's row (a
    stray newline makes two lines, each checked on its own)."""
    for text in line.split("\n"):
        rows = fast_rows([text], strict=False)
        if rows:
            assert rows == [general_row(text)]


@given(lines, st.data())
@settings(max_examples=200, deadline=None)
def test_fast_body_agrees_with_general_scan(line, data):
    """A body split into an unfinished head and a resumed tail: a pair
    the fast road splices gives the general scan's row of the joined
    body."""
    body = line.split(" ", 3)[-1].lstrip()
    opening = re.match(r"([a-zA-Z_][a-zA-Z0-9_]*)\(", body)
    if opening is None:
        return
    cut = data.draw(st.sampled_from(
        [opening.end()] + [m.end() for m in re.finditer(", ", body)
                           if m.start() >= opening.end()]))
    head, rest = body[:cut], body[cut:]
    texts = [f"9  10:00:00.000042 {head}<unfinished ...>",
             f"9  10:00:00.000050 <... {opening.group(1)} resumed> {rest}"]
    rows = fast_rows(texts)
    if rows is None:
        return
    resumed_text = " " + rest
    joined = head + (resumed_text.lstrip(" ") if head.endswith(" ")
                     else resumed_text)
    assert rows == [scan_body(9, 36_000_000_042, joined)]


@given(trace_files(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_merge_with_and_without_fast_path(texts, strict):
    """Whole files: ``feed_text`` gives the same rows and merge
    statistics, or the same located error, as a reference that
    tokenizes every line and feeds it through the merger's token
    handling."""
    assert _merge(texts, strict) == _reference_merge(texts, strict)


#: Lines the fast road declines, to put between the ones it takes: a
#: signal, an exit and a call with a struct argument.
_DECLINED = [
    "7  10:00:00.000003 --- SIGCHLD {si_signo=SIGCHLD, "
    "si_code=CLD_EXITED} ---",
    "8  10:00:00.000003 +++ exited with 0 +++",
    "9  10:00:00.000003 fstat(3</x>, {st_mode=S_IFREG|0644, "
    "st_size=1}) = 0 <0.000001>",
]


@st.composite
def trace_bytes(draw):
    """A whole file as bytes: the lines of :func:`trace_files` with
    declined, blank and whitespace-only lines between them, each ended
    by LF, CRLF or CR (the last one maybe not at all), and sometimes
    one undecodable byte anywhere."""
    lines = []
    for text in draw(trace_files()):
        lines += draw(st.lists(st.sampled_from(
            _DECLINED + ["", " ", "\t \x0c"]), max_size=2))
        lines.append(text)
    pieces = [line.encode() + draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
              for line in lines]
    if draw(st.booleans()):
        pieces[-1] = pieces[-1].rstrip(b"\r\n")
    data = b"".join(pieces)
    if not draw(st.integers(0, 3)):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _decoded_lines(data: bytes, path: str, strict: bool,
                   replacements: list[int]):
    """The non-blank ``(lineno, text)`` lines of a file's bytes, split
    at universal newlines and decoded one at a time (an undecodable
    line raises under ``strict``); each line's U+FFFD count is
    appended to ``replacements``."""
    raws = re.split(rb"\r\n|\r|\n", data)
    if not raws[-1]:
        raws.pop()
    for lineno, raw in enumerate(raws, start=1):
        text, replaced = decode_trace_line(raw, strict=strict, path=path,
                                           lineno=lineno)
        replacements.append(replaced)
        if text.strip():
            yield lineno, text


def _reference_read(data: bytes, path: str, strict: bool):
    """:func:`_reference` over a file's bytes, with its decode
    replacements."""
    replacements: list[int] = []
    result = _reference(_decoded_lines(data, path, strict, replacements),
                        strict, path)
    if len(result) == 2:
        result[1].decode_replacements = sum(replacements)
    return result


def _batch_read(path, strict: bool, chunk_size: int):
    """``read_trace_records`` reading ``chunk_size`` bytes at a time."""
    blocks = functools.partial(streaming._iter_raw_blocks,
                               chunk_size=chunk_size)
    with mock.patch.object(streaming, "_iter_raw_blocks", blocks), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return read_trace_records(path, strict=strict)
        except TraceParseError as exc:
            return exc.path, exc.lineno, str(exc)


def _tail_read(path, data: bytes, cuts: list[int], strict: bool):
    """A :class:`FileTail` polled after each slice of ``data`` between
    ``cuts`` is appended, then finished."""
    path.write_bytes(b"")
    tail = FileTail(path, strict=strict)
    records = []
    try:
        for low, high in zip([0, *cuts], [*cuts, len(data)]):
            with path.open("ab") as handle:
                handle.write(data[low:high])
            records += tail.poll()
        records += tail.finish()
    except TraceParseError as exc:
        return exc.path, exc.lineno, str(exc)
    return [tuple(record) for record in records], tail.merger.stats


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks") / "a_host1_1.st"


@given(trace_bytes(), st.booleans(),
       st.sampled_from([1, 2, 3, 7, 64, streaming._CHUNK_BYTES]), st.data())
@settings(max_examples=200, deadline=None)
def test_blocks_cut_anywhere_agree_with_line_reference(
        trace_path, data, strict, chunk_size, draw):
    """Whole files from bytes — LF, CRLF, CR and mixed terminators,
    blank and declined lines between fast ones, an undecodable byte —
    read in blocks of ``chunk_size`` bytes, so that lines and CRLF
    pairs straddle blocks (or all in one), and tailed in random slices:
    both give the rows, merge statistics and decode replacements, or
    the located first error, of a reference that decodes and tokenizes
    one line at a time."""
    cuts = sorted(draw.draw(st.lists(st.integers(0, len(data)),
                                     max_size=6)))
    expected = _reference_read(data, str(trace_path), strict)
    trace_path.write_bytes(data)
    assert _batch_read(trace_path, strict, chunk_size) == expected
    tailed = _tail_read(trace_path, data, cuts, strict)
    if len(expected) == 3:  # the located first error
        assert tailed == expected
        return
    # A follower seals per poll, which keeps the batch order only where
    # stamps never go back; these lines' stamps may, so the rows agree
    # as a multiset (the live suites pin the order on ordered traces).
    assert len(tailed) == 2, tailed
    assert tailed[1] == expected[1]
    assert sorted(map(repr, tailed[0])) == sorted(map(repr, expected[0]))


def test_batch_read_seals_once_whatever_the_blocks(trace_path):
    """Stamps that go back across a block boundary: the batch reader
    still returns the one start-ordered list a single block gives."""
    lines = [f"{pid}  10:00:00.{stamp:06d} close({pid}</x>) = 0 <0.000001>"
             for pid, stamp in [(1, 5), (1, 9), (2, 2), (2, 7)]]
    data = "".join(line + "\n" for line in lines).encode()
    trace_path.write_bytes(data)
    result = _batch_read(trace_path, True, 8)
    assert [row[1] % 1000 for row in result[0]] == [2, 5, 7, 9]
    assert result == _reference_read(data, str(trace_path), True)


def test_split_pair_across_a_poll_and_a_restore(tmp_path):
    """A poll boundary and a checkpoint restore between a head and its
    tail: the sidecar holds the head exactly as the general road's
    token, and the restored watcher seals the batch rows: its pack is
    batch conversion byte for byte, the first life's rows included."""
    from repro.live.engine import LiveIngest
    from repro.strace.reader import read_trace_file
    from tests.emit_oracle import (assert_merge_stats_match_batch,
                                   assert_pack_is_batch)

    texts = ["7  10:00:00.000001 read(3</x>, <unfinished ...>",
             "8  10:00:00.000002 close(4</y>) = 0 <0.000001>",
             '7  10:00:00.000009 <... read resumed> "ab", 2) = 2 '
             "<0.000008>",
             "8  10:00:00.000010 close(5</z>) = 0 <0.000001>"]
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    path = trace_dir / "a_host1_1.st"
    sidecar = tmp_path / "watch.ckpt.json"
    elog = tmp_path / "run.elog"
    path.write_text("\n".join(texts[:2]) + "\n")
    engine = LiveIngest(trace_dir, checkpoint=sidecar, emit=elog)
    engine.poll()
    engine.save_checkpoint()
    del engine
    (state,) = json.loads(sidecar.read_text())["files"]
    reference = IncrementalMerger()
    reference.feed(tokenize_line(text) for text in texts[:2])
    assert state["pending"] == [
        {"pid": token.pid, "start_us": token.start_us, "body": token.body}
        for token in reference.pending_tokens()]
    assert state["pending"] == [{"pid": 7, "start_us": 36_000_000_001,
                                 "body": "read(3</x>, <unfinished ...>"}]

    with path.open("a") as handle:
        handle.write("\n".join(texts[2:]) + "\n")
    revived = LiveIngest(trace_dir, checkpoint=sidecar, emit=elog)
    revived.poll()
    revived.finalize()
    assert_pack_is_batch(revived)
    assert_merge_stats_match_batch(revived)
    assert read_trace_file(path).merge_stats.merged_pairs == 1


# -- the fast road is the common road --------------------------------------

def test_writer_lines_take_the_fast_path():
    """Every line the simulator writes for the paper's call sets — a
    complete call and both halves of a split one — is taken by the
    fast road (a regression to the general road would keep results but
    lose the speed)."""
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
            assert fast_rows([line]) == [general_row(line)], line
            split = list(format_record_split(record))
            assert fast_rows(split) == [general_row(line)], split


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
    taken by the fast road."""
    assert fast_rows([line]) == [general_row(line)]


@pytest.mark.parametrize("line", [
    '1 10:00:00.000001 fstat(3</x>, {st_mode=S_IFREG, st_size=1}) = 0',
    '1 10:00:00.000001 readv(3</x>, [{iov_base="a", iov_len=1}], 1) = 1',
    '1 10:00:00.000001 lseek(AT_FDCWD, 3</x>, SEEK_SET) = 0 <0.000001>',
    '1 10:00:00.000001 stat("/etc/hosts", 0x1) = 0 <0.000001>',
    '1 10:00:00.000001 read(3</x>) = 3<unfinished ...>',
    '1 25:00:00.000001 read(3</x>, ..., 5) = 5 <0.000001>',
    '1 10:00:00.000001 read(3</x>, "a\nb", 5) = 5 <0.000001>',
])
def test_general_scan_shapes_are_declined(line):
    """Structs, arrays, an ``fd<path>`` at a non-zero index, a quoted
    path the catalog puts at an argument index, a return that reads as
    ``<unfinished ...>``, out-of-range stamps and a newline inside a
    string (two lines, neither a call the fast road takes) go to the
    general road."""
    assert fast_rows([line]) is None
