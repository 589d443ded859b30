"""Field-level parsing of strace syscall records.

Turns a complete syscall line or body into the event attributes of
Sec. III — nothing more:

- **pid** and **start_us** — from the line header (see
  :mod:`repro.strace.tokenizer`);
- **call** — the syscall name;
- **fp** — the accessed file path, recovered from the ``-y`` descriptor
  annotation (``3</etc/passwd>``) on the appropriate argument, or from
  the annotated *return value* for ``open``/``openat`` (strace annotates
  the descriptor it returns), or from a quoted path argument as a
  fallback when ``-y`` was not used;
- **size** — the transfer size, i.e. the return value, "parsed only for
  the variants of read and write system calls" (Sec. III item 6);
- **dur_us** — the ``-T`` duration;
- **errno** — the error name of a failed call, which the merger needs
  to drop ``ERESTART*``-interrupted calls.

These seven fields, in this order, are a *row*: the unit the merger
(:mod:`repro.strace.resume`) seals and the column builders consume.
:class:`ParsedRecord` is the same tuple with field names.

There are two ways to a row, and they agree by construction (pinned by
a differential hypothesis property):

- the **fast path** (:func:`match_line`, :func:`match_body`): one
  compiled, anchored regex per line recognises the shape
  ``strace -f -tt -T -y`` emits for I/O calls — arguments without
  struct/array literals, an optional leading ``fd</path>``, quoted
  strings with escapes — and yields the fields directly. It returns
  ``None`` (declines) for anything it does not fully understand;
- the **general scan** (:func:`scan_body`): a quote- and bracket-aware
  character scan (:func:`split_args`) that handles every body strace
  can print, and the one source of the argument-list and
  return-clause errors.

The regexes are compiled when this module is imported, so a parent
process compiles them once before it forks its ingest workers.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro._util.errors import TraceParseError
from repro.strace.syscalls import SYSCALL_CATALOG, PathSource, spec_for
from repro.strace.tokenizer import (
    PID_PATTERN,
    STAMP_PATTERN,
    RecordKind,
    tokenize_line,
)

_OPENERS = {"(": ")", "[": "]", "{": "}", "<": ">"}
_CLOSERS = {v: k for k, v in _OPENERS.items()}

_FD_ANNOT_RE = re.compile(r"^(\d+)<(.*)>$", re.DOTALL)
_CALL_RE = re.compile(r"^([a-zA-Z_][a-zA-Z0-9_]*)\(")

#: The ``= RET ... <dur>`` tail: value (numeric / ``?`` / hex), the
#: ``-y`` annotation on a returned fd, ``ENOENT (No such ...)``, a flag
#: description such as ``(Timeout)``, and the ``-T`` duration. One
#: source for the general scan's :data:`_RET_RE` and the fast regexes.
_RETURN_PATTERN = (
    r"=\s+(-?\d+|\?|0x[0-9a-fA-F]+)"
    r"(?:<([^>]*)>)?"
    r"(?:\s+([A-Z][A-Z0-9_]+)\s+\([^)]*\))?"
    r"(?:\s+\([^)]*\))?"
    r"\s*(?:<(\d+)\.(\d{6})>)?\s*$")
_RET_RE = re.compile("^" + _RETURN_PATTERN)

#: A complete call whose argument list the general scan would split
#: trivially: no bracket outside quoted strings except an optional
#: leading ``fd<path>`` argument (captured), then the first ``)``
#: outside strings closes the list. Strings are C strings with
#: backslash escapes, scanned exactly as :func:`split_args` scans them.
#: The unrolled ``[^"]*(?:"..."[^"]*)*`` form keeps a declined line
#: linear in its length.
_PLAIN = r'[^"()\[\]{}<>]'
_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_CALL_PATTERN = (
    r"([a-zA-Z_][a-zA-Z0-9_]*)\("
    r"(?:\d+<(" + _PLAIN + r"*)>(?=[,)]))?"
    r"(" + _PLAIN + r"*(?:" + _STRING + _PLAIN + r"*)*)\)\s*")

#: Fast path for whole lines: header + call + return, one match.
_LINE_RE = re.compile(
    PID_PATTERN + STAMP_PATTERN + r"\s+" + _CALL_PATTERN + _RETURN_PATTERN,
    re.DOTALL)
#: Fast path for bodies (the spliced halves of a resumed call).
_BODY_RE = re.compile(_CALL_PATTERN + _RETURN_PATTERN, re.DOTALL)
#: The first argument of a bracket-free argument list that starts with
#: a quote, when that argument is one string (possibly abbreviated
#: ``"..."...``): the path of a failed ``openat`` without ``-y``.
_FIRST_QUOTED_RE = re.compile(
    r'(?:[^",]*,)*?\s*(' + _STRING + r')(?:\.\.\.)?\s*(?:,|$)', re.DOTALL)

_UNFINISHED_SUFFIX = "<unfinished ...>"

# How the fast path finds ``fp`` per call: from the leading fd
# annotation, from the returned fd, or not at all. Calls whose path is
# a quoted argument at some index are left to the general scan.
_FP_FD, _FP_RET, _FP_NONE = 0, 1, 2
_FP_MODES: dict[str, int | None] = {
    name: {PathSource.FD_ARG: _FP_FD if spec.path_arg_index == 0 else None,
           PathSource.RET_FD: _FP_RET,
           PathSource.NONE: _FP_NONE}.get(spec.path_source)
    for name, spec in SYSCALL_CATALOG.items()}
_SIZE_CALLS = frozenset(
    name for name, spec in SYSCALL_CATALOG.items() if spec.returns_size)


class ParsedRecord(NamedTuple):
    """One parsed syscall record (possibly a merged resumed pair).

    A named row: the merger seals plain tuples in this field order and
    wraps them in this class only where names are wanted. ``fp`` is
    ``None`` when the call carries no path (or ``-y`` was off and no
    quoted path argument exists); ``size`` is ``None`` for calls that
    are not read/write variants or that failed; ``dur_us`` is ``None``
    without ``-T``.
    """

    pid: int
    start_us: int
    call: str
    fp: str | None
    size: int | None
    dur_us: int | None
    errno: str | None

    @property
    def ok(self) -> bool:
        """True iff the call did not return an error."""
        return self.errno is None


def split_args(text: str, *, path: str | None = None,
               lineno: int | None = None) -> tuple[list[str], int]:
    """Split ``text`` (starting right after the opening ``(``) into
    top-level arguments.

    Returns ``(args, end_index)`` where ``end_index`` points at the
    closing ``)`` in ``text``. Quote-aware (double quotes, backslash
    escapes) and bracket-aware (``()[]{}<>``).
    """
    args: list[str] = []
    depth = 0
    in_string = False
    escaped = False
    current_start = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            i += 1
            continue
        if ch == '"':
            in_string = True
            i += 1
            continue
        if ch in _OPENERS:
            depth += 1
            i += 1
            continue
        if ch in _CLOSERS:
            if ch == ")" and depth == 0:
                arg = text[current_start:i].strip()
                if arg:
                    args.append(arg)
                return args, i
            depth -= 1
            if depth < 0:
                raise TraceParseError(
                    f"unbalanced {ch!r} in argument list: {text[:80]!r}",
                    path=path, lineno=lineno)
            i += 1
            continue
        if ch == "," and depth == 0:
            args.append(text[current_start:i].strip())
            current_start = i + 1
        i += 1
    raise TraceParseError(
        f"unterminated argument list: {text[:80]!r}",
        path=path, lineno=lineno)


def _strip_quotes(arg: str) -> str | None:
    """Unquote a C-string argument; None if it is not a quoted string.

    Handles strace's abbreviation suffix (``"abc"...``). Escapes are
    resolved for the common cases (\\n, \\t, \\", \\\\ and octal).
    """
    if not arg.startswith('"'):
        return None
    end = arg.rfind('"')
    if end == 0:
        return None
    inner = arg[1:end]
    return (
        inner.replace("\\\\", "\x00")
        .replace('\\"', '"')
        .replace("\\n", "\n")
        .replace("\\t", "\t")
        .replace("\x00", "\\")
    )


def _extract_fp(call: str, args: list[str],
                ret_path: str | None) -> str | None:
    """Recover the ``fp`` attribute per the syscall's :class:`PathSource`."""
    spec = spec_for(call)
    source = spec.path_source
    if source is PathSource.NONE:
        return None
    if source is PathSource.RET_FD:
        if ret_path:
            return ret_path
        # Fallback without -y: first quoted argument is the path
        # (openat's arg 0 is AT_FDCWD / a dirfd).
        for arg in args:
            quoted = _strip_quotes(arg)
            if quoted is not None:
                return quoted
        return None
    if source is PathSource.PATH_ARG:
        if spec.path_arg_index < len(args):
            return _strip_quotes(args[spec.path_arg_index])
        return None
    # FD_ARG
    if spec.path_arg_index < len(args):
        match = _FD_ANNOT_RE.match(args[spec.path_arg_index])
        if match:
            return match.group(2)
    return None


def _size(call: str, val: str, errno: str | None) -> int | None:
    """The transfer size: the return value of a successful read/write
    variant (``?`` and negative returns carry none)."""
    if errno is not None or call not in _SIZE_CALLS or val == "?":
        return None
    retval = int(val, 16) if val.startswith("0x") else int(val)
    return retval if retval >= 0 else None


def _duration(seconds: str | None, micros: str | None) -> int | None:
    """µs of a ``<seconds.micros>`` duration (``micros`` has six
    digits, so the concatenation is the µs count)."""
    return None if seconds is None else int(seconds + micros)


def _fast_row(pid: int, start_us: int, call: str, fd_path: str | None,
              args: str, val: str, ret_path: str | None,
              errno: str | None, dur_s: str | None,
              dur_frac: str | None) -> tuple | None:
    """The row of a fast match, or None when ``fp`` needs the general
    scan (a quoted path at some argument index, or a path argument of
    ``openat`` that is not one plain string)."""
    mode = _FP_MODES.get(call, _FP_FD)
    if mode == _FP_FD:
        fp = fd_path
    elif mode == _FP_RET:
        if ret_path:
            fp = ret_path
        else:
            quoted = _FIRST_QUOTED_RE.match(args)
            if quoted is None:
                return None
            fp = _strip_quotes(quoted.group(1))
    elif mode == _FP_NONE:
        fp = None
    else:
        return None
    return (pid, start_us, call, fp, _size(call, val, errno),
            _duration(dur_s, dur_frac), errno)


def match_line(line: str, default_pid: int = 0) -> tuple | None:
    """The fast path for one whole line: its row, or ``None``.

    ``None`` means *declined*, not *invalid*: the caller falls back to
    :func:`~repro.strace.tokenizer.tokenize_line` and the general scan,
    which either parse the line the same way or raise the located
    error. A line is taken only if tokenizing would classify it as a
    complete syscall, so unfinished/resumed/signal/exit lines, and
    stamps out of range, are declined too.
    """
    if "\n" in line:  # the tokenizer's header never spans a newline
        line = line.rstrip("\n")
        if "\n" in line:
            return None
    m = _LINE_RE.match(line)
    if m is None:
        return None
    (pid, hours, minutes, seconds, epoch, fraction, call, fd_path, args,
     val, ret_path, errno, dur_s, dur_frac) = m.groups()
    if hours is not None:
        hours, minutes, seconds = int(hours), int(minutes), int(seconds)
        if hours > 23 or minutes > 59 or seconds > 60:
            return None
        start_us = ((hours * 60 + minutes) * 60 + seconds) * 1_000_000 \
            + int(fraction)
    else:
        start_us = int(epoch + fraction)
    if dur_s is None and line.endswith(_UNFINISHED_SUFFIX):
        return None  # ``= 3<unfinished ...>``: the tokenizer's UNFINISHED
    return _fast_row(default_pid if pid is None else int(pid), start_us,
                     call, fd_path, args, val, ret_path, errno, dur_s,
                     dur_frac)


def match_body(pid: int, start_us: int, body: str) -> tuple | None:
    """The fast path for a syscall body (``name(args) = ret <dur>``):
    its row, or ``None`` to decline (see :func:`match_line`)."""
    m = _BODY_RE.match(body)
    return None if m is None else _fast_row(pid, start_us, *m.groups())


def scan_body(pid: int, start_us: int, body: str, *,
              path: str | None = None,
              lineno: int | None = None) -> tuple:
    """The general scan of a complete syscall body: its row.

    Handles everything strace prints — struct/array arguments, paths at
    any argument index — and raises the located
    :class:`~repro._util.errors.TraceParseError` for bodies that are
    not a syscall, argument lists that are unbalanced or unterminated,
    and return clauses it cannot read.
    """
    match = _CALL_RE.match(body)
    if match is None:
        raise TraceParseError(
            f"not a syscall body: {body[:80]!r}", path=path, lineno=lineno)
    call = match.group(1)
    rest = body[match.end():]
    args, close_idx = split_args(rest, path=path, lineno=lineno)
    tail = rest[close_idx + 1:].strip()
    ret = _RET_RE.match(tail)
    if ret is None:
        raise TraceParseError(
            f"unparseable return clause: {tail[:80]!r}",
            path=path, lineno=lineno, line=body)
    val, ret_path, errno, dur_s, dur_frac = ret.groups()
    return (pid, start_us, call, _extract_fp(call, args, ret_path),
            _size(call, val, errno), _duration(dur_s, dur_frac), errno)


def parse_row(pid: int, start_us: int, body: str, *,
              path: str | None = None,
              lineno: int | None = None) -> tuple:
    """A complete syscall body's row: fast path, else general scan."""
    row = match_body(pid, start_us, body)
    if row is None:
        row = scan_body(pid, start_us, body, path=path, lineno=lineno)
    return row


def parse_body(pid: int, start_us: int, body: str, *,
               path: str | None = None,
               lineno: int | None = None) -> ParsedRecord:
    """Parse a complete syscall body (``name(args) = ret <dur>``)."""
    return ParsedRecord._make(
        parse_row(pid, start_us, body, path=path, lineno=lineno))


def parse_line(line: str, *, path: str | None = None,
               lineno: int | None = None) -> ParsedRecord | None:
    """Parse one line; returns ``None`` for non-syscall records.

    Convenience for tests and one-off use. Production reading goes
    through :class:`~repro.strace.resume.IncrementalMerger`, which
    takes the same two paths per line and also merges
    unfinished/resumed pairs across lines.
    """
    row = match_line(line)
    if row is not None:
        return ParsedRecord._make(row)
    token = tokenize_line(line, path=path, lineno=lineno)
    if token.kind is not RecordKind.SYSCALL:
        return None
    return parse_body(token.pid, token.start_us, token.body,
                      path=path, lineno=lineno)
