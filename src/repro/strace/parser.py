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

There are two roads to a row, and they agree by construction (pinned
by differential hypothesis properties):

- the **fast road**: :data:`LINE_RE`, one compiled regex, recognises
  the three line shapes ``strace -f -tt -T -y`` prints for I/O calls —
  a complete call, an unfinished head (``name(... <unfinished ...>``)
  and a resumed tail (``<... name resumed> ...) = ret <dur>``) — behind
  one shared pid/stamp header. Arguments may hold no struct/array
  literal; an optional leading ``fd</path>`` and quoted strings with
  escapes are fine. The pattern is anchored to a line start and end
  and no part of it matches a newline, so one ``finditer`` over a
  block of lines matches each line it takes whole and on its own:
  :meth:`~repro.strace.resume.IncrementalMerger.feed_text` scans a
  block that way and builds rows straight from the groups, with
  :data:`FP_MODES` and :data:`SIZE_CALLS` saying where each call's
  ``fp`` and ``size`` come from;
- the **general scan** (:func:`scan_body`): a quote- and bracket-aware
  character scan (:func:`split_args`) that handles every body strace
  can print, and the one source of the argument-list and
  return-clause errors. Every line the fast road does not take goes
  through :func:`~repro.strace.tokenizer.tokenize_line` and this scan.

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

#: Whitespace within a line: every pattern below spells spacing with
#: it, and its classes exclude ``\n``, so no match crosses a line.
_SPACE = r"[^\S\n]"

#: The ``= RET ... <dur>`` tail: value (numeric / ``?`` / hex), the
#: ``-y`` annotation on a returned fd, ``ENOENT (No such ...)``, a flag
#: description such as ``(Timeout)``, and the ``-T`` duration. One
#: source for the general scan's :data:`_RET_RE` and :data:`LINE_RE`.
_RETURN_PATTERN = (
    r"=" + _SPACE + r"+(-?\d+|\?|0x[0-9a-fA-F]+)"
    r"(?:<([^>\n]*)>)?"
    r"(?:" + _SPACE + r"+([A-Z][A-Z0-9_]+)" + _SPACE + r"+\([^)\n]*\))?"
    r"(?:" + _SPACE + r"+\([^)\n]*\))?"
    + _SPACE + r"*(?:<(\d+)\.(\d{6})>)?" + _SPACE + r"*$")
_RET_RE = re.compile("^" + _RETURN_PATTERN)

#: Argument text the general scan would split trivially: no bracket
#: outside quoted strings, up to (not including) the first ``)``
#: outside strings. Strings are C strings with backslash escapes,
#: scanned exactly as :func:`split_args` scans them. The unrolled
#: ``[^"]*(?:"..."[^"]*)*`` form keeps a declined line linear in its
#: length.
_PLAIN = r'[^"()\[\]{}<>\n]'
_STRING = r'"[^"\\\n]*(?:\\[^\n][^"\\\n]*)*"'
_ARGS = r"(" + _PLAIN + r"*(?:" + _STRING + _PLAIN + r"*)*)"
_NAME = r"([a-zA-Z_][a-zA-Z0-9_]*)"

#: The one fast pattern. After the shared header comes a call opening
#: — ``name(`` with an optional leading ``fd<path>`` argument (a
#: complete call or an unfinished head), or ``<... name resumed>`` (a
#: resumed tail) — then the plain arguments, then either the return
#: clause or ``<unfinished ...>`` ending the line. Groups: pid,
#: ``HH:MM:SS``, epoch seconds, fraction; call, fd path, resumed call,
#: arguments; the return clause's value, returned path, errno and
#: duration seconds and micros (all ``None`` for a head). A head's body
#: starts at the call group. ``MULTILINE`` anchors a match to one
#: whole line of a block, and on a single line it accepts exactly what
#: ``match`` on that line alone would.
LINE_RE = re.compile(
    "^" + PID_PATTERN + STAMP_PATTERN + _SPACE + "+"
    r"(?:" + _NAME + r"\((?:\d+<(" + _PLAIN + r"*)>(?=[,)]))?"
    r"|<\.\.\." + _SPACE + "+" + _NAME + _SPACE + r"+resumed>)"
    + _ARGS + r"(?:\)" + _SPACE + "*" + _RETURN_PATTERN
    + r"|<unfinished \.\.\.>$)",
    re.MULTILINE)
#: The first argument of a bracket-free argument list that starts with
#: a quote, when that argument is one string (possibly abbreviated
#: ``"..."...``): the path of a failed ``openat`` without ``-y``.
_FIRST_QUOTED_RE = re.compile(
    r'(?:[^",]*,)*?\s*(' + _STRING + r')(?:\.\.\.)?\s*(?:,|$)', re.DOTALL)

UNFINISHED_SUFFIX = "<unfinished ...>"

#: How the fast road finds ``fp`` per call: from the leading fd
#: annotation, from the returned fd (else the first quoted argument),
#: or not at all. Calls whose path is an argument at some other index
#: (``FP_SCAN``) are left to the general scan; calls the catalog does
#: not know read the leading fd annotation.
FP_FD, FP_RET, FP_NONE, FP_SCAN = 0, 1, 2, 3
FP_MODES: dict[str, int] = {
    name: {PathSource.FD_ARG: FP_FD if spec.path_arg_index == 0 else FP_SCAN,
           PathSource.RET_FD: FP_RET,
           PathSource.NONE: FP_NONE}.get(spec.path_source, FP_SCAN)
    for name, spec in SYSCALL_CATALOG.items()}
#: Calls whose non-negative return value is the transfer size.
SIZE_CALLS = frozenset(
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
    if errno is not None or call not in SIZE_CALLS or val == "?":
        return None
    retval = int(val, 16) if val.startswith("0x") else int(val)
    return retval if retval >= 0 else None


def _duration(seconds: str | None, micros: str | None) -> int | None:
    """µs of a ``<seconds.micros>`` duration (``micros`` has six
    digits, so the concatenation is the µs count)."""
    return None if seconds is None else int(seconds + micros)


def first_quoted_path(args: str) -> str | None:
    """The fast road's ``fp`` of an ``FP_RET`` call whose return value
    carries no path: the unquoted first quoted argument of ``args``
    (the :data:`LINE_RE` arguments group), or ``None`` when that
    argument is not one plain string — the line then needs the general
    scan."""
    quoted = _FIRST_QUOTED_RE.match(args)
    return None if quoted is None else _strip_quotes(quoted.group(1))


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


def parse_body(pid: int, start_us: int, body: str, *,
               path: str | None = None,
               lineno: int | None = None) -> ParsedRecord:
    """Parse a complete syscall body (``name(args) = ret <dur>``)."""
    return ParsedRecord._make(
        scan_body(pid, start_us, body, path=path, lineno=lineno))


def parse_line(line: str, *, path: str | None = None,
               lineno: int | None = None) -> ParsedRecord | None:
    """Parse one line; returns ``None`` for non-syscall records.

    Convenience for tests and one-off use: the tokenizer and the
    general scan. Production reading goes through
    :class:`~repro.strace.resume.IncrementalMerger`, which takes the
    fast road where it can and also merges unfinished/resumed pairs
    across lines.
    """
    token = tokenize_line(line, path=path, lineno=lineno)
    if token.kind is not RecordKind.SYSCALL:
        return None
    return parse_body(token.pid, token.start_us, token.body,
                      path=path, lineno=lineno)
