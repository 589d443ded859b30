"""Line-level tokenizer for strace output.

A physical line of strace output (with ``-f -tt -T -y``, written to a
file via ``-o`` so the pid column is always present) has the shape::

    <pid>  <HH:MM:SS.ffffff> <body>

where *body* is one of five record kinds:

==============  ====================================================
kind            example body
==============  ====================================================
SYSCALL         ``read(3</etc/passwd>, ..., 4096) = 1612 <0.000037>``
UNFINISHED      ``read(3</usr/lib/libc.so.6>, <unfinished ...>``
RESUMED         ``<... read resumed> ..., 405) = 404 <0.000223>``
SIGNAL          ``--- SIGCHLD {si_signo=SIGCHLD, ...} ---``
EXIT            ``+++ exited with 0 +++`` / ``+++ killed by SIGKILL +++``
==============  ====================================================

The tokenizer only splits and classifies; field-level parsing happens
in :mod:`repro.strace.parser`. Keeping the stages separate lets the
unfinished/resumed merger (:mod:`repro.strace.resume`) operate on
classified-but-unparsed bodies, mirroring how the paper describes the
merge as a pre-processing step on records (Sec. III). A line the
parser's fast road takes — a complete I/O call, an unfinished head or
a resumed tail — never reaches the tokenizer; the header pattern
pieces defined here are shared with that road, so both read a header
the same way.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro._util.errors import TraceParseError
from repro._util.timefmt import parse_wallclock


class RecordKind(enum.Enum):
    """Classification of a tokenized strace line."""

    SYSCALL = "syscall"
    UNFINISHED = "unfinished"
    RESUMED = "resumed"
    SIGNAL = "signal"
    EXIT = "exit"


@dataclass(frozen=True, slots=True)
class Token:
    """A classified strace line, still textual below the header level.

    Attributes
    ----------
    pid:
        Process id from the leading column.
    start_us:
        Wall-clock timestamp in microseconds since midnight (``-tt``).
    kind:
        The :class:`RecordKind`.
    body:
        Everything after the timestamp, with the classification markers
        intact (the parser strips them).
    """

    pid: int
    start_us: int
    kind: RecordKind
    body: str


#: The optional pid column (strace without ``-f``/``-o`` on a single
#: process omits it). Its spacing is any whitespace but a newline, so
#: the fast line pattern that shares it never reads across a line.
PID_PATTERN = r"(?:(\d+)[^\S\n]+)?"
#: ``-tt`` wall clock (HH:MM:SS.ffffff) or ``-ttt`` epoch seconds
#: (1700000000.123456), with the ``HH:MM:SS``, epoch and fraction
#: fields as groups. Shared with the fast line pattern of
#: :mod:`repro.strace.parser`, so both read a header the same way.
STAMP_PATTERN = r"(?:(\d{2}:\d{2}:\d{2})|(\d{9,12}))\.(\d{6})"
_HEADER_RE = re.compile(
    "^" + PID_PATTERN + "(?P<ts>" + STAMP_PATTERN + r")\s+(?P<body>.*)$")
_RESUMED_RE = re.compile(r"^<\.\.\.\s+(\S+)\s+resumed>")
_SYSCALL_START_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*\(")


def _parse_timestamp(text: str) -> int:
    """µs from either stamp format. Epoch stamps (``-ttt``) stay as
    µs-since-epoch — all downstream arithmetic is on differences, so
    the two origins coexist (but must not be mixed within one log)."""
    if ":" in text:
        return parse_wallclock(text)
    seconds, _, micros = text.partition(".")
    return int(seconds) * 1_000_000 + int(micros)


def tokenize_line(
    line: str,
    *,
    path: str | None = None,
    lineno: int | None = None,
) -> Token:
    """Split one strace line into a classified :class:`Token`.

    A pid-less line (strace of a single process without ``-f``) gets
    pid 0; the paper warns that such traces can violate event
    uniqueness (Sec. IV) — use
    :func:`repro.core.event.check_event_uniqueness` on them.

    Raises
    ------
    TraceParseError
        If the line has no timestamp header or an unrecognizable body.
        Blank lines must be filtered by the caller (the reader does) —
        they are an error here so bugs surface early.
    """
    match = _HEADER_RE.match(line.rstrip("\n"))
    if match is None:
        raise TraceParseError(
            f"missing pid/timestamp header: {line[:80]!r}",
            path=path, lineno=lineno, line=line)
    pid_text = match.group(1)
    pid = int(pid_text) if pid_text is not None else 0
    try:
        start_us = _parse_timestamp(match.group("ts"))
    except ValueError as exc:  # width enforced by regex; range may not be
        raise TraceParseError(
            str(exc), path=path, lineno=lineno, line=line) from exc
    body = match.group("body")

    if body.startswith("+++"):
        kind = RecordKind.EXIT
    elif body.startswith("---"):
        kind = RecordKind.SIGNAL
    elif _RESUMED_RE.match(body):
        kind = RecordKind.RESUMED
    elif body.endswith("<unfinished ...>"):
        kind = RecordKind.UNFINISHED
    elif _SYSCALL_START_RE.match(body):
        kind = RecordKind.SYSCALL
    else:
        raise TraceParseError(
            f"unrecognized record body: {body[:80]!r}",
            path=path, lineno=lineno, line=line)
    return Token(pid=pid, start_us=start_us, kind=kind, body=body)


def resumed_call_name(body: str, *, path: str | None = None,
                      lineno: int | None = None) -> str:
    """Extract the syscall name from a RESUMED body.

    >>> resumed_call_name("<... read resumed> ..., 405) = 404 <0.000223>")
    'read'
    """
    match = _RESUMED_RE.match(body)
    if match is None:
        raise TraceParseError(f"not a resumed record: {body[:80]!r}",
                              path=path, lineno=lineno)
    return match.group(1)


def unfinished_call_name(body: str, *, path: str | None = None,
                         lineno: int | None = None) -> str:
    """Extract the syscall name from an UNFINISHED body.

    The tokenizer classifies a body as UNFINISHED by its suffix alone,
    so a body that does not start with a syscall name raises here,
    naming ``path`` and ``lineno``.

    >>> unfinished_call_name("read(3</x>, <unfinished ...>")
    'read'
    """
    match = _SYSCALL_START_RE.match(body)
    if match is None:
        raise TraceParseError(f"not an unfinished record: {body[:80]!r}",
                              path=path, lineno=lineno)
    return match.group(0)[:-1]  # drop the '('
