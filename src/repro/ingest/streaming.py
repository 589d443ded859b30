"""Streaming line reading: trace file → line generator, O(1) memory.

The original reader materialized every line of a trace file into a
``list[Token]`` before the unfinished/resumed merge — for multi-GB
traces that list dominates peak memory even though the merge itself
only ever needs the per-pid in-flight slot (Sec. III). This module
replaces the list with a generator pipeline::

    open(file) → split + decode line → IncrementalMerger.feed_lines

:class:`TraceLines` is the file-side half: it opens the trace lazily,
splits it into universal-newline lines, decodes them a block at a time
and yields each non-blank line with its line number. The merger
(:class:`~repro.strace.resume.IncrementalMerger`) parses each line as
it arrives, so the two halves compose without an intermediate list.
:class:`TokenStream` is the same stream classified line by line with
:func:`~repro.strace.tokenizer.tokenize_line`, for token consumers
such as :func:`~repro.strace.resume.merge_unfinished`.

Decoding is done from bytes so that undecodable input is *diagnosed*
instead of silently smoothed over: the old text-mode
``errors="replace"`` swallowed bad bytes with no trace. A
:class:`TraceLines` counts every replacement character it has to
introduce (exposed as :attr:`TraceLines.decode_replacements`, surfaced
as ``MergeStats.decode_replacements`` by the reader) and, under
``strict=True``, raises :class:`~repro._util.errors.TraceParseError` at
the offending line instead of continuing.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Iterator

from repro._util.errors import TraceParseError
from repro.strace.tokenizer import Token, tokenize_line

#: The replacement character produced by ``errors="replace"`` decoding.
REPLACEMENT_CHAR = "�"

#: The universal-newline terminators of the pre-streaming text reader,
#: as bytes: splitting before decoding is safe for UTF-8 because the
#: 0x0A/0x0D bytes never occur inside a multi-byte sequence.
_NEWLINE_BYTES_RE = re.compile(b"\r\n|\r|\n")
#: The same terminators in decoded text.
_NEWLINE_RE = re.compile("\r\n|\r|\n")

#: Read granularity of the chunked line splitter.
_CHUNK_BYTES = 1 << 16


def decode_trace_line(raw: bytes, *, strict: bool,
                      path: str | None = None,
                      lineno: int | None = None) -> tuple[str, int]:
    """Decode one raw trace line, diagnosing undecodable bytes.

    Returns ``(text, replacements)`` where ``replacements`` counts the
    U+FFFD characters *introduced* by lenient decoding (a line may
    legitimately contain U+FFFD already). Under ``strict=True`` an
    undecodable line raises :class:`TraceParseError` instead. Shared by
    the batch :class:`TraceLines` and the live file follower
    (:mod:`repro.live`), so both diagnose corruption identically.
    """
    try:
        return raw.decode("utf-8"), 0
    except UnicodeDecodeError:
        text = raw.decode("utf-8", errors="replace")
        replaced = max(
            text.count(REPLACEMENT_CHAR)
            - raw.count("\N{REPLACEMENT CHARACTER}".encode()),
            1)
        if strict:
            raise TraceParseError(
                f"{replaced} undecodable byte(s); the trace is "
                f"corrupt or not UTF-8 — pass strict=False "
                f"(CLI: --lenient) to continue with U+FFFD "
                f"replacements",
                path=path, lineno=lineno, line=text) from None
        return text, replaced


def _cut_lines(data: bytes) -> tuple[bytes, bytes]:
    """Split ``data`` into its complete lines and the unterminated rest.

    The terminators are the universal-newline ones, ``\\r\\n``,
    ``\\r`` and ``\\n`` — matching the pre-streaming text-mode reader.
    A trailing ``\\r`` stays in the rest: it may pair with a ``\\n``
    that starts the next piece of input. Shared by the batch reader
    and the live follower, so both cut lines identically.
    """
    hold = b""
    if data.endswith(b"\r"):
        data, hold = data[:-1], b"\r"
    cut = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
    return data[:cut], data[cut:] + hold


def _last_block(rest: bytes) -> bytes:
    """The unterminated rest at end of input as a block holding its one
    line (a trailing ``\\r`` is that line's terminator); empty when
    there is no such line."""
    if rest.endswith(b"\r"):
        rest = rest[:-1]
    return rest + b"\n" if rest else b""


def _split_block(block: bytes) -> list[bytes]:
    """The lines of a block of complete lines, terminators dropped."""
    pieces = _NEWLINE_BYTES_RE.split(block)
    pieces.pop()  # the empty piece after the final terminator
    return pieces


def _iter_raw_blocks(handle, chunk_size: int = _CHUNK_BYTES):
    """Yield a binary stream as blocks of complete lines.

    Every block ends with a line terminator, the last one included
    (:func:`_last_block`), so EOF ends a line exactly as a newline
    would. At most ``chunk_size`` plus one logical line is held in
    memory. Plain ``for line in handle`` splits on ``\\n`` only, which
    would read a whole CR-terminated file as one "line".
    """
    carry = b""
    while chunk := handle.read(chunk_size):
        block, carry = _cut_lines(carry + chunk)
        if block:
            yield block
    if last := _last_block(carry):
        yield last


def _iter_raw_lines(handle, chunk_size: int = _CHUNK_BYTES):
    """Yield the logical lines (terminators stripped) of a binary
    stream, block by block (see :func:`_iter_raw_blocks`)."""
    for block in _iter_raw_blocks(handle, chunk_size):
        yield from _split_block(block)


class TraceLines:
    """A restartable iterable of the lines of one trace file.

    Yields ``(lineno, text)`` for every non-blank line: ``text`` is the
    decoded line without its terminator, ``lineno`` its 1-based number
    among the file's logical (universal-newline) lines, blank ones
    included — the input shape of
    :meth:`~repro.strace.resume.IncrementalMerger.feed_lines`. Each
    iteration re-opens the file and streams it front to back; nothing
    beyond the current block of lines is held in memory. A block that
    is valid UTF-8 is decoded in one call; one that is not is decoded
    line by line as its lines are consumed, so an error names the
    first bad line, whether it fails to decode or to parse.
    :attr:`decode_replacements` reflects the most recent (possibly
    in-progress) iteration.

    Parameters
    ----------
    path:
        The trace file to stream.
    strict:
        If True, lines containing bytes that are not valid UTF-8 raise
        :class:`TraceParseError`; if False they are decoded with
        U+FFFD replacements, which are counted.
    """

    __slots__ = ("path", "strict", "decode_replacements")

    def __init__(self, path: str | os.PathLike[str], *,
                 strict: bool = True) -> None:
        self.path = Path(path)
        self.strict = strict
        self.decode_replacements = 0

    def __iter__(self) -> Iterator[tuple[int, str]]:
        self.decode_replacements = 0
        path_str = str(self.path)
        lineno = 0
        with open(self.path, "rb") as handle:
            for block in _iter_raw_blocks(handle):
                try:
                    texts = _NEWLINE_RE.split(block.decode("utf-8"))
                except UnicodeDecodeError:
                    for raw in _split_block(block):
                        lineno += 1
                        text, replaced = decode_trace_line(
                            raw, strict=self.strict, path=path_str,
                            lineno=lineno)
                        self.decode_replacements += replaced
                        if text and not text.isspace():
                            yield lineno, text
                    continue
                texts.pop()  # the empty piece after the final terminator
                for text in texts:
                    lineno += 1
                    if text and not text.isspace():
                        yield lineno, text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceLines({str(self.path)!r})"


class TokenStream:
    """A restartable iterable of the tokens of one trace file: the
    lines of a :class:`TraceLines` (:attr:`lines`), each classified by
    :func:`~repro.strace.tokenizer.tokenize_line`.

    Parameters
    ----------
    path, strict:
        As for :class:`TraceLines`.
    default_pid:
        Forwarded to :func:`tokenize_line` for pid-less traces.
    """

    __slots__ = ("lines", "default_pid")

    def __init__(self, path: str | os.PathLike[str], *,
                 strict: bool = True, default_pid: int = 0) -> None:
        self.lines = TraceLines(path, strict=strict)
        self.default_pid = default_pid

    def __iter__(self) -> Iterator[Token]:
        path_str = str(self.lines.path)
        for lineno, text in self.lines:
            yield tokenize_line(text, path=path_str, lineno=lineno,
                                default_pid=self.default_pid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TokenStream({str(self.lines.path)!r})"
