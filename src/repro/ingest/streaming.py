"""Streaming trace reading: trace file → blocks of lines, O(1) memory.

The original reader materialized every line of a trace file into a
``list[Token]`` before the unfinished/resumed merge — for multi-GB
traces that list dominates peak memory even though the merge itself
only ever needs the per-pid in-flight slot (Sec. III). This module
replaces the list with a generator pipeline::

    open(file) → 64 KB blocks of complete lines → decode
               → IncrementalMerger.feed_text

:class:`TraceBlocks` is the file-side half: it opens the trace lazily,
cuts it into blocks of complete universal-newline lines, makes every
terminator ``\\n`` and decodes each block in one call, yielding it with
the number of its first line. The merger
(:class:`~repro.strace.resume.IncrementalMerger`) scans each block with
one regex pass as it arrives, so the two halves compose without an
intermediate list. :class:`TokenStream` is the line view of the same
reader, each line classified with
:func:`~repro.strace.tokenizer.tokenize_line`, for token consumers
such as :func:`~repro.strace.resume.merge_unfinished`. The live
follower (:mod:`repro.live.tail`) cuts and decodes its appended bytes
with the same helpers.

Decoding is done from bytes so that undecodable input is *diagnosed*
instead of silently smoothed over: the old text-mode
``errors="replace"`` swallowed bad bytes with no trace. A block that
is not valid UTF-8 is decoded line by line; every replacement
character that has to be introduced is counted (exposed as
:attr:`TraceBlocks.decode_replacements`, surfaced as
``MergeStats.decode_replacements`` by the reader) and, under
``strict=True``, the first undecodable line raises
:class:`~repro._util.errors.TraceParseError` instead.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator

from repro._util.errors import TraceParseError
from repro.strace.tokenizer import Token, tokenize_line

#: The replacement character produced by ``errors="replace"`` decoding.
REPLACEMENT_CHAR = "�"

#: Read granularity of the chunked line splitter.
_CHUNK_BYTES = 1 << 16


def decode_trace_line(raw: bytes, *, strict: bool,
                      path: str | None = None,
                      lineno: int | None = None) -> tuple[str, int]:
    """Decode one raw trace line, diagnosing undecodable bytes.

    Returns ``(text, replacements)`` where ``replacements`` counts the
    U+FFFD characters *introduced* by lenient decoding (a line may
    legitimately contain U+FFFD already). Under ``strict=True`` an
    undecodable line raises :class:`TraceParseError` instead. The line
    road of :func:`decode_block`, which the batch :class:`TraceBlocks`
    and the live file follower (:mod:`repro.live`) share, so both
    diagnose corruption identically.
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
    """Split ``data`` into its complete lines, every terminator made
    ``\\n``, and the unterminated rest.

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
    block = data[:cut]
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return block, data[cut:] + hold


def _last_block(rest: bytes) -> bytes:
    """The unterminated rest at end of input as a block holding its one
    line (a trailing ``\\r`` is that line's terminator); empty when
    there is no such line."""
    if rest.endswith(b"\r"):
        rest = rest[:-1]
    return rest + b"\n" if rest else b""


def _iter_raw_blocks(handle, chunk_size: int = _CHUNK_BYTES):
    """Yield a binary stream as blocks of complete lines, each ended by
    ``\\n`` (see :func:`_cut_lines`).

    The last block ends with a terminator too (:func:`_last_block`), so
    EOF ends a line exactly as a newline would. At most ``chunk_size``
    plus one logical line is held in memory. Plain ``for line in
    handle`` splits on ``\\n`` only, which would read a whole
    CR-terminated file as one "line".
    """
    carry = b""
    while chunk := handle.read(chunk_size):
        block, carry = _cut_lines(carry + chunk)
        if block:
            yield block
    if last := _last_block(carry):
        yield last


def decode_block(block: bytes, *, strict: bool, path: str | None = None,
                 lineno: int = 1,
                 ) -> tuple[str, int, TraceParseError | None]:
    """Decode a block of complete ``\\n``-terminated lines, the first of
    them line ``lineno``: ``(text, replacements, error)``.

    A valid UTF-8 block is decoded in one call. One that is not is
    decoded line by line with :func:`decode_trace_line`, so
    ``replacements`` counts the U+FFFD characters lenient decoding
    introduces. Under ``strict=True`` ``text`` ends before the first
    undecodable line and ``error`` is that line's: the caller feeds
    ``text`` first, so a parse error on an earlier line still fires
    first, as it does when lines are consumed one by one.
    """
    try:
        return block.decode("utf-8"), 0, None
    except UnicodeDecodeError:
        pass
    raws = block.split(b"\n")
    raws.pop()  # the empty piece after the final terminator
    texts: list[str] = []
    replacements = 0
    error = None
    for number, raw in enumerate(raws, lineno):
        try:
            text, replaced = decode_trace_line(
                raw, strict=strict, path=path, lineno=number)
        except TraceParseError as exc:
            error = exc
            break
        texts.append(text + "\n")
        replacements += replaced
    return "".join(texts), replacements, error


class TraceBlocks:
    """A restartable iterable of the decoded text of one trace file, a
    block of lines at a time.

    Yields ``(lineno, text)``: ``text`` holds complete lines, each
    ended by ``\\n`` whatever the file's universal-newline terminators
    (an unterminated last line is ended too), and ``lineno`` is the
    1-based number of its first line among the file's logical lines,
    blank ones included — the input of
    :meth:`~repro.strace.resume.IncrementalMerger.feed_text`. Each
    iteration re-opens the file and streams it front to back in
    64 KB reads; nothing beyond the current block is held in memory.
    A block that is not valid UTF-8 is decoded line by line
    (:func:`decode_block`); under ``strict`` the lines before its
    first bad line are yielded as one block before that line's error
    is raised, so an error names the first bad line, whether it fails
    to decode or to parse. :attr:`decode_replacements` reflects the
    most recent (possibly in-progress) iteration.

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
        lineno = 1
        with open(self.path, "rb") as handle:
            for block in _iter_raw_blocks(handle):
                text, replaced, error = decode_block(
                    block, strict=self.strict, path=path_str,
                    lineno=lineno)
                self.decode_replacements += replaced
                if text:
                    yield lineno, text
                if error is not None:
                    raise error
                lineno += block.count(b"\n")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceBlocks({str(self.path)!r})"


class TokenStream:
    """A restartable iterable of the tokens of one trace file: the line
    view of a :class:`TraceBlocks` (:attr:`blocks`), every non-blank
    line classified by :func:`~repro.strace.tokenizer.tokenize_line`.

    Parameters
    ----------
    path, strict:
        As for :class:`TraceBlocks`.
    """

    __slots__ = ("blocks",)

    def __init__(self, path: str | os.PathLike[str], *,
                 strict: bool = True) -> None:
        self.blocks = TraceBlocks(path, strict=strict)

    def __iter__(self) -> Iterator[Token]:
        path_str = str(self.blocks.path)
        for lineno, text in self.blocks:
            lines = text.split("\n")
            lines.pop()  # the empty piece after the final terminator
            for number, line in enumerate(lines, lineno):
                if line and not line.isspace():
                    yield tokenize_line(line, path=path_str, lineno=number)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TokenStream({str(self.blocks.path)!r})"
