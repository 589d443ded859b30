"""Following one growing trace file across polls.

A :class:`FileTail` is the live counterpart of
:class:`~repro.ingest.streaming.TokenStream`: instead of streaming a
finished file front to back, it resumes from a persisted byte offset on
every poll, consumes the newly appended bytes, and carries two pieces
of parse state forward so incremental parsing is indistinguishable from
batch parsing of the final file:

- the **line carry** — the bytes of a trailing line not yet terminated
  by a newline (strace appends whole lines, but a poll can race the
  write; a held-back trailing ``\\r`` may also pair with a ``\\n`` that
  arrives next poll);
- the **merge state** — the per-pid unfinished/resumed slot and the
  seal buffer of :class:`~repro.strace.resume.IncrementalMerger`, so a
  syscall whose two halves land in different polls merges exactly as
  Sec. III prescribes.

The appended bytes are cut into blocks of complete lines and decoded
exactly as the batch reader does
(:func:`~repro.ingest.streaming.decode_block`): undecodable bytes
raise under ``strict=True`` and are counted as U+FFFD replacements
otherwise. Each block goes to the merger in one
:meth:`~repro.strace.resume.IncrementalMerger.feed_text` call. Line
numbers are cumulative across polls, so parse errors point at the same
line batch parsing would name.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro._util.errors import TraceParseError
from repro.ingest.streaming import (
    _CHUNK_BYTES,
    _cut_lines,
    _last_block,
    decode_block,
)
from repro.strace.naming import TraceFileName
from repro.strace.resume import IncrementalMerger
from repro.telemetry.spans import NULL_TELEMETRY


class FileTail:
    """Incremental reader of one ``.st`` trace file.

    Attributes
    ----------
    path, name:
        The file and its (cid, host, rid) case identity.
    relpath:
        The path relative to the watched directory, in POSIX form —
        the name a checkpoint stores (None for a tail followed alone).
    offset:
        Bytes consumed so far (everything before it is parsed or held
        in :attr:`carry`). Checkpoints persist this.
    merger:
        The carry-over merge state; its :attr:`~IncrementalMerger.stats`
        accumulate exactly the per-file diagnostics batch reading
        reports (including ``decode_replacements``).
    """

    __slots__ = ("path", "name", "relpath", "strict", "offset", "carry",
                 "lineno", "merger", "finished", "telemetry")

    def __init__(self, path: str | os.PathLike[str],
                 name: TraceFileName | None = None, *,
                 strict: bool = True, telemetry=None,
                 relpath: str | None = None) -> None:
        from repro.strace.naming import parse_trace_filename

        self.path = Path(path)
        self.name = name or parse_trace_filename(self.path.name)
        self.relpath = relpath
        self.strict = strict
        self.offset = 0
        self.carry = b""
        self.lineno = 0
        self.merger = IncrementalMerger(path=str(self.path), strict=strict)
        self.finished = False
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY

    # -- polling -----------------------------------------------------------

    def poll(self) -> list[tuple]:
        """Consume newly appended bytes; return the newly *sealed* rows.

        A row is the merger's ``(pid, start_us, call, fp, size, dur_us,
        errno)`` tuple. Sealed rows are final — their position in the
        case's record sequence can no longer change — so callers fold
        them into the incremental DFG immediately. Rows completed but
        still waiting behind an in-flight unfinished call stay buffered
        in the merger until a later poll (or :meth:`finish`) seals
        them.

        The appended region is consumed in bounded chunks (the batch
        reader's granularity), so pointing a fresh follower at a
        directory that already holds multi-GB files never materializes
        a whole file in memory.
        """
        if self.finished:
            raise TraceParseError(
                "poll() after finish()", path=str(self.path))
        try:
            size = os.path.getsize(self.path)
        except OSError as exc:
            raise TraceParseError(
                f"trace file vanished mid-follow: {exc}",
                path=str(self.path)) from exc
        if size < self.offset:
            raise TraceParseError(
                f"trace file shrank from {self.offset} to {size} bytes — "
                f"truncated or rotated under the follower",
                path=str(self.path))
        if size == self.offset:
            return []
        telemetry = self.telemetry
        rows: list[tuple] = []
        with open(self.path, "rb") as handle:
            handle.seek(self.offset)
            remaining = size - self.offset
            while remaining:
                with telemetry.phase("tail"):
                    chunk = handle.read(min(_CHUNK_BYTES, remaining))
                if not chunk:
                    raise TraceParseError(
                        f"trace file shrank to {self.offset} bytes "
                        f"mid-read (expected {size}) — truncated or "
                        f"rotated under the follower",
                        path=str(self.path))
                remaining -= len(chunk)
                self.offset += len(chunk)
                with telemetry.phase("decode"):
                    block, self.carry = _cut_lines(self.carry + chunk)
                    text, error = self._decode(block)
                with telemetry.phase("seal"):
                    rows.extend(self._feed(text))
                if error is not None:
                    raise error
        return rows

    def finish(self) -> list[tuple]:
        """End of growth: flush the carry, orphan in-flight calls, and
        seal every remaining record (batch EOF semantics)."""
        if self.finished:
            return []
        self.finished = True
        block, self.carry = _last_block(self.carry), b""
        text = ""
        if block:
            with self.telemetry.phase("decode"):
                text, error = self._decode(block)
            if error is not None:
                raise error
        with self.telemetry.phase("seal"):
            return self._feed(text) + self.merger.finish()

    # -- internals ---------------------------------------------------------

    def _decode(self, block: bytes) -> tuple[str, TraceParseError | None]:
        """Decode a block of complete lines: its text, and the error of
        an undecodable line under ``strict``, if any — the text then
        holds the lines before the bad one, which the caller feeds
        first, so a parse error on an earlier line fires first, as it
        does in batch reading."""
        text, replaced, error = decode_block(
            block, strict=self.strict, path=str(self.path),
            lineno=self.lineno + 1)
        self.merger.stats.decode_replacements += replaced
        return text, error

    def _feed(self, text: str) -> list[tuple]:
        """Feed decoded lines that follow line :attr:`lineno`."""
        if not text:
            return []
        rows = self.merger.feed_text(text, self.lineno + 1)
        self.lineno += text.count("\n")
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FileTail({str(self.path)!r}, offset={self.offset}, "
                f"pending={self.merger.n_pending})")
