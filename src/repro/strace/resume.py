"""Merging of ``<unfinished ...>`` / ``<... resumed>`` record pairs.

When a traced process blocks inside a syscall while another traced
process produces records, strace splits the blocked call across two
lines (Fig. 2c of the paper)::

    77423  16:56:40.452431 read(3</usr/lib/...>, <unfinished ...>
    ...
    77423  16:56:40.452660 <... read resumed> ..., 405) = 404 <0.000223>

Per Sec. III: "The unfinished and the resumed records are matched using
the pid, and merged into a single record" — the merged record keeps the
*start* timestamp of the unfinished half and the *duration* and return
value from the resumed half. A single pid can have at most one call in
flight (one kernel thread = one syscall at a time), so a per-pid slot is
sufficient; we additionally check the syscall names agree, which guards
against trace corruption.

Interrupted calls — those whose return clause carries ``ERESTARTSYS`` —
are dropped, again per Sec. III ("we ignore these calls"). Signal
delivery (``--- SIGx ---``) and exit (``+++ exited +++``) records are
skipped here; the reader records their counts for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro._util.errors import TraceParseError
from repro.strace.parser import ParsedRecord, match_line, parse_row
from repro.strace.tokenizer import (
    RecordKind,
    Token,
    resumed_call_name,
    tokenize_line,
    unfinished_call_name,
)

#: errno names treated as "interrupted; strace will restart" — the paper
#: names ERESTARTSYS; the kernel family has four members.
RESTART_ERRNOS = frozenset({
    "ERESTARTSYS",
    "ERESTARTNOINTR",
    "ERESTARTNOHAND",
    "ERESTART_RESTARTBLOCK",
})


@dataclass
class MergeStats:
    """Bookkeeping from a merge pass (exposed for tests/diagnostics)."""

    merged_pairs: int = 0
    dropped_restarts: int = 0
    skipped_signals: int = 0
    skipped_exits: int = 0
    orphan_unfinished: int = 0
    orphan_resumed: int = 0
    #: Undecodable bytes replaced with U+FFFD while reading the file
    #: (filled in by the reader; only non-zero under ``strict=False``).
    decode_replacements: int = 0


class IncrementalMerger:
    """Stateful unfinished/resumed merger, consumable in arbitrary slices.

    The one merger of both ingestion paths: batch reading feeds it a
    whole file, the live follower (:mod:`repro.live`) a few lines at a
    time, so the merge state — the per-pid in-flight slot — survives
    between feeds. :meth:`feed_lines` is also where each line is
    parsed: a complete I/O call takes the fast path
    (:func:`~repro.strace.parser.match_line`) straight to its row;
    every other line is tokenized and handled here, its syscall bodies
    (including spliced resumed pairs) parsed by
    :func:`~repro.strace.parser.parse_row`. Errors name the path and
    the line.

    The merger also solves an ordering problem batch merging hides: a
    merged record sits at its *unfinished* (start) position, which
    precedes records already produced from lines between the two
    halves. Emitting those intermediate records eagerly would put them
    ahead of a record that still belongs before them.

    The merger therefore *seals* records with a watermark: a completed
    record leaves the internal buffer only once its start timestamp is
    at or below every in-flight unfinished call's start — at that point
    no future merge can sort ahead of it (strace writes plain lines in
    timestamp order; any inversion would have forced a split, which is
    represented in the pending map). Sealed output across feeds is
    exactly the sorted record list of one feed over the whole input:
    ties on start timestamp break by completion order.

    Sealed records are rows — ``(pid, start_us, call, fp, size,
    dur_us, errno)`` tuples — wrapped as
    :class:`~repro.strace.parser.ParsedRecord` unless ``rows=True``
    (the column builders, which need no names). :attr:`stats` is
    updated in place as input arrives.
    """

    __slots__ = ("path", "strict", "default_pid", "stats", "_pending",
                 "_buffer", "_seq", "_wrap")

    def __init__(self, *, path: str | None = None, strict: bool = True,
                 default_pid: int = 0, rows: bool = False) -> None:
        self.path = path
        self.strict = strict
        self.default_pid = default_pid
        self.stats = MergeStats()
        # pid -> (token, call name) for the in-flight unfinished record.
        self._pending: dict[int, tuple[Token, str]] = {}
        # Completed but unsealed rows: (start_us, completion seq, row).
        # The seq is the completion index, so sealing in (start, seq)
        # order reproduces a one-feed stable sort exactly.
        self._buffer: list[tuple[int, int, tuple]] = []
        self._seq = 0
        self._wrap = None if rows else ParsedRecord._make

    # -- introspection (live status displays) -----------------------------

    @property
    def n_pending(self) -> int:
        """In-flight unfinished calls awaiting their resumed half."""
        return len(self._pending)

    @property
    def n_buffered(self) -> int:
        """Completed records still held behind the seal watermark."""
        return len(self._buffer)

    @property
    def watermark_age_us(self) -> int:
        """How far (in trace time, µs) sealing lags behind parsing.

        Sealing starvation: an in-flight ``<unfinished ...>`` call
        holds every later completed record of its file behind the seal
        watermark until its resumed half arrives (or EOF orphans it).
        The age is the span between the newest buffered record's start
        and the watermark — ``0`` when nothing is held back. Computed
        from the pending/buffer state alone, so it is a pure function
        of the bytes consumed so far and survives checkpoint
        round-trips unchanged. Surfaced per file by
        :meth:`~repro.live.engine.LiveIngest.watermark_ages` for the
        watch status line and the ``watermark_age`` alerting rule.
        """
        if not self._pending or not self._buffer:
            return 0
        horizon = min(token.start_us
                      for token, _ in self._pending.values())
        return max(start for start, _, _ in self._buffer) - horizon

    def pending_tokens(self) -> list[Token]:
        """The unfinished halves currently in flight (for checkpoints)."""
        return [token for token, _ in self._pending.values()]

    def buffered_records(self) -> list[tuple[int, tuple]]:
        """``(completion_seq, row)`` of unsealed records (for
        checkpoints), in completion order."""
        return sorted(((seq, row) for _, seq, row in self._buffer))

    # -- checkpoint restore ------------------------------------------------

    def restore(self, *, pending: Iterable[Token],
                buffered: Iterable[tuple[int, tuple]],
                next_seq: int, stats: MergeStats) -> None:
        """Reload carry-over state saved by a live checkpoint."""
        self._pending = {token.pid: (token, unfinished_call_name(token.body))
                         for token in pending}
        self._buffer = [(row[1], seq, row) for seq, row in buffered]
        self._seq = next_seq
        self.stats = stats

    @property
    def next_seq(self) -> int:
        """The completion index the next record will get."""
        return self._seq

    # -- the merge ---------------------------------------------------------

    def feed_lines(self, lines: Iterable[tuple[int, str]]) -> list:
        """Consume ``(lineno, text)`` lines; return the records sealed
        by them.

        ``text`` is one decoded, non-blank line without its terminator;
        ``lineno`` is its 1-based line number in the file, which every
        error raised here names. Sealed records are final: their
        position in the overall record sequence can no longer change,
        so callers may fold them into downstream incremental
        structures immediately.
        """
        default_pid = self.default_pid
        for lineno, text in lines:
            row = match_line(text, default_pid)
            if row is None:
                self._consume(tokenize_line(
                    text, path=self.path, lineno=lineno,
                    default_pid=default_pid), lineno)
            else:
                self._complete(row)
        return self._drain()

    def feed(self, tokens: Iterable[Token]) -> list:
        """Consume already tokenized lines (no line numbers to name in
        errors); return the records sealed by them."""
        for token in tokens:
            self._consume(token, None)
        return self._drain()

    def finish(self) -> list:
        """End of input: orphan in-flight calls, seal everything left."""
        self.stats.orphan_unfinished += len(self._pending)
        self._pending.clear()
        return self._drain()

    def _consume(self, token: Token, lineno: int | None) -> None:
        stats = self.stats
        kind = token.kind
        if kind is RecordKind.SYSCALL:
            self._complete(parse_row(token.pid, token.start_us, token.body,
                                     path=self.path, lineno=lineno))
            return
        if kind is RecordKind.SIGNAL:
            stats.skipped_signals += 1
            return
        if kind is RecordKind.EXIT:
            stats.skipped_exits += 1
            # An exit while a call is pending orphans it.
            if token.pid in self._pending:
                del self._pending[token.pid]
                stats.orphan_unfinished += 1
            return
        if kind is RecordKind.UNFINISHED:
            if token.pid in self._pending:
                raise TraceParseError(
                    f"pid {token.pid} has two in-flight unfinished calls",
                    path=self.path, lineno=lineno)
            self._pending[token.pid] = (
                token, unfinished_call_name(token.body))
            return
        # RESUMED: the merged record parses where the call completes.
        entry = self._pending.pop(token.pid, None)
        call = resumed_call_name(token.body)
        if entry is None:
            if self.strict:
                raise TraceParseError(
                    f"resumed {call!r} for pid {token.pid} without a "
                    f"matching unfinished record",
                    path=self.path, lineno=lineno)
            stats.orphan_resumed += 1
            return
        head_token, head_call = entry
        if head_call != call:
            raise TraceParseError(
                f"pid {token.pid}: unfinished {head_call!r} resumed as "
                f"{call!r}", path=self.path, lineno=lineno)
        body = _join_bodies(head_token.body, token.body, call)
        if self._complete(parse_row(head_token.pid, head_token.start_us,
                                    body, path=self.path, lineno=lineno)):
            stats.merged_pairs += 1

    def _complete(self, row: tuple) -> bool:
        """Buffer a completed row; False (and counted) when it is an
        interrupted call, which Sec. III drops."""
        if row[6] in RESTART_ERRNOS:
            self.stats.dropped_restarts += 1
            return False
        self._buffer.append((row[1], self._seq, row))
        self._seq += 1
        return True

    def _drain(self) -> list:
        if not self._buffer:
            return []
        if self._pending:
            horizon = min(token.start_us
                          for token, _ in self._pending.values())
            sealed = [entry for entry in self._buffer
                      if entry[0] <= horizon]
            if not sealed:
                return []
            self._buffer = [entry for entry in self._buffer
                            if entry[0] > horizon]
        else:
            sealed = self._buffer
            self._buffer = []
        sealed.sort()
        wrap = self._wrap
        if wrap is None:
            return [row for _, _, row in sealed]
        return [wrap(row) for _, _, row in sealed]


def merge_unfinished(
    tokens: Iterable[Token],
    *,
    path: str | None = None,
    strict: bool = True,
) -> tuple[list[ParsedRecord], MergeStats]:
    """Merge unfinished/resumed pairs and parse all syscall records.

    Parameters
    ----------
    tokens:
        Tokenized lines of *one* trace file, in file order. Any
        iterable works — in particular a lazy
        :class:`~repro.ingest.streaming.TokenStream`, so the full token
        list of a file never needs to exist in memory. (The readers
        feed lines to :meth:`IncrementalMerger.feed_lines` instead,
        which also names the line of an error.)
    path:
        For error messages.
    strict:
        If True, orphan resumed records (no matching unfinished) raise
        :class:`TraceParseError`; if False they are counted and skipped.
        Orphan unfinished records at EOF (process killed mid-call) are
        always skipped-and-counted — strace genuinely produces those.

    Returns
    -------
    (records, stats):
        Parsed records in start-timestamp order of their *initiating*
        line, and merge statistics.
    """
    merger = IncrementalMerger(path=path, strict=strict)
    records = merger.feed(tokens)
    records += merger.finish()
    return records, merger.stats


def _join_bodies(unfinished_body: str, resumed_body: str, call: str) -> str:
    """Splice the two halves back into one parseable syscall body.

    ``read(3</x>, <unfinished ...>`` + ``<... read resumed> ..., 405) =
    404 <0.000223>`` → ``read(3</x>,  ..., 405) = 404 <0.000223>``.
    """
    head = unfinished_body[: -len("<unfinished ...>")]
    marker = "resumed>"
    idx = resumed_body.index(marker)
    tail = resumed_body[idx + len(marker):]
    return head + tail.lstrip(" ") if head.endswith(" ") else head + tail
