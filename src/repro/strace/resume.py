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

Input arrives as blocks of complete lines, each scanned with one
:data:`~repro.strace.parser.LINE_RE` ``finditer``; a match is one whole
line. A complete call becomes its row, an unfinished head fills its
pid's slot, and a resumed tail splices with that head — all from the
match groups, with no per-line helper call. A head keeps its argument
text, so the splice reads ``fp`` from it and the rest from the tail,
which is the row the general scan gives for the joined body.
``HH:MM:SS`` is converted once per run of lines sharing it. Every other
line — signals, exits, struct/array arguments, paths at another
argument index, out-of-range stamps, a complete call returning
``3<unfinished ...>``, a second head on one pid, a tail whose head is
missing, names another call or was taken by the general road — lies
between two matches or is a match the fast road declines; it is
tokenized and handled by the general road, which raises every located
error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro._util.errors import TraceParseError
from repro.strace.parser import (
    FP_FD,
    FP_MODES,
    FP_NONE,
    FP_RET,
    LINE_RE,
    SIZE_CALLS,
    UNFINISHED_SUFFIX,
    ParsedRecord,
    first_quoted_path,
    scan_body,
)
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
    file a block at a time, the live follower (:mod:`repro.live`) a
    few lines at a time, so the merge state — the per-pid in-flight
    slot — survives between feeds. :meth:`feed_text` is also where
    each line is parsed: a complete I/O call, an unfinished head and a
    resumed tail take the fast road (one
    :data:`~repro.strace.parser.LINE_RE` match each, see the module
    docstring); every other line is tokenized and handled here, its
    syscall bodies (including spliced resumed pairs) parsed by
    :func:`~repro.strace.parser.scan_body`. Errors name the path and
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

    Sealed records are plain rows — ``(pid, start_us, call, fp, size,
    dur_us, errno)`` tuples, in :class:`~repro.strace.parser.ParsedRecord`
    field order; the column builders and the live engine read them by
    position, and only the record readers wrap them. A line without a
    pid (strace run without ``-f``) gets pid 0. :attr:`stats` is
    updated in place as input arrives.
    """

    __slots__ = ("path", "strict", "stats", "_pending", "_buffer",
                 "_seq")

    def __init__(self, *, path: str | None = None,
                 strict: bool = True) -> None:
        self.path = path
        self.strict = strict
        self.stats = MergeStats()
        # pid -> (start_us, call, body, fd path, arguments) of the
        # in-flight unfinished record. The last two are the LINE_RE
        # groups of a head the fast road took; a head the general road
        # took has None arguments, and its tail splices by scan.
        self._pending: dict[int, tuple] = {}
        # Completed but unsealed rows: (start_us, completion seq, row).
        # The seq is the completion index, so sealing in (start, seq)
        # order reproduces a one-feed stable sort exactly.
        self._buffer: list[tuple[int, int, tuple]] = []
        self._seq = 0

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
        horizon = min(entry[0] for entry in self._pending.values())
        return max(start for start, _, _ in self._buffer) - horizon

    def pending_tokens(self) -> list[Token]:
        """The unfinished halves currently in flight (for checkpoints)."""
        return [Token(pid=pid, start_us=entry[0],
                      kind=RecordKind.UNFINISHED, body=entry[2])
                for pid, entry in self._pending.items()]

    def buffered_records(self) -> list[tuple[int, tuple]]:
        """``(completion_seq, row)`` of unsealed records (for
        checkpoints), in completion order."""
        return sorted(((seq, row) for _, seq, row in self._buffer))

    # -- checkpoint restore ------------------------------------------------

    def restore(self, *, pending: Iterable[Token],
                buffered: Iterable[tuple[int, tuple]],
                next_seq: int, stats: MergeStats) -> None:
        """Reload carry-over state saved by a live checkpoint."""
        self._pending = {
            token.pid: (token.start_us, unfinished_call_name(token.body),
                        token.body, None, None)
            for token in pending}
        self._buffer = [(row[1], seq, row) for seq, row in buffered]
        self._seq = next_seq
        self.stats = stats

    @property
    def next_seq(self) -> int:
        """The completion index the next record will get."""
        return self._seq

    # -- the merge ---------------------------------------------------------

    def feed_text(self, text: str, lineno: int = 1, *,
                  seal: bool = True) -> list[tuple]:
        """Consume ``text`` — decoded, complete lines, each ending in
        ``\\n``, the first of them line ``lineno`` of the file — and
        return the records sealed by them.

        One :data:`~repro.strace.parser.LINE_RE` ``finditer`` scans the
        block; each match is one whole line the fast road may take (see
        the module docstring). The text between two taken lines is the
        declined lines: blank and whitespace-only ones are skipped, and
        every other one goes to the general road in file order. Line
        numbers, which every error names, are counted only where
        declined lines need them, and only from the last counted
        offset. Sealed records are final: their position in the
        overall record sequence can no longer change, so callers may
        fold them into downstream incremental structures immediately.
        ``seal=False`` seals nothing and holds every completed record
        for :meth:`finish`, which returns them in one start-ordered
        list whatever the block boundaries were (the batch reader).
        """
        pending = self._pending
        append = self._buffer.append
        fp_modes = FP_MODES
        clock = clock_us = None  # the last HH:MM:SS and its µs
        done = 0  # the start of the first line neither taken nor fed
        counted = 0  # ``lineno`` is the number of the line starting here
        for m in LINE_RE.finditer(text):
            start = m.start()
            if start != done:
                lineno += text.count("\n", counted, done)
                lineno = self._feed_declined(text[done:start], lineno)
                counted = done = start
            (pid, hms, epoch, fraction, call, fd_path, resumed, args,
             val, ret_path, errno, dur_s, dur_frac) = m.groups()
            if hms is None:
                start_us = int(epoch + fraction)
            else:
                if hms != clock:
                    hours, minutes, seconds = \
                        int(hms[:2]), int(hms[3:5]), int(hms[6:])
                    if hours > 23 or minutes > 59 or seconds > 60:
                        continue  # the tokenizer raises the range error
                    clock = hms
                    clock_us = ((hours * 60 + minutes) * 60
                                + seconds) * 1_000_000
                start_us = clock_us + int(fraction)
            pid = 0 if pid is None else int(pid)
            if val is None:  # the line ends ``<unfinished ...>``
                if call is None or pid in pending:
                    # after a resumed tail's opening, or a second head
                    # on the pid: the general road's record or error
                    continue
                pending[pid] = (start_us, call, text[m.start(5):m.end()],
                                fd_path, args)
                done = m.end() + 1
                continue
            if call is None:  # a resumed tail: splice with its head
                entry = pending.get(pid)
                if entry is None or entry[1] != resumed \
                        or entry[4] is None:
                    continue  # the general road splices it, or raises
                start_us, call, _, fd_path, head_args = entry
            elif dur_s is None and text.endswith(
                    UNFINISHED_SUFFIX, start, m.end()):
                continue  # ``= 3<unfinished ...>``
            mode = fp_modes.get(call, FP_FD)
            if mode == FP_FD:
                fp = fd_path
            elif mode == FP_NONE:
                fp = None
            elif mode == FP_RET and ret_path:
                fp = ret_path
            else:
                fp = None
                if mode == FP_RET:  # no returned path: the first string
                    if resumed is not None:  # of the joined arguments
                        # (the spaces the general join strips at the
                        # seam cannot move the first quoted argument)
                        args = head_args + args
                    fp = first_quoted_path(args)
                if fp is None:
                    continue  # the path needs the general scan
            done = m.end() + 1
            if resumed is not None:
                del pending[pid]
            if errno is not None and errno in RESTART_ERRNOS:
                self.stats.dropped_restarts += 1
                continue
            size = None
            if errno is None and val != "?" and call in SIZE_CALLS:
                size = int(val, 16) if val[:2] == "0x" else int(val)
                if size < 0:
                    size = None
            seq = self._seq
            self._seq = seq + 1
            append((start_us, seq, (
                pid, start_us, call, fp, size,
                None if dur_s is None else int(dur_s + dur_frac), errno)))
            if resumed is not None:
                self.stats.merged_pairs += 1
        if done != len(text):
            self._feed_declined(
                text[done:], lineno + text.count("\n", counted, done))
        return self._drain() if seal else []

    def feed(self, tokens: Iterable[Token]) -> list[tuple]:
        """Consume already tokenized lines (no line numbers to name in
        errors); return the records sealed by them."""
        for token in tokens:
            self._consume(token, None)
        return self._drain()

    def finish(self) -> list[tuple]:
        """End of input: orphan in-flight calls, seal everything left."""
        self.stats.orphan_unfinished += len(self._pending)
        self._pending.clear()
        return self._drain()

    def _feed_declined(self, lines: str, lineno: int) -> int:
        """The general road for lines the fast road declined: ``lines``
        holds complete lines, the first of them line ``lineno``.
        Returns the number of the line after them."""
        texts = lines.split("\n")
        texts.pop()  # the empty piece after the final terminator
        for text in texts:
            if text and not text.isspace():
                self._feed_general(text, lineno)
            lineno += 1
        return lineno

    def _feed_general(self, text: str, lineno: int) -> None:
        """The general road for one line the fast road declined."""
        self._consume(tokenize_line(text, path=self.path, lineno=lineno),
                      lineno)

    def _consume(self, token: Token, lineno: int | None) -> None:
        stats = self.stats
        kind = token.kind
        if kind is RecordKind.SYSCALL:
            self._complete(scan_body(token.pid, token.start_us, token.body,
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
                token.start_us,
                unfinished_call_name(token.body, path=self.path,
                                     lineno=lineno),
                token.body, None, None)
            return
        entry = self._pending.pop(token.pid, None)
        body = token.body
        call = resumed_call_name(body, path=self.path, lineno=lineno)
        self._splice(token.pid, entry, call,
                     body[body.index("resumed>") + len("resumed>"):],
                     lineno)

    def _splice(self, pid: int, entry: tuple | None, call: str,
                resumed_text: str, lineno: int | None) -> None:
        """The general road's resumed tail: ``entry`` is the pid's
        popped in-flight head (``None`` if there was none), ``call``
        the tail's name and ``resumed_text`` what follows its
        ``resumed>``. The halves are joined back into one body —
        ``read(3</x>, <unfinished ...>`` + `` ..., 405) = 404
        <0.000223>`` → ``read(3</x>, ..., 405) = 404 <0.000223>`` —
        and the merged record parses where the call completes."""
        if entry is None:
            if self.strict:
                raise TraceParseError(
                    f"resumed {call!r} for pid {pid} without a "
                    f"matching unfinished record",
                    path=self.path, lineno=lineno)
            self.stats.orphan_resumed += 1
            return
        start_us, head_call, body = entry[:3]
        if head_call != call:
            raise TraceParseError(
                f"pid {pid}: unfinished {head_call!r} resumed as "
                f"{call!r}", path=self.path, lineno=lineno)
        head = body[:-len(UNFINISHED_SUFFIX)]
        if head.endswith(" "):
            resumed_text = resumed_text.lstrip(" ")
        if self._complete(scan_body(pid, start_us, head + resumed_text,
                                    path=self.path, lineno=lineno)):
            self.stats.merged_pairs += 1

    def _complete(self, row: tuple) -> bool:
        """Buffer a completed row; False (and counted) when it is an
        interrupted call, which Sec. III drops."""
        if row[6] in RESTART_ERRNOS:
            self.stats.dropped_restarts += 1
            return False
        self._buffer.append((row[1], self._seq, row))
        self._seq += 1
        return True

    def _drain(self) -> list[tuple]:
        if not self._buffer:
            return []
        if self._pending:
            horizon = min(entry[0] for entry in self._pending.values())
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
        return [row for _, _, row in sealed]


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
        feed blocks of text to :meth:`IncrementalMerger.feed_text`
        instead, which also names the line of an error.)
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
    rows = merger.feed(tokens)
    rows += merger.finish()
    return list(map(ParsedRecord._make, rows)), merger.stats
