"""Unfinished/resumed merging and ERESTARTSYS filtering (Sec. III)."""

import pytest

from repro._util.errors import TraceParseError
from repro.strace.resume import merge_unfinished
from repro.strace.tokenizer import tokenize_line


def toks(text: str):
    return [tokenize_line(line) for line in text.strip().splitlines()]


class TestMerge:
    def test_paper_fig2c_pair(self):
        records, stats = merge_unfinished(toks("""
77423  16:56:40.452431 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, <unfinished ...>
77423  16:56:40.452660 <... read resumed> ..., 405) = 404 <0.000223>
"""))
        assert stats.merged_pairs == 1
        (record,) = records
        # Start from the unfinished half, size/duration from resumed.
        assert record.start_us == tokenize_line(
            "77423  16:56:40.452431 close(1</x>) = 0 <0.000001>").start_us
        assert record.call == "read"
        assert record.fp == "/usr/lib/x86_64-linux-gnu/libselinux.so.1"
        assert record.size == 404
        assert record.dur_us == 223

    def test_interleaved_pids(self):
        """Two processes blocked simultaneously; pairs match by pid."""
        records, stats = merge_unfinished(toks("""
100  10:00:00.000001 read(3</a>, <unfinished ...>
200  10:00:00.000002 write(4</b>, <unfinished ...>
200  10:00:00.000500 <... write resumed> ..., 10) = 10 <0.000498>
100  10:00:00.000900 <... read resumed> ..., 20) = 20 <0.000899>
"""))
        assert stats.merged_pairs == 2
        by_pid = {r.pid: r for r in records}
        assert by_pid[100].fp == "/a"
        assert by_pid[100].size == 20
        assert by_pid[200].fp == "/b"
        assert by_pid[200].size == 10

    def test_merged_records_sorted_by_start(self):
        records, _ = merge_unfinished(toks("""
100  10:00:00.000001 read(3</a>, <unfinished ...>
200  10:00:00.000300 write(4</b>, ..., 5) = 5 <0.000010>
100  10:00:00.000900 <... read resumed> ..., 20) = 20 <0.000899>
"""))
        assert [r.pid for r in records] == [100, 200]

    def test_call_name_mismatch_rejected(self):
        with pytest.raises(TraceParseError):
            merge_unfinished(toks("""
100  10:00:00.000001 read(3</a>, <unfinished ...>
100  10:00:00.000500 <... write resumed> ..., 5) = 5 <0.000499>
"""))

    def test_double_unfinished_same_pid_rejected(self):
        with pytest.raises(TraceParseError):
            merge_unfinished(toks("""
100  10:00:00.000001 read(3</a>, <unfinished ...>
100  10:00:00.000002 read(3</a>, <unfinished ...>
"""))

    def test_orphan_resumed_strict_rejected(self):
        with pytest.raises(TraceParseError):
            merge_unfinished(toks("""
100  10:00:00.000500 <... read resumed> ..., 5) = 5 <0.000499>
"""))

    def test_orphan_resumed_lenient_skipped(self):
        records, stats = merge_unfinished(toks("""
100  10:00:00.000500 <... read resumed> ..., 5) = 5 <0.000499>
"""), strict=False)
        assert records == []
        assert stats.orphan_resumed == 1

    def test_orphan_unfinished_at_eof_counted(self):
        records, stats = merge_unfinished(toks("""
100  10:00:00.000001 read(3</a>, <unfinished ...>
"""))
        assert records == []
        assert stats.orphan_unfinished == 1

    def test_exit_orphans_pending_call(self):
        records, stats = merge_unfinished(toks("""
100  10:00:00.000001 read(3</a>, <unfinished ...>
100  10:00:00.000002 +++ killed by SIGKILL +++
"""))
        assert records == []
        assert stats.orphan_unfinished == 1
        assert stats.skipped_exits == 1


class TestRestartFiltering:
    def test_erestartsys_dropped(self):
        records, stats = merge_unfinished(toks("""
100  10:00:00.000001 read(3</a>, ..., 10) = ? ERESTARTSYS (To be restarted if SA_RESTART is set) <0.000100>
100  10:00:00.000200 read(3</a>, ..., 10) = 10 <0.000050>
"""))
        assert stats.dropped_restarts == 1
        assert len(records) == 1
        assert records[0].size == 10

    def test_restart_in_resumed_half_dropped(self):
        records, stats = merge_unfinished(toks("""
100  10:00:00.000001 read(3</a>, <unfinished ...>
100  10:00:00.000300 <... read resumed> ..., 10) = ? ERESTARTSYS (To be restarted if SA_RESTART is set) <0.000299>
"""))
        assert records == []
        assert stats.dropped_restarts == 1

    def test_signals_skipped_and_counted(self):
        records, stats = merge_unfinished(toks("""
100  10:00:00.000001 --- SIGCHLD {si_signo=SIGCHLD} ---
100  10:00:00.000002 close(3</a>) = 0 <0.000001>
"""))
        assert stats.skipped_signals == 1
        assert len(records) == 1


class TestCarryStates:
    """The merge states the live follower carries across polls:
    interleaved restarts, EOF orphans, inverted orderings."""

    def test_interleaved_restarts_across_pids(self):
        """Two pids blocked at once, both resumed halves interrupted:
        each pair merges by pid and is then dropped as a restart."""
        records, stats = merge_unfinished(toks("""
100  10:00:00.000001 read(3</a>, <unfinished ...>
200  10:00:00.000002 write(4</b>, <unfinished ...>
300  10:00:00.000003 close(5</c>) = 0 <0.000001>
100  10:00:00.000500 <... read resumed> ..., 10) = ? ERESTARTSYS (To be restarted if SA_RESTART is set) <0.000499>
200  10:00:00.000600 <... write resumed> ..., 10) = ? ERESTARTSYS (To be restarted if SA_RESTART is set) <0.000598>
100  10:00:00.000700 read(3</a>, ..., 10) = 10 <0.000050>
200  10:00:00.000800 write(4</b>, ..., 10) = 10 <0.000050>
"""))
        assert stats.dropped_restarts == 2
        assert stats.merged_pairs == 0
        assert stats.orphan_unfinished == 0
        assert [(r.pid, r.call) for r in records] == [
            (300, "close"), (100, "read"), (200, "write")]

    def test_unfinished_without_resumed_at_eof_multiple_pids(self):
        """Processes killed mid-call: every in-flight slot orphans at
        EOF, records after the unfinished lines still come through."""
        records, stats = merge_unfinished(toks("""
100  10:00:00.000001 read(3</a>, <unfinished ...>
200  10:00:00.000002 write(4</b>, <unfinished ...>
300  10:00:00.000003 close(5</c>) = 0 <0.000001>
"""))
        assert stats.orphan_unfinished == 2
        assert [(r.pid, r.call) for r in records] == [(300, "close")]

    def test_resumed_before_unfinished_ordering(self):
        """A resumed record preceding any unfinished one (trace cut
        mid-stream): strict rejects; lenient skips the orphan and the
        later well-formed pair still merges."""
        text = """
100  10:00:00.000100 <... read resumed> ..., 5) = 5 <0.000099>
100  10:00:00.000200 read(3</a>, <unfinished ...>
100  10:00:00.000900 <... read resumed> ..., 20) = 20 <0.000699>
"""
        with pytest.raises(TraceParseError, match="without a matching"):
            merge_unfinished(toks(text))
        records, stats = merge_unfinished(toks(text), strict=False)
        assert stats.orphan_resumed == 1
        assert stats.merged_pairs == 1
        (record,) = records
        assert record.size == 20
        assert record.start_us == toks(text)[1].start_us


class TestIncrementalMerger:
    """Carrying the merge state across feeds (the live follower path)."""

    def _lines(self, text: str):
        return toks(text)

    def test_tokenwise_feed_equals_batch(self):
        from repro.strace.resume import IncrementalMerger

        text = """
100  10:00:00.000001 read(3</a>, <unfinished ...>
200  10:00:00.000002 write(4</b>, <unfinished ...>
300  10:00:00.000003 close(5</c>) = 0 <0.000001>
200  10:00:00.000500 <... write resumed> ..., 10) = 10 <0.000498>
100  10:00:00.000900 <... read resumed> ..., 20) = 20 <0.000899>
300  10:00:00.001000 close(6</d>) = 0 <0.000001>
"""
        batch_records, batch_stats = merge_unfinished(toks(text))
        merger = IncrementalMerger()
        sealed = []
        for token in toks(text):
            sealed += merger.feed([token])
        sealed += merger.finish()
        assert sealed == batch_records
        assert merger.stats == batch_stats

    def test_sealing_waits_for_inflight_calls(self):
        from repro.strace.resume import IncrementalMerger

        merger = IncrementalMerger()
        assert merger.feed(toks("""
100  10:00:00.000001 read(3</a>, <unfinished ...>
300  10:00:00.000003 close(5</c>) = 0 <0.000001>
""")) == []
        assert merger.n_pending == 1
        assert merger.n_buffered == 1
        sealed = merger.feed(toks("""
100  10:00:00.000900 <... read resumed> ..., 20) = 20 <0.000899>
"""))
        # The merged read sorts before the close it was blocking.
        assert [(row[0], row[2]) for row in sealed] == [
            (100, "read"), (300, "close")]
        assert merger.finish() == []

    def test_sealed_records_are_final(self):
        """Records ahead of every in-flight call seal immediately."""
        from repro.strace.resume import IncrementalMerger

        merger = IncrementalMerger()
        sealed = merger.feed(toks("""
300  10:00:00.000001 close(5</c>) = 0 <0.000001>
100  10:00:00.000002 read(3</a>, <unfinished ...>
"""))
        assert [(row[0], row[2]) for row in sealed] == [(300, "close")]

    def test_finish_orphans_pending(self):
        from repro.strace.resume import IncrementalMerger

        merger = IncrementalMerger()
        merger.feed(toks("""
100  10:00:00.000001 read(3</a>, <unfinished ...>
"""))
        assert merger.finish() == []
        assert merger.stats.orphan_unfinished == 1
