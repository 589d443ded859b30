"""Soak smoke: week-long-watcher memory stays bounded under --window.

Tier-2 (``--run-slow``). Feeds a six-figure event stream through the
statistics accumulators and a long poll schedule through a LiveIngest,
and asserts the bounded-memory claims directly: with a window, live
heap (tracemalloc) and checkpoint size (sidecar plus interval segment)
are a small fraction of the unbounded run's, and per-case buffers
never exceed the window.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.core.statistics import StatsAccumulator
from repro.live.checkpoint import segment_path
from repro.live.engine import LiveIngest

N_EVENTS = 100_000
WINDOW = 64


def _feed(accumulator: StatsAccumulator, n_events: int) -> None:
    """Disjoint intervals: every event grows the exact buffer by 1."""
    feed = accumulator.feed_event
    for i in range(n_events):
        feed("read:/data", "job_h_1", rid=1, start_us=10 * i,
             dur_us=5, size=100)


def _traced_feed(n_events: int, window: int | None) -> int:
    """Net heap bytes held by a fed accumulator, via tracemalloc."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        accumulator = StatsAccumulator(window=window)
        _feed(accumulator, n_events)
        after, _ = tracemalloc.get_traced_memory()
        assert accumulator is not None
        return after - before
    finally:
        tracemalloc.stop()


@pytest.mark.slow
class TestAccumulatorSoak:
    def test_windowed_heap_is_a_fraction_of_unbounded(self):
        unbounded = _traced_feed(N_EVENTS, window=None)
        windowed = _traced_feed(N_EVENTS, window=WINDOW)
        # The unbounded run holds one interval tuple per event; the
        # windowed run holds at most WINDOW per case. Allow generous
        # slack for allocator noise — an order of magnitude is the
        # point, not a constant factor.
        assert windowed < unbounded / 10, (windowed, unbounded)

    def test_windowed_state_stays_small_and_scalars_exact(self):
        exact = StatsAccumulator()
        windowed = StatsAccumulator(window=WINDOW)
        _feed(exact, N_EVENTS)
        _feed(windowed, N_EVENTS)
        small = len(json.dumps(windowed.to_state()))
        large = len(json.dumps(exact.to_state()))
        assert small < large / 100, (small, large)
        order = ("job_h_1",)
        w = windowed.statistics(case_order=order)["read:/data"]
        e = exact.statistics(case_order=order)["read:/data"]
        assert w.event_count == e.event_count == N_EVENTS
        assert w.total_bytes == e.total_bytes
        assert w.process_data_rate == e.process_data_rate  # bit-exact
        assert w.approximate and not e.approximate


@pytest.mark.slow
class TestWatcherSoak:
    def _lines(self, start: int, count: int) -> bytes:
        rows = []
        for i in range(start, start + count):
            stamp_us = i * 1000  # one event per millisecond
            minute, rest = divmod(stamp_us, 60_000_000)
            second, micro = divmod(rest, 1_000_000)
            rows.append(
                f"77  08:{minute:02d}:{second:02d}.{micro:06d}"
                f" read(3</data/file>, ..., 100) = 100 <0.000050>"
                .encode())
        return b"\n".join(rows) + b"\n"

    def test_checkpoint_size_is_bounded_under_window(self, tmp_path):
        polls = 40
        batch = 500  # events appended between polls
        sizes = {}
        for label, window in (("unbounded", None),
                              ("windowed", WINDOW)):
            trace_dir = tmp_path / label
            trace_dir.mkdir()
            sidecar = tmp_path / f"{label}.json"
            engine = LiveIngest(trace_dir, checkpoint=sidecar,
                                keep_records=False, window=window)
            trace = trace_dir / "job_host1_7.st"
            for poll in range(polls):
                with open(trace, "ab") as handle:
                    handle.write(self._lines(poll * batch, batch))
                engine.poll()
                engine.save_checkpoint()
            # The exact intervals live in the segment beside the
            # sidecar (none is written once every buffer is coarse):
            # the disk bound covers both files.
            segment = segment_path(sidecar)
            sizes[label] = sidecar.stat().st_size + (
                segment.stat().st_size if segment.exists() else 0)
            if window is not None:
                for acc in engine.stats._activities.values():
                    for buffer in acc._case_timelines.values():
                        assert len(buffer) // 2 <= window
        assert sizes["windowed"] < sizes["unbounded"] / 20, sizes

    def test_journal_disk_stays_bounded_under_compaction(self,
                                                         tmp_path):
        """ROADMAP 5b's disk claim, at soak scale: with
        ``compact_emit``, the journal's on-disk footprint after each
        checkpoint save is bounded by one poll batch (+ header) for
        the whole run, while events — and the packed ``.elog`` —
        keep growing."""
        polls = 40
        batch = 500
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        elog = tmp_path / "run.elog"
        journal = elog.with_name(elog.name + ".journal")
        engine = LiveIngest(trace_dir, keep_records=False,
                            window=WINDOW, emit=elog,
                            checkpoint=tmp_path / "ckpt.json",
                            compact_emit=1)
        trace = trace_dir / "job_host1_7.st"
        journal_high_water = 0
        elog_sizes = []
        for poll in range(polls):
            with open(trace, "ab") as handle:
                handle.write(self._lines(poll * batch, batch))
            engine.poll()
            engine.save_checkpoint()
            journal_high_water = max(journal_high_water,
                                     journal.stat().st_size)
            elog_sizes.append(elog.stat().st_size)
        # O(window): the journal never held more than ~one batch of
        # records; total journaled events are 40x that. The packed
        # destination carried the growth instead.
        one_batch_journaled = 2 * batch * 120  # ~record line bytes
        assert journal_high_water < one_batch_journaled, \
            journal_high_water
        assert elog_sizes[-1] > elog_sizes[0]
        assert elog_sizes == sorted(elog_sizes)
        assert journal.stat().st_size < 256  # header-only at rest
