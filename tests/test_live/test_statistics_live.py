"""Incremental statistics equal batch ``IOStatistics`` — always.

The accumulator layer (:class:`repro.core.statistics.StatsAccumulator`)
promises that ``LiveIngest.statistics()`` matches a batch
``IOStatistics`` of the final directory on *every* ``ActivityStats``
field — including the floats (mean data rate, relative duration), the
max-concurrency sweep and the Eq. 15 timelines — after any poll
schedule, any interleaving of growing cases, kill/restart cycles, and
with or without record retention. Hypothesis supplies the adversarial
schedules; the assertions compare field-exactly (no approx): the two
roads must produce bit-identical floats, not merely close ones.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.eventlog import EventLog
from repro.core.mapping import CallTopDirs
from repro.core.statistics import IOStatistics, StatsAccumulator
from repro.live.engine import LiveIngest

MAPPING = CallTopDirs(levels=2)

#: Growth schedule: (file index, percent of remaining bytes, poll?).
steps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=1, max_value=100),
              st.booleans()),
    min_size=1, max_size=30)


def assert_stats_equal(live: IOStatistics, batch: IOStatistics) -> None:
    """Field-exact equality of two IOStatistics (floats included)."""
    assert set(live.activities()) == set(batch.activities())
    assert live.activities() == batch.activities()
    assert live.total_duration_us == batch.total_duration_us
    for activity in batch.activities():
        assert live[activity] == batch[activity], activity
        assert live.timeline(activity) == batch.timeline(activity), \
            activity


def batch_statistics(directory: Path) -> IOStatistics:
    log = EventLog.from_source(directory, workers=1)
    return IOStatistics(log.with_mapping(MAPPING))


def _replay(file_bytes: dict[str, bytes], schedule, *, live_dir: Path,
            engine: LiveIngest, restart_after: int | None = None,
            sidecar: Path | None = None) -> LiveIngest:
    """Grow ``live_dir`` per the schedule, polling along the way."""
    names = sorted(file_bytes)
    offsets = {name: 0 for name in names}
    for step_index, (file_index, percent, poll) in enumerate(schedule):
        name = names[file_index % len(names)]
        content = file_bytes[name]
        remaining = len(content) - offsets[name]
        chunk = max(1, remaining * percent // 100) if remaining else 0
        if chunk:
            with open(live_dir / name, "ab") as handle:
                handle.write(content[offsets[name]:offsets[name] + chunk])
            offsets[name] += chunk
        if poll:
            engine.poll()
        if restart_after is not None and step_index == restart_after:
            engine.save_checkpoint()
            engine = LiveIngest(live_dir, checkpoint=sidecar)
    for name in names:
        tail = file_bytes[name][offsets[name]:]
        if tail:
            with open(live_dir / name, "ab") as handle:
                handle.write(tail)
    engine.poll()
    engine.finalize()
    return engine


class TestLiveStatisticsEqualBatch:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(schedule=steps)
    def test_random_growth_schedule(self, schedule, ior_file_bytes):
        with tempfile.TemporaryDirectory() as scratch:
            live_dir = Path(scratch)
            engine = _replay(ior_file_bytes, schedule,
                             live_dir=live_dir,
                             engine=LiveIngest(live_dir))
            assert_stats_equal(engine.statistics(),
                               batch_statistics(live_dir))

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(schedule=steps,
           restart_after=st.integers(min_value=0, max_value=29))
    def test_random_schedule_with_kill_restart(self, schedule,
                                               restart_after,
                                               ior_file_bytes):
        """The post-restart statistics gap, closed: the revived
        watcher's statistics cover the *full* history (first life
        included) and equal batch on every field."""
        with tempfile.TemporaryDirectory() as scratch:
            live_dir = Path(scratch) / "traces"
            live_dir.mkdir()
            sidecar = Path(scratch) / "ckpt.json"
            engine = _replay(
                ior_file_bytes, schedule, live_dir=live_dir,
                engine=LiveIngest(live_dir, checkpoint=sidecar),
                restart_after=min(restart_after,
                                  max(len(schedule) - 1, 0)),
                sidecar=sidecar)
            assert_stats_equal(engine.statistics(),
                               batch_statistics(live_dir))

    def test_statistics_track_every_poll_midstream(self, tmp_path,
                                                   ls_file_bytes):
        """Mid-stream, the accumulators agree with a batch compute
        over the sealed records (the snapshot log) after *every*
        poll — statistics and log never disagree."""
        engine = LiveIngest(tmp_path)
        for name, content in sorted(ls_file_bytes.items()):
            half = len(content) // 2 + 3
            with open(tmp_path / name, "ab") as handle:
                handle.write(content[:half])
            engine.poll()
            assert_stats_equal(
                engine.statistics(),
                IOStatistics(engine.snapshot_log()
                             .with_mapping(engine.mapping)))
            with open(tmp_path / name, "ab") as handle:
                handle.write(content[half:])
            engine.poll()
        engine.finalize()
        assert_stats_equal(engine.statistics(),
                           batch_statistics(tmp_path))

    def test_keep_records_false_has_full_statistics(self, tmp_path,
                                                    ior_file_bytes):
        """Record retention is orthogonal: the bounded-memory engine
        still produces full batch-equal statistics from an empty
        snapshot log."""
        lean = LiveIngest(tmp_path, keep_records=False)
        for name, content in sorted(ior_file_bytes.items()):
            (tmp_path / name).write_bytes(content)
        lean.poll()
        lean.finalize()
        assert lean.snapshot_log().n_events == 0
        assert_stats_equal(lean.statistics(),
                           batch_statistics(tmp_path))

    def test_zero_size_transfer_keeps_rate_zero_not_none(self,
                                                         tmp_path):
        """A size-0 read with positive duration is a real 0.0 B/s
        measurement, on both roads — not 'no transfers'."""
        (tmp_path / "z_h_1.st").write_bytes(
            b"1  00:00:00.000001 read(3</f>, \"\", 1024) = 0 "
            b"<0.000040>\n")
        engine = LiveIngest(tmp_path)
        engine.poll()
        engine.finalize()
        live = engine.statistics()
        assert live["read:/f"].process_data_rate == 0.0
        assert live["read:/f"].has_transfers
        assert live["read:/f"].dr_label is not None
        assert_stats_equal(live, batch_statistics(tmp_path))


class TestCheckpointStateRoundtrip:
    def test_statistics_survive_json_roundtrip_exactly(self, tmp_path,
                                                       ior_file_bytes):
        """to_state → json → from_state reproduces bit-identical
        statistics (floats round-trip via repr)."""
        engine = LiveIngest(tmp_path)
        for name, content in sorted(ior_file_bytes.items()):
            (tmp_path / name).write_bytes(content)
        engine.poll()
        engine.finalize()
        revived = StatsAccumulator.from_state(
            json.loads(json.dumps(engine.stats.to_state())))
        order = engine._case_order()
        assert_stats_equal(revived.statistics(case_order=order),
                           engine.stats.statistics(case_order=order))


class TestRenderPathIsIncremental:
    def test_watch_render_never_recomputes_batch_statistics(
            self, tmp_path, ls_file_bytes, monkeypatch):
        """The acceptance criterion: the watch render path must not
        call ``compute_statistics`` over the snapshot log anymore."""
        from repro.core.statistics import IOStatistics as StatsClass
        from repro.live.watch import WatchView

        def forbidden(self, event_log):  # pragma: no cover - trap
            raise AssertionError(
                "watch render recomputed batch statistics")

        monkeypatch.setattr(StatsClass, "compute_statistics", forbidden)
        for name, content in ls_file_bytes.items():
            (tmp_path / name).write_bytes(content)
        engine = LiveIngest(tmp_path)
        view = WatchView(engine)
        text = view.refresh(engine.poll())
        assert "Load:" in text  # statistics did render

    def test_untouched_activities_reuse_cached_views(self, tmp_path,
                                                     ls_file_bytes,
                                                     monkeypatch):
        """Idle refreshes are O(activities): with no events in
        between, re-assembly touches neither the concurrency sweep nor
        the event history."""
        import repro.core.statistics as statistics_module

        engine = LiveIngest(tmp_path)
        for name, content in ls_file_bytes.items():
            (tmp_path / name).write_bytes(content)
        engine.poll()
        first = engine.statistics()

        def forbidden(intervals):  # pragma: no cover - trap
            raise AssertionError(
                "idle refresh recomputed max_concurrency")

        monkeypatch.setattr(statistics_module, "max_concurrency_int64",
                            forbidden)
        second = engine.statistics()
        for activity in first.activities():
            assert first[activity] == second[activity]

    def test_timelines_are_point_in_time_snapshots(self, tmp_path,
                                                   ior_file_bytes):
        """Lazy timeline handles must not leak later growth: rows
        materialized after further polls still describe the poll the
        statistics were taken at — under a window too, where growth
        past the cap coarsens the very buffers a handle holds."""
        items = sorted(ior_file_bytes.items())
        for window in (None, 2):
            trace_dir = tmp_path / f"window-{window}"
            trace_dir.mkdir()
            engine = LiveIngest(trace_dir, window=window)
            for name, content in items[:3]:
                (trace_dir / name).write_bytes(content[:len(content) // 2])
            engine.poll()
            early = engine.statistics()
            expected = {a: early.timeline(a) for a in early.activities()}
            taken_late = engine.statistics()  # materialize nothing yet
            for index, (name, content) in enumerate(items):
                with open(trace_dir / name, "ab") as handle:
                    handle.write(content[len(content) // 2:]
                                 if index < 3 else content)
            engine.poll()
            for activity, rows in expected.items():
                assert taken_late.timeline(activity) == rows, \
                    (window, activity)

    def test_set_window_shrink_keeps_earlier_snapshots(self, tmp_path,
                                                       ls_file_bytes):
        """Shrinking the window coarsens into new buffers: statistics
        taken before the shrink still materialize the exact rows."""
        for name, content in ls_file_bytes.items():
            (tmp_path / name).write_bytes(content)
        engine = LiveIngest(tmp_path)
        engine.poll()
        early = engine.statistics()
        expected = {a: early.timeline(a) for a in early.activities()}
        taken_before = engine.statistics()  # materialize nothing yet
        engine.stats.set_window(2)
        shrunk = engine.statistics()
        assert any(shrunk[a].approximate for a in shrunk.activities())
        for activity, rows in expected.items():
            assert taken_before.timeline(activity) == rows, activity
