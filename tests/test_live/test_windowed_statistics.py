"""Windowed (bounded-memory) statistics vs the exact accumulators.

``LiveIngest(window=N)`` / ``watch --window N`` caps every per-case
interval buffer at N entries by merging adjacent intervals. The
contract, hypothesis-pinned here:

- when no buffer ever exceeds the window, windowed output is
  **field-identical** to unwindowed (coarsening never ran);
- when coarsening does run, every *scalar* statistic — event count,
  durations, bytes, Load, the Eq. 13 mean data rate — stays
  **bit-identical** to the exact road (the rates fold through the same
  exact partial sums either way); only ``max_concurrency`` and the
  Eq. 15 timeline degrade, to an upper bound / merged rows, and the
  result says so via ``approximate`` (rendered as ``DR: ~Nx...``);
- the windowed state survives checkpoint roundtrips bit-identically.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util.errors import ReproError
from repro.core.statistics import StatsAccumulator
from repro.live.engine import LiveIngest

from test_statistics_live import (  # noqa: E402 - suite-local helpers
    _replay,
    assert_stats_equal,
    batch_statistics,
)

#: Growth schedule, as in test_statistics_live.
steps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=1, max_value=100),
              st.booleans()),
    min_size=1, max_size=30)


def assert_scalars_bit_identical(windowed, exact) -> None:
    """Every ActivityStats field except the concurrency-derived ones
    must match bit-for-bit; ``max_concurrency`` may only go up."""
    assert windowed.activities() == exact.activities()
    assert windowed.total_duration_us == exact.total_duration_us
    for activity in exact.activities():
        w, e = windowed[activity], exact[activity]
        assert w.event_count == e.event_count, activity
        assert w.total_dur_us == e.total_dur_us, activity
        assert w.relative_duration == e.relative_duration, activity
        assert w.total_bytes == e.total_bytes, activity
        assert w.has_transfers == e.has_transfers, activity
        assert w.process_data_rate == e.process_data_rate, activity
        assert w.ranks == e.ranks and w.cases == e.cases, activity
        assert w.max_concurrency >= e.max_concurrency, activity


class TestWindowNeverExceeded:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(schedule=steps)
    def test_huge_window_is_field_identical_to_exact(self, schedule,
                                                     ior_file_bytes):
        """A window no buffer reaches must be a no-op: field-exact
        equality with batch, `approximate` never set."""
        with tempfile.TemporaryDirectory() as scratch:
            live_dir = Path(scratch)
            engine = _replay(ior_file_bytes, schedule,
                             live_dir=live_dir,
                             engine=LiveIngest(live_dir, window=10_000))
            computed = engine.statistics()
            assert_stats_equal(computed, batch_statistics(live_dir))
            assert not any(computed[a].approximate
                           for a in computed.activities())


class TestWindowExceeded:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(schedule=steps,
           window=st.integers(min_value=2, max_value=8))
    def test_scalars_stay_bit_identical(self, schedule, window,
                                        ior_file_bytes):
        with tempfile.TemporaryDirectory() as scratch:
            live_dir = Path(scratch)
            engine = _replay(ior_file_bytes, schedule,
                             live_dir=live_dir,
                             engine=LiveIngest(live_dir, window=window))
            assert_scalars_bit_identical(engine.statistics(),
                                         batch_statistics(live_dir))

    def test_coarsened_activity_is_marked_approximate(self, tmp_path,
                                                      ior_file_bytes):
        for name, content in ior_file_bytes.items():
            (tmp_path / name).write_bytes(content)
        engine = LiveIngest(tmp_path, window=2)
        engine.poll()
        engine.finalize()
        computed = engine.statistics()
        coarse = [a for a in computed.activities()
                  if computed[a].approximate]
        assert coarse, "window=2 over an IOR run must coarsen"
        # The render contract: approximate concurrency carries a '~'.
        marked = [a for a in coarse
                  if computed[a].dr_label is not None]
        assert all("~" in computed[a].dr_label for a in marked)
        assert marked, "some coarse activity has a data rate"

    def test_buffers_stay_bounded(self, tmp_path, ior_file_bytes):
        window = 4
        for name, content in ior_file_bytes.items():
            (tmp_path / name).write_bytes(content)
        engine = LiveIngest(tmp_path, window=window)
        engine.poll()
        engine.finalize()
        for acc in engine.stats._activities.values():
            for case, buffer in acc._case_timelines.items():
                assert len(buffer) // 2 <= window, (acc.activity, case)


class TestWindowedCheckpoints:
    def test_windowed_state_roundtrips_exactly(self, tmp_path,
                                               ior_file_bytes):
        for name, content in ior_file_bytes.items():
            (tmp_path / name).write_bytes(content)
        engine = LiveIngest(tmp_path, window=4)
        engine.poll()
        engine.finalize()
        revived = StatsAccumulator.from_state(
            json.loads(json.dumps(engine.stats.to_state())), window=4)
        order = engine._case_order()
        assert_stats_equal(revived.statistics(case_order=order),
                           engine.stats.statistics(case_order=order))

    def test_window_applies_to_restored_unwindowed_sidecar(
            self, tmp_path, ior_file_bytes):
        """Resuming an unwindowed checkpoint *with* a window coarsens
        the oversized buffers on load — scalars still exact."""
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        for name, content in ior_file_bytes.items():
            (trace_dir / name).write_bytes(content)
        sidecar = tmp_path / "ckpt.json"
        first = LiveIngest(trace_dir, checkpoint=sidecar)
        first.poll()
        first.save_checkpoint()
        revived = LiveIngest(trace_dir, checkpoint=sidecar, window=3)
        for acc in revived.stats._activities.values():
            for buffer in acc._case_timelines.values():
                assert len(buffer) // 2 <= 3
        assert_scalars_bit_identical(revived.statistics(),
                                     first.statistics())

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(schedule=steps,
           restart_after=st.integers(min_value=0, max_value=29))
    def test_kill_restart_keeps_scalars_exact(self, schedule,
                                              restart_after,
                                              ior_file_bytes):
        with tempfile.TemporaryDirectory() as scratch:
            live_dir = Path(scratch) / "traces"
            live_dir.mkdir()
            sidecar = Path(scratch) / "ckpt.json"
            engine = LiveIngest(live_dir, checkpoint=sidecar, window=4)
            names = sorted(ior_file_bytes)
            offsets = {name: 0 for name in names}
            for step_index, (file_index, percent, poll) \
                    in enumerate(schedule):
                name = names[file_index % len(names)]
                content = ior_file_bytes[name]
                remaining = len(content) - offsets[name]
                chunk = max(1, remaining * percent // 100) \
                    if remaining else 0
                if chunk:
                    with open(live_dir / name, "ab") as handle:
                        handle.write(
                            content[offsets[name]:offsets[name] + chunk])
                    offsets[name] += chunk
                if poll:
                    engine.poll()
                if step_index == min(restart_after, len(schedule) - 1):
                    engine.save_checkpoint()
                    engine = LiveIngest(live_dir, checkpoint=sidecar,
                                        window=4)
            for name in names:
                tail = ior_file_bytes[name][offsets[name]:]
                if tail:
                    with open(live_dir / name, "ab") as handle:
                        handle.write(tail)
            engine.poll()
            engine.finalize()
            assert_scalars_bit_identical(engine.statistics(),
                                         batch_statistics(live_dir))


class TestValidation:
    def test_window_below_two_rejected_by_accumulator(self):
        with pytest.raises(ValueError, match="window"):
            StatsAccumulator(window=1)

    def test_window_below_two_rejected_by_engine(self, tmp_path):
        with pytest.raises(ReproError, match="window"):
            LiveIngest(tmp_path, window=1)

    def test_cli_rejects_bad_window(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["watch", str(tmp_path), "--once", "--window", "1"])
        assert excinfo.value.code == 2
        assert "must be >= 2" in capsys.readouterr().err
