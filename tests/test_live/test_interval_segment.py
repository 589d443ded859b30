"""The checkpoint's interval segment: O(delta) saves, exact restores.

The interval buffers of activities never coarsened live in an
append-only ``<sidecar>.intervals`` segment; the sidecar records its
durable length and name table. These tests pin the layout (the sidecar
holds no exact intervals; coarsened buffers stay inline), the cost
(saves 10 and 50 of a growing replay write sidecar bytes independent of
the event count, and a segment delta linear in the new intervals), the
restore discipline (bytes past the recorded length are cut; a short or
malformed segment is a located ``corrupt checkpoint`` error) and the
segment's ownership (a fresh watch deletes a leftover one; a save
elsewhere writes a complete one).
"""

from __future__ import annotations

import json
import struct
import tempfile
from pathlib import Path

import pytest

from repro._util.errors import ReproError
from repro.cli import main
from repro.live.checkpoint import segment_path
from repro.live.engine import LiveIngest
from tests.emit_oracle import assert_stats_equal

SLICES = 60


@pytest.fixture(scope="module")
def replay_bytes() -> dict[str, bytes]:
    """An IOR run of 8 ranks — 8 files, ~2.5k lines, 30% of calls split
    into unfinished/resumed pairs."""
    from repro.simulate.strace_writer import (EXPERIMENT_A_CALLS,
                                              write_trace_files)
    from repro.simulate.workloads.ior import IORConfig, simulate_ior

    result = simulate_ior(IORConfig(ranks=8, ranks_per_node=2,
                                    segments=6, cid="ior", seed=424))
    with tempfile.TemporaryDirectory() as scratch:
        paths = write_trace_files(result.recorders, scratch,
                                  trace_calls=EXPERIMENT_A_CALLS,
                                  unfinished_probability=0.3, seed=11)
        return {path.name: path.read_bytes() for path in paths}


def _slices(file_bytes: dict[str, bytes]):
    """Per poll, what every file gains: its next 1/SLICES by bytes."""
    for k in range(SLICES):
        yield {name: data[len(data) * k // SLICES:
                          len(data) * (k + 1) // SLICES]
               for name, data in sorted(file_bytes.items())}


def _append(directory: Path, parts: dict[str, bytes]) -> None:
    for name, chunk in parts.items():
        with open(directory / name, "ab") as handle:
            handle.write(chunk)


def _watched(tmp_path: Path, file_bytes, polls: int, **options):
    """An engine that polled and saved after each of the first
    ``polls`` slices."""
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    sidecar = tmp_path / "ckpt.json"
    engine = LiveIngest(trace_dir, checkpoint=sidecar, **options)
    for _, parts in zip(range(polls), _slices(file_bytes)):
        _append(trace_dir, parts)
        engine.poll()
        engine.save_checkpoint()
    return engine, sidecar


def _buffers(engine: LiveIngest) -> dict:
    return {(activity, case): bytes(buffer)
            for activity, acc in engine.stats._activities.items()
            for case, buffer in acc._case_timelines.items()}


class TestLayout:
    def test_sidecar_keeps_no_exact_intervals(self, tmp_path,
                                              replay_bytes):
        engine, sidecar = _watched(tmp_path, replay_bytes, 20)
        state = json.loads(sidecar.read_text())
        activities = state["stats"]["activities"]
        assert activities
        assert not any("cases" in acc for acc in activities.values())
        segment = segment_path(sidecar)
        assert segment.name == "ckpt.json.intervals"
        assert state["segment"]["length"] == segment.stat().st_size
        assert set(activities) <= set(state["segment"]["names"])

    def test_restore_rebuilds_every_buffer(self, tmp_path,
                                           replay_bytes):
        engine, sidecar = _watched(tmp_path, replay_bytes, 25)
        revived = LiveIngest(tmp_path / "traces", checkpoint=sidecar)
        assert _buffers(revived) == _buffers(engine)
        order = engine._case_order()
        assert_stats_equal(revived.stats.statistics(case_order=order),
                           engine.stats.statistics(case_order=order))

    def test_coarsened_buffers_stay_inline(self, tmp_path, replay_bytes):
        engine, sidecar = _watched(tmp_path, replay_bytes, 25, window=4)
        activities = json.loads(sidecar.read_text())["stats"][
            "activities"]
        coarse = {activity for activity, acc in activities.items()
                  if acc["approximate"]}
        assert coarse and coarse != set(activities)
        assert {activity for activity, acc in activities.items()
                if "cases" in acc} == coarse
        # Their blocks from before the coarsening are dead bytes.
        revived = LiveIngest(tmp_path / "traces", checkpoint=sidecar,
                             window=4)
        assert _buffers(revived) == _buffers(engine)

    def test_restart_equals_no_restart(self, tmp_path, replay_bytes):
        """Killed and revived every 7 polls: same buffers, statistics,
        sidecar and segment bytes as the uninterrupted watch."""
        lives = {}
        for label, every in (("straight", None), ("restarted", 7)):
            trace_dir = tmp_path / label / "traces"
            trace_dir.mkdir(parents=True)
            sidecar = tmp_path / label / "ckpt.json"
            engine = LiveIngest(trace_dir, checkpoint=sidecar)
            for k, parts in enumerate(_slices(replay_bytes)):
                _append(trace_dir, parts)
                engine.poll()
                engine.save_checkpoint()
                if every and k % every == every - 1:
                    engine = LiveIngest(trace_dir, checkpoint=sidecar)
            lives[label] = (engine, sidecar)
        (straight, first), (restarted, second) = lives.values()
        assert _buffers(restarted) == _buffers(straight)
        assert_stats_equal(restarted.statistics(), straight.statistics())
        assert second.read_bytes() == first.read_bytes()
        assert segment_path(second).read_bytes() == \
            segment_path(first).read_bytes()


class TestSaveCost:
    def test_saves_10_and_50_write_o_delta_bytes(self, tmp_path,
                                                 replay_bytes):
        """Each save rewrites a sidecar whose size tracks files,
        activities and edges — not events — and appends at most 28
        bytes per new interval to the segment (16 for the pair, 12
        for a block header, at most one per interval). Saving every
        interval in the sidecar instead costs ~21 bytes of base64 per
        interval of the whole history at every save."""
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        sidecar = tmp_path / "ckpt.json"
        segment = segment_path(sidecar)
        engine = LiveIngest(trace_dir, checkpoint=sidecar)
        seen = {}
        intervals = size = 0
        for save, parts in enumerate(_slices(replay_bytes), start=1):
            _append(trace_dir, parts)
            engine.poll()
            engine.save_checkpoint()
            new = engine.stats.n_buffered_intervals() - intervals
            delta = segment.stat().st_size - size
            intervals += new
            size += delta
            assert 16 * new <= delta <= 28 * new, (save, new, delta)
            if save in (10, 50):
                files, activities, edges = (
                    len(engine._tails), len(engine.stats),
                    engine.incremental.n_edges)
                sidecar_bytes = sidecar.stat().st_size
                assert sidecar_bytes <= \
                    600 * files + 300 * activities + 100 * edges, \
                    (save, sidecar_bytes, files, activities, edges)
                seen[save] = (sidecar_bytes / (files + activities + edges),
                              intervals)
        (early, intervals_10), (late, intervals_50) = seen[10], seen[50]
        assert intervals_50 > 4 * intervals_10
        # Per file, activity and edge, the sidecar does not grow with
        # the events.
        assert late <= early, (early, late)


class TestRestoreDiscipline:
    def test_bytes_past_recorded_length_are_cut(self, tmp_path,
                                                replay_bytes):
        """A save killed after its segment append but before its
        sidecar landed leaves bytes the sidecar does not record."""
        engine, sidecar = _watched(tmp_path, replay_bytes, 12)
        segment = segment_path(sidecar)
        recorded = segment.stat().st_size
        with open(segment, "ab") as handle:
            handle.write(b"\x07" * 29)
        revived = LiveIngest(tmp_path / "traces", checkpoint=sidecar)
        assert segment.stat().st_size == recorded
        assert _buffers(revived) == _buffers(engine)

    def test_segment_cut_behind_a_running_watch(self, tmp_path,
                                                replay_bytes):
        """Appending after a segment shorter than the sidecar records
        would misplace every later block: the save refuses."""
        engine, sidecar = _watched(tmp_path, replay_bytes, 5)
        segment_path(sidecar).unlink()
        _append(tmp_path / "traces", list(_slices(replay_bytes))[5])
        engine.poll()
        with pytest.raises(ReproError, match="cut behind the watch"):
            engine.save_checkpoint()

    def test_fresh_watch_deletes_a_leftover_segment(self, tmp_path,
                                                    replay_bytes):
        _, sidecar = _watched(tmp_path, replay_bytes, 5)
        sidecar.unlink()
        LiveIngest(tmp_path / "traces", checkpoint=sidecar)
        assert not segment_path(sidecar).exists()

    def test_save_elsewhere_writes_a_complete_segment(self, tmp_path,
                                                      replay_bytes):
        engine, _ = _watched(tmp_path, replay_bytes, 15)
        copy = tmp_path / "copy" / "snapshot.json"
        copy.parent.mkdir()
        engine.save_checkpoint(copy)
        assert segment_path(copy).exists()
        revived = LiveIngest(tmp_path / "traces", checkpoint=copy)
        assert _buffers(revived) == _buffers(engine)
        # The engine's own segment keeps appending where it was.
        own_size = segment_path(engine.checkpoint_path).stat().st_size
        engine.save_checkpoint()
        assert segment_path(engine.checkpoint_path).stat().st_size \
            == own_size


class TestCorruptSegment:
    @staticmethod
    def _restore_error(tmp_path, sidecar) -> str:
        with pytest.raises(ReproError, match="corrupt checkpoint") \
                as caught:
            LiveIngest(tmp_path / "traces", checkpoint=sidecar)
        message = str(caught.value)
        assert message.startswith(f"corrupt checkpoint {sidecar}: ")
        assert str(segment_path(sidecar)) in message
        return message

    def test_segment_shorter_than_recorded(self, tmp_path,
                                           replay_bytes):
        _, sidecar = _watched(tmp_path, replay_bytes, 10)
        segment = segment_path(sidecar)
        size = segment.stat().st_size
        with open(segment, "r+b") as handle:
            handle.truncate(size - 1)
        message = self._restore_error(tmp_path, sidecar)
        assert f"fewer than the {size}" in message

    def test_missing_segment(self, tmp_path, replay_bytes):
        _, sidecar = _watched(tmp_path, replay_bytes, 10)
        segment_path(sidecar).unlink()
        assert "holds 0 bytes" in self._restore_error(tmp_path, sidecar)

    def test_block_names_an_unknown_name_index(self, tmp_path,
                                               replay_bytes):
        _, sidecar = _watched(tmp_path, replay_bytes, 10)
        segment = segment_path(sidecar)
        data = bytearray(segment.read_bytes())
        struct.pack_into("<I", data, 4, 999)  # first block's case
        segment.write_bytes(bytes(data))
        message = self._restore_error(tmp_path, sidecar)
        assert "the block at byte 0 names index 999" in message

    def test_block_runs_past_recorded_length(self, tmp_path,
                                             replay_bytes):
        _, sidecar = _watched(tmp_path, replay_bytes, 10)
        state = json.loads(sidecar.read_text())
        state["segment"]["length"] -= 8
        sidecar.write_text(json.dumps(state))
        message = self._restore_error(tmp_path, sidecar)
        assert "runs past the recorded length" in message

    def test_intervals_disagreeing_with_event_counts(self, tmp_path,
                                                     replay_bytes):
        _, sidecar = _watched(tmp_path, replay_bytes, 10)
        state = json.loads(sidecar.read_text())
        activity = sorted(state["stats"]["activities"])[0]
        state["stats"]["activities"][activity]["event_count"] += 1
        sidecar.write_text(json.dumps(state))
        message = self._restore_error(tmp_path, sidecar)
        assert "but the sidecar counts" in message

    def test_watch_exits_2_on_a_truncated_segment(self, tmp_path,
                                                  ls_file_bytes,
                                                  capsys):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        for name, content in ls_file_bytes.items():
            (trace_dir / name).write_bytes(content)
        sidecar = tmp_path / "ckpt.json"
        watch = ["watch", str(trace_dir), "--once", "--no-dfg",
                 "--checkpoint", str(sidecar)]
        assert main(watch) == 0
        segment = segment_path(sidecar)
        with open(segment, "r+b") as handle:
            handle.truncate(segment.stat().st_size // 2)
        capsys.readouterr()
        assert main(watch) == 2
        err = capsys.readouterr().err
        assert f"corrupt checkpoint {sidecar}" in err
        assert "Traceback" not in err
