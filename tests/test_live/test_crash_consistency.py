"""Checkpoint durability: a kill at *any* instant of a save leaves a
loadable sidecar.

``save_checkpoint`` appends the new intervals to the segment and
fsyncs it, writes a temp file, fsyncs it, ``os.replace``s it over the
target, then fsyncs the directory entry. These tests kill the
writer at every step boundary (by making the step raise, which aborts
the save exactly where a SIGKILL would) and assert the invariant: the
sidecar on disk is always one of the two *complete* states — never
torn, never empty — and a fresh engine restores from it. A stale
``.tmp`` left by a kill between write and replace is cleaned on load.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro._util.errors import ReproError
from repro.live import checkpoint as checkpoint_module
from repro.live.engine import LiveIngest
from tests.faultinject import CHECKPOINT_KILL_POINTS, kill_checkpoint_at


def _grown(tmp_path: Path, ls_file_bytes) -> tuple[Path, Path]:
    """A trace dir with the first half of the files, checkpointed."""
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    items = sorted(ls_file_bytes.items())
    for name, content in items[:3]:
        (trace_dir / name).write_bytes(content)
    sidecar = tmp_path / "ckpt.json"
    engine = LiveIngest(trace_dir, checkpoint=sidecar)
    engine.poll()
    engine.save_checkpoint()
    for name, content in items[3:]:
        (trace_dir / name).write_bytes(content)
    return trace_dir, sidecar


#: Which os-level step of save_checkpoint the simulated kill hits
#: (re-exported so parametrized ids read locally; the harness lives in
#: ``tests/faultinject.py``).
KILL_POINTS = CHECKPOINT_KILL_POINTS
_kill_at = kill_checkpoint_at


class TestKillDuringSave:
    @pytest.mark.parametrize("point", KILL_POINTS)
    def test_sidecar_is_always_a_complete_state(self, tmp_path,
                                                ls_file_bytes,
                                                monkeypatch, point):
        trace_dir, sidecar = _grown(tmp_path, ls_file_bytes)
        old_state = json.loads(sidecar.read_text())
        engine = LiveIngest(trace_dir, checkpoint=sidecar)
        engine.poll()  # absorb the new files
        new_state = checkpoint_module.engine_state(engine)
        with monkeypatch.context() as patched:
            _kill_at(patched, point)
            with pytest.raises(OSError):
                engine.save_checkpoint()
        # Invariant: the surviving sidecar parses and equals one of
        # the two complete states (which one depends on the point).
        survivor = json.loads(sidecar.read_text())
        assert survivor in (old_state, new_state)
        if point == "dir_fsync":  # replace happened; only the dir
            assert survivor == new_state  # fsync was lost
        else:
            assert survivor == old_state
        # And a fresh life restores from it without complaint.
        revived = LiveIngest(trace_dir, checkpoint=sidecar)
        assert revived.total_events == survivor["total_events"]

    @pytest.mark.parametrize("point", KILL_POINTS)
    def test_next_save_recovers(self, tmp_path, ls_file_bytes,
                                monkeypatch, point):
        """After an aborted save, the *next* save (same process or a
        revived one) lands the full new state."""
        trace_dir, sidecar = _grown(tmp_path, ls_file_bytes)
        engine = LiveIngest(trace_dir, checkpoint=sidecar)
        engine.poll()
        with monkeypatch.context() as patched:
            _kill_at(patched, point)
            with pytest.raises(OSError):
                engine.save_checkpoint()
        engine.save_checkpoint()  # unpatched: succeeds
        state = json.loads(sidecar.read_text())
        assert state["total_events"] == engine.total_events
        assert not sidecar.with_name(sidecar.name + ".tmp").exists()


class TestStaleTempCleanup:
    def test_stale_tmp_is_removed_on_load(self, tmp_path,
                                          ls_file_bytes):
        trace_dir, sidecar = _grown(tmp_path, ls_file_bytes)
        stale = sidecar.with_name(sidecar.name + ".tmp")
        stale.write_text("{torn garbage")  # kill between write+replace
        revived = LiveIngest(trace_dir, checkpoint=sidecar)
        assert revived.total_events > 0  # loaded the sidecar proper
        assert not stale.exists()

    def test_corrupt_sidecar_still_names_itself(self, tmp_path):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        sidecar = tmp_path / "ckpt.json"
        sidecar.write_text("{not json")
        with pytest.raises(ReproError, match="corrupt checkpoint"):
            LiveIngest(trace_dir, checkpoint=sidecar)


class TestDurabilitySteps:
    def test_save_fsyncs_temp_and_directory(self, tmp_path,
                                            ls_file_bytes,
                                            monkeypatch):
        """The save path really performs all three fsyncs, in order:
        the segment's, then the temp file's, strictly before replace,
        and the directory's strictly after."""
        trace_dir, sidecar = _grown(tmp_path, ls_file_bytes)
        engine = LiveIngest(trace_dir, checkpoint=sidecar)
        engine.poll()
        calls: list = []
        real_fsync, real_replace = os.fsync, os.replace

        def traced_fsync(fd):
            calls.append(os.fstat(fd).st_ino)
            return real_fsync(fd)

        def traced_replace(src, dst):
            calls.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(checkpoint_module.os, "fsync", traced_fsync)
        monkeypatch.setattr(checkpoint_module.os, "replace",
                            traced_replace)
        engine.save_checkpoint()
        # The temp file's inode is the sidecar's once replaced.
        files = {
            checkpoint_module.segment_path(sidecar).stat().st_ino:
                "segment fsync",
            sidecar.stat().st_ino: "temp fsync",
            sidecar.parent.stat().st_ino: "directory fsync"}
        assert [files.get(call, call) for call in calls] == [
            "segment fsync", "temp fsync", "replace", "directory fsync"]
