"""Checkpoint sidecars: kill the watcher, restart, same final DFG."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro._util.errors import ReproError
from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import CallOnly, CallTopDirs
from repro.live.checkpoint import CHECKPOINT_VERSION
from repro.live.engine import LiveIngest

MAPPING = CallTopDirs(levels=2)


def batch_dfg(directory: Path) -> DFG:
    log = EventLog.from_source(directory, workers=1)
    return DFG(log.with_mapping(MAPPING))


def grow(directory: Path, filename: str, chunk: bytes) -> None:
    with open(directory / filename, "ab") as handle:
        handle.write(chunk)


class TestRestart:
    def test_restart_mid_directory_same_final_dfg(self, tmp_path,
                                                  ior_file_bytes):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        sidecar = tmp_path / "watch.ckpt.json"
        items = sorted(ior_file_bytes.items())

        engine = LiveIngest(trace_dir, checkpoint=sidecar)
        # First life: half of each of the first two files — offsets,
        # carries and (typically) in-flight unfinished calls all live
        # in the checkpoint.
        for name, content in items[:2]:
            grow(trace_dir, name, content[: len(content) // 2 + 13])
        engine.poll()
        engine.save_checkpoint()
        events_before = engine.total_events
        del engine

        # Second life: resumes from the sidecar, never re-reads the
        # consumed prefix.
        revived = LiveIngest(trace_dir, checkpoint=sidecar)
        assert revived.total_events == events_before
        offsets = {tail.path.name: tail.offset
                   for tail in revived._tails.values()}
        for name, content in items:
            grow(trace_dir, name,
                 content[offsets.get(name, 0):])
        revived.poll()
        revived.finalize()
        assert revived.snapshot_dfg() == batch_dfg(trace_dir)

    def test_restart_equals_uninterrupted_run(self, tmp_path,
                                              ior_file_bytes):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        sidecar = tmp_path / "ckpt.json"
        items = sorted(ior_file_bytes.items())

        straight = LiveIngest(trace_dir)
        interrupted = LiveIngest(trace_dir, checkpoint=sidecar)
        for step, (name, content) in enumerate(items):
            grow(trace_dir, name, content)
            straight.poll()
            interrupted.poll()
            interrupted.save_checkpoint()
            if step == 1:  # kill + revive mid-directory
                interrupted = LiveIngest(trace_dir, checkpoint=sidecar)
        straight.finalize()
        interrupted.finalize()
        assert interrupted.snapshot_dfg() == straight.snapshot_dfg()

    def test_checkpoint_is_json_and_atomic(self, tmp_path,
                                           ls_file_bytes):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        sidecar = tmp_path / "ckpt.json"
        name, content = next(iter(ls_file_bytes.items()))
        (trace_dir / name).write_bytes(content)
        engine = LiveIngest(trace_dir, checkpoint=sidecar)
        engine.poll()
        engine.save_checkpoint()
        state = json.loads(sidecar.read_text())
        assert state["version"] == CHECKPOINT_VERSION
        assert state["files"][0]["path"] == name
        assert "stats" in state
        assert state["alerts"] == {"rules": {}, "history": []}
        assert not sidecar.with_name(sidecar.name + ".tmp").exists()

    def test_save_without_path_is_an_error(self, tmp_path):
        with pytest.raises(ReproError, match="no checkpoint path"):
            LiveIngest(tmp_path).save_checkpoint()


class TestGuards:
    def _checkpointed(self, tmp_path, ls_file_bytes) -> Path:
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        sidecar = tmp_path / "ckpt.json"
        name, content = next(iter(ls_file_bytes.items()))
        (trace_dir / name).write_bytes(content)
        engine = LiveIngest(trace_dir, checkpoint=sidecar)
        engine.poll()
        engine.save_checkpoint()
        return sidecar

    def test_mapping_mismatch_rejected(self, tmp_path, ls_file_bytes):
        sidecar = self._checkpointed(tmp_path, ls_file_bytes)
        with pytest.raises(ReproError, match="mapping"):
            LiveIngest(tmp_path / "traces", mapping=CallOnly(),
                       checkpoint=sidecar)

    def test_strictness_mismatch_rejected(self, tmp_path,
                                          ls_file_bytes):
        sidecar = self._checkpointed(tmp_path, ls_file_bytes)
        with pytest.raises(ReproError, match="strict"):
            LiveIngest(tmp_path / "traces", strict=False,
                       checkpoint=sidecar)

    def test_cids_filter_mismatch_rejected(self, tmp_path,
                                           ls_file_bytes):
        """Restarting with a different cid filter would fold cases the
        checkpointed graph never saw (or drop ones it has)."""
        sidecar = self._checkpointed(tmp_path, ls_file_bytes)
        with pytest.raises(ReproError, match="cids"):
            LiveIngest(tmp_path / "traces", cids={"a"},
                       checkpoint=sidecar)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        sidecar = tmp_path / "ckpt.json"
        sidecar.write_text("{not json")
        with pytest.raises(ReproError, match="corrupt"):
            LiveIngest(tmp_path, checkpoint=sidecar)

    def test_version_mismatch_rejected(self, tmp_path, ls_file_bytes):
        sidecar = self._checkpointed(tmp_path, ls_file_bytes)
        state = json.loads(sidecar.read_text())
        state["version"] = 999
        sidecar.write_text(json.dumps(state))
        with pytest.raises(ReproError, match="version"):
            LiveIngest(tmp_path / "traces", checkpoint=sidecar)

    def test_v1_sidecar_rejected_with_rebuild_hint(self, tmp_path,
                                                   ls_file_bytes):
        """Pre-statistics sidecars cannot be silently misread as v2 —
        the error says to delete and re-watch."""
        sidecar = self._checkpointed(tmp_path, ls_file_bytes)
        state = json.loads(sidecar.read_text())
        state["version"] = 1
        del state["stats"]
        sidecar.write_text(json.dumps(state))
        with pytest.raises(ReproError,
                           match="delete the sidecar"):
            LiveIngest(tmp_path / "traces", checkpoint=sidecar)


class TestRecordFormat:
    """Sidecars and emit journals written while records still carried
    ``args``/``retval``/``requested`` keep restoring: loaders read only
    the seven record fields."""

    HEAD = (b"100  10:00:00.000000 close(3</a>) = 0 <0.000001>\n"
            b"100  10:00:00.000001 read(3</a>, <unfinished ...>\n"
            b"200  10:00:00.000002 write(4</b>, ..., 5) = 5 <0.000010>\n")
    TAIL = (b"100  10:00:00.000900 <... read resumed> ..., 20) = 20 "
            b"<0.000899>\n"
            b"200  10:00:00.001000 close(4</b>) = 0 <0.000001>\n")
    OLD_KEYS = {"args": ["4</b>", "...", "5"], "retval": 5,
                "requested": 5}

    def test_old_record_keys_restore_byte_identically(self, tmp_path):
        from repro.elstore.convert import convert_source

        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        sidecar = tmp_path / "watch.ckpt.json"
        elog = tmp_path / "run.elog"
        journal = elog.with_name(elog.name + ".journal")
        trace = trace_dir / "mix_host1_1.st"
        trace.write_bytes(self.HEAD)

        engine = LiveIngest(trace_dir, keep_records=False, emit=elog,
                            checkpoint=sidecar)
        engine.poll()  # close sealed + journaled; write held back
        engine.save_checkpoint()
        del engine

        lines = []
        for line in journal.read_text().splitlines():
            entry = json.loads(line)
            entry["records"] = [{**record, **self.OLD_KEYS}
                                for record in entry["records"]]
            lines.append(json.dumps(entry, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        journal.write_text("".join(lines))
        state = json.loads(sidecar.read_text())
        (tail_state,) = state["files"]
        assert tail_state["buffer"], "the write must be held back"
        for entry in tail_state["buffer"]:
            entry[1].update(self.OLD_KEYS)
        state["emit_offset"] = journal.stat().st_size
        sidecar.write_text(json.dumps(state))

        revived = LiveIngest(trace_dir, keep_records=False, emit=elog,
                             checkpoint=sidecar)
        grow(trace_dir, trace.name, self.TAIL)
        revived.poll()
        revived.finalize()
        revived.pack_emit()
        batch = tmp_path / "batch.elog"
        convert_source(trace_dir, batch, workers=1)
        assert elog.read_bytes() == batch.read_bytes()
        assert revived.snapshot_dfg() == batch_dfg(trace_dir)
