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


def _bump_self_loop(state):
    for edge in state["dfg"]["edges"]:
        if edge[0] == edge[1] == "read:/usr/lib":
            edge[2] += 100


def _bump(*keys):
    def edit(state):
        for key in keys[:-1]:
            state = state[key]
        state[keys[-1]] += 1
    return edit


def _drop_case(state):
    state["dfg"]["last"].pop("a9042")


def _move_last(state):
    state["dfg"]["last"]["a9042"] = "read:/usr/lib"


class TestLawsAtRestore:
    """A sidecar that parses and has the right shape, but whose counts
    no fold could have produced, is a located corrupt checkpoint: the
    restored graph and statistics must keep the laws every fold keeps."""

    def _checkpointed(self, tmp_path, ls_file_bytes, window) -> Path:
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        for name, content in ls_file_bytes.items():
            (trace_dir / name).write_bytes(content)
        sidecar = tmp_path / "ckpt.json"
        engine = LiveIngest(trace_dir, checkpoint=sidecar, window=window)
        engine.poll()
        engine.save_checkpoint()
        return sidecar

    @pytest.mark.parametrize("edit, message, window", [
        (_bump_self_loop,
         "activity 'read:/usr/lib' is entered 118 times, occurs 18 times "
         "and is left 118 times", None),
        (_bump("dfg", "node_freq", "read:/usr/lib"),
         "activity 'read:/usr/lib' occurs 19 times in the graph but 18 "
         "times in the statistics", None),
        # Windowed, so the activity's intervals are coarsened inline
        # and no segment interval count stands in the way.
        (_bump("stats", "activities", "write:/dev/pts", "event_count"),
         "activity 'write:/dev/pts' occurs 15 times in the graph but 16 "
         "times in the statistics", 2),
        (_bump("dfg", "node_freq", "●"),
         "activity '●' is entered 6 times, occurs 7 times and is left 6 "
         "times", None),
        (_drop_case,
         "activity '■' is entered 6 times, occurs 6 times and is left 5 "
         "times", None),
        (_move_last,
         "edge ('read:/usr/lib', '■') counts 0 but 1 case(s) end at "
         "'read:/usr/lib'", None),
    ], ids=["self-loop", "node-frequency", "statistics-count",
            "start-frequency", "case-dropped", "last-moved"])
    def test_broken_law_is_a_corrupt_checkpoint(self, tmp_path,
                                                ls_file_bytes, edit,
                                                message, window):
        sidecar = self._checkpointed(tmp_path, ls_file_bytes, window)
        LiveIngest(tmp_path / "traces", checkpoint=sidecar,
                   window=window)  # intact
        state = json.loads(sidecar.read_text())
        edit(state)
        sidecar.write_text(json.dumps(state))
        with pytest.raises(ReproError) as caught:
            LiveIngest(tmp_path / "traces", checkpoint=sidecar,
                       window=window)
        assert str(caught.value) == f"corrupt checkpoint {sidecar}: " \
                                    f"{message}"


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

    def test_corrupt_checkpoint_rejected(self, tmp_path, ls_file_bytes):
        """Not JSON, or JSON of the wrong shape: either way a located
        "corrupt checkpoint" error, never a KeyError/ValueError/
        AttributeError escaping the restore."""
        sidecar = self._checkpointed(tmp_path, ls_file_bytes)
        good = json.loads(sidecar.read_text())
        no_stats = {key: value for key, value in good.items()
                    if key != "stats"}
        bad_offset = json.loads(sidecar.read_text())
        bad_offset["files"][0]["offset"] = "abc"
        for text, detail in (
                ("{not json", "Expecting"),
                (json.dumps(no_stats), "missing key 'stats'"),
                (json.dumps(bad_offset), "abc"),
                (json.dumps([1, 2]), "list"),
                (json.dumps({"version": CHECKPOINT_VERSION}),
                 "missing key")):
            sidecar.write_text(text)
            with pytest.raises(ReproError, match="corrupt checkpoint") \
                    as caught:
                LiveIngest(tmp_path / "traces", checkpoint=sidecar)
            assert str(sidecar) in str(caught.value)
            assert detail in str(caught.value)

    @pytest.mark.parametrize(
        "version", [*range(1, CHECKPOINT_VERSION), CHECKPOINT_VERSION + 1])
    def test_other_versions_rejected(self, tmp_path, ls_file_bytes,
                                     version):
        """Only the current layout loads: an older or newer sidecar is
        never misread — the error says to delete it and re-watch."""
        sidecar = self._checkpointed(tmp_path, ls_file_bytes)
        state = json.loads(sidecar.read_text())
        state["version"] = version
        sidecar.write_text(json.dumps(state))
        with pytest.raises(ReproError, match="delete the sidecar"):
            LiveIngest(tmp_path / "traces", checkpoint=sidecar)

    def test_v1_sidecar_rejected_with_rebuild_hint(self, tmp_path,
                                                   ls_file_bytes):
        """Pre-statistics sidecars cannot be silently misread — the
        missing ``stats`` key must not turn the version error into a
        corrupt-checkpoint one; the error says to delete and re-watch."""
        sidecar = self._checkpointed(tmp_path, ls_file_bytes)
        state = json.loads(sidecar.read_text())
        state["version"] = 1
        del state["stats"]
        sidecar.write_text(json.dumps(state))
        with pytest.raises(ReproError, match="delete the sidecar"):
            LiveIngest(tmp_path / "traces", checkpoint=sidecar)


class TestOldFormatsRefused:
    """A sidecar or emit journal of an older layout is never read: each
    is refused with the delete-and-re-watch message naming the file,
    and no engine is built from it."""

    HEAD = (b"100  10:00:00.000000 close(3</a>) = 0 <0.000001>\n"
            b"100  10:00:00.000001 read(3</a>, <unfinished ...>\n"
            b"200  10:00:00.000002 write(4</b>, ..., 5) = 5 <0.000010>\n")

    def _watched(self, tmp_path) -> tuple[Path, Path, Path]:
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        (trace_dir / "mix_host1_1.st").write_bytes(self.HEAD)
        sidecar = tmp_path / "watch.ckpt.json"
        elog = tmp_path / "run.elog"
        engine = LiveIngest(trace_dir, keep_records=False, emit=elog,
                            checkpoint=sidecar)
        engine.poll()  # close sealed + journaled; write held back
        engine.save_checkpoint()
        engine.close()
        return trace_dir, sidecar, elog

    def test_v8_sidecar_is_refused(self, tmp_path):
        trace_dir, sidecar, elog = self._watched(tmp_path)
        state = json.loads(sidecar.read_text())
        assert state["version"] == CHECKPOINT_VERSION == 9
        state["version"] = 8
        sidecar.write_text(json.dumps(state))
        with pytest.raises(ReproError, match="delete the sidecar") \
                as caught:
            LiveIngest(trace_dir, keep_records=False, emit=elog,
                       checkpoint=sidecar)
        assert f"version 8 in {sidecar}" in str(caught.value)

    def test_json_lines_journal_is_refused(self, tmp_path):
        """The journal of an older build — one sort-keyed JSON line per
        case per poll — behind a current sidecar."""
        trace_dir, sidecar, elog = self._watched(tmp_path)
        journal = elog.with_name(elog.name + ".journal")
        line = json.dumps(
            {"cid": "mix", "host": "host1", "rid": 1,
             "records": [{"call": "close", "dur_us": 1, "errno": None,
                          "fp": "/a", "pid": 100, "size": None,
                          "start_us": 36000000000}]},
            sort_keys=True, separators=(",", ":")) + "\n"
        journal.write_text(line)
        state = json.loads(sidecar.read_text())
        state["emit_offset"] = len(line)
        sidecar.write_text(json.dumps(state))
        with pytest.raises(ReproError, match="re-watch") as caught:
            LiveIngest(trace_dir, keep_records=False, emit=elog,
                       checkpoint=sidecar)
        message = str(caught.value)
        assert f"corrupt emit journal {journal}" in message
        assert "format-3 header" in message
        assert "delete both" in message

