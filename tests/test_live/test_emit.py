"""``watch --emit``: the packed ``.elog`` is byte-identical to batch.

The durable journal + checkpoint-offset contract
(:mod:`repro.live.emit`): after any poll schedule and any number of
kill/restart cycles, packing the journal produces the same *bytes* as
``convert`` over the final directory — same columns, same global
string pools, same order. Plus the failure modes: a missing parent
directory fails fast at construction, a checkpoint that predates
``--emit`` refuses to resume with it, and a journal that shrank behind
the checkpoint is an error instead of silent data loss.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro._util.errors import ReproError
from repro.elstore.convert import convert_source
from repro.fleet import FleetScheduler, WatchJob
from repro.live.engine import LiveIngest


def _write_all(directory: Path, file_bytes: dict[str, bytes]) -> None:
    for filename, content in file_bytes.items():
        (directory / filename).write_bytes(content)


def _batch_elog(tmp_path: Path, trace_dir: Path) -> bytes:
    dest = tmp_path / "batch.elog"
    convert_source(trace_dir, dest, workers=1)
    return dest.read_bytes()


class TestByteIdentity:
    def test_single_poll_pack_equals_batch_convert(self, tmp_path,
                                                   ls_file_bytes):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        _write_all(trace_dir, ls_file_bytes)
        elog = tmp_path / "run.elog"
        engine = LiveIngest(trace_dir, keep_records=False, emit=elog)
        engine.poll()
        engine.finalize()
        packed = engine.pack_emit()
        assert packed == elog
        assert elog.read_bytes() == _batch_elog(tmp_path, trace_dir)

    def test_incremental_growth_equals_batch(self, tmp_path,
                                             ior_file_bytes):
        """Byte-split growth with a poll per step — including
        unfinished/resumed pairs crossing poll boundaries."""
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        elog = tmp_path / "run.elog"
        engine = LiveIngest(trace_dir, keep_records=False, emit=elog)
        for name, content in sorted(ior_file_bytes.items()):
            third = len(content) // 3 + 1
            for start in range(0, len(content), third):
                with open(trace_dir / name, "ab") as handle:
                    handle.write(content[start:start + third])
                engine.poll()
        engine.finalize()
        engine.pack_emit()
        assert elog.read_bytes() == _batch_elog(tmp_path, trace_dir)

    def test_kill_restart_cycles_stay_byte_identical(self, tmp_path,
                                                     ior_file_bytes):
        """The acceptance test: journal + checkpoint survive a kill
        *after* un-checkpointed journal lines were appended — the
        revived life truncates them, re-seals the same trace bytes,
        and the final pack equals batch."""
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        elog = tmp_path / "run.elog"
        sidecar = tmp_path / "ckpt.json"
        items = sorted(ior_file_bytes.items())

        engine = LiveIngest(trace_dir, keep_records=False, emit=elog,
                            checkpoint=sidecar)
        _write_all(trace_dir, dict(items[:2]))
        engine.poll()
        engine.save_checkpoint()
        # Progress past the checkpoint: journaled but never persisted.
        _write_all(trace_dir, dict(items[2:3]))
        engine.poll()
        del engine  # SIGKILL — no save, journal ahead of the sidecar

        second = LiveIngest(trace_dir, keep_records=False, emit=elog,
                            checkpoint=sidecar)
        _write_all(trace_dir, dict(items[2:]))
        second.poll()
        second.save_checkpoint()
        del second  # a second kill, this one right after a save

        third = LiveIngest(trace_dir, keep_records=False, emit=elog,
                           checkpoint=sidecar)
        third.poll()
        third.finalize()
        third.pack_emit()
        assert elog.read_bytes() == _batch_elog(tmp_path, trace_dir)

    def test_journal_survives_pack(self, tmp_path, ls_file_bytes):
        """Packing must not consume the journal — it is the source of
        truth for the next life."""
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        _write_all(trace_dir, ls_file_bytes)
        elog = tmp_path / "run.elog"
        engine = LiveIngest(trace_dir, emit=elog)
        engine.poll()
        engine.pack_emit()
        journal = elog.with_name(elog.name + ".journal")
        assert journal.exists() and journal.stat().st_size > 0
        engine.pack_emit()  # idempotent
        assert elog.read_bytes() == elog.read_bytes()


class TestWatchLoopIntegration:
    def test_run_watch_packs_on_exit(self, tmp_path, ls_file_bytes):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        _write_all(trace_dir, ls_file_bytes)
        elog = tmp_path / "run.elog"
        outputs: list[str] = []
        job = WatchJob(LiveIngest(trace_dir, keep_records=False,
                                  emit=elog),
                       polls=2, interval=0)
        code = FleetScheduler([job], out=outputs.append,
                              sleep=lambda _: None).run()
        assert code == 0
        assert elog.exists()
        assert any("emitted event log" in text for text in outputs)

    def test_cli_emit_once(self, tmp_path, ls_file_bytes, capsys):
        from repro.cli import main

        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        _write_all(trace_dir, ls_file_bytes)
        elog = tmp_path / "run.elog"
        code = main(["watch", str(trace_dir), "--once", "--no-dfg",
                     "--emit", str(elog)])
        assert code == 0
        assert f"emitted event log: {elog}" in capsys.readouterr().out
        assert elog.exists()


class TestFailureModes:
    def test_missing_parent_fails_at_construction(self, tmp_path):
        with pytest.raises(ReproError, match="parent directory"):
            LiveIngest(tmp_path, emit=tmp_path / "nope" / "run.elog")

    def test_cli_missing_parent_is_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["watch", str(tmp_path), "--once",
                     "--emit", str(tmp_path / "nope" / "run.elog")])
        assert code == 2
        assert "parent directory" in capsys.readouterr().err

    def test_pack_without_emit_is_an_error(self, tmp_path):
        with pytest.raises(ReproError, match="no emit destination"):
            LiveIngest(tmp_path).pack_emit()

    def test_pre_emit_checkpoint_refuses_emit_resume(self, tmp_path,
                                                     ls_file_bytes):
        """A sidecar from a life without --emit accounts for sealed
        events the journal never saw — resuming it with --emit must be
        an error, not a silently incomplete pack."""
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        _write_all(trace_dir, ls_file_bytes)
        sidecar = tmp_path / "ckpt.json"
        first = LiveIngest(trace_dir, checkpoint=sidecar)
        first.poll()
        first.save_checkpoint()
        with pytest.raises(ReproError, match="never emit-journaled"):
            LiveIngest(trace_dir, checkpoint=sidecar,
                       emit=tmp_path / "run.elog")

    def test_shrunken_journal_is_an_error(self, tmp_path,
                                          ls_file_bytes):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        _write_all(trace_dir, ls_file_bytes)
        elog = tmp_path / "run.elog"
        sidecar = tmp_path / "ckpt.json"
        engine = LiveIngest(trace_dir, emit=elog, checkpoint=sidecar)
        engine.poll()
        engine.save_checkpoint()
        journal = elog.with_name(elog.name + ".journal")
        journal.write_bytes(journal.read_bytes()[:10])
        with pytest.raises(ReproError, match="delete both"):
            LiveIngest(trace_dir, emit=elog, checkpoint=sidecar)

    def test_fresh_watch_truncates_a_leftover_journal(self, tmp_path,
                                                      ls_file_bytes):
        """No checkpoint → a new watch owns the journal; stale lines
        from an unrelated run must not leak into the pack."""
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        _write_all(trace_dir, ls_file_bytes)
        elog = tmp_path / "run.elog"
        journal = elog.with_name(elog.name + ".journal")
        journal.write_bytes(b'{"stale": "line"}\n')
        engine = LiveIngest(trace_dir, emit=elog)
        engine.poll()
        engine.finalize()
        engine.pack_emit()
        assert elog.read_bytes() == _batch_elog(tmp_path, trace_dir)
