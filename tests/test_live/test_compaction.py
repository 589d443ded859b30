"""Rolling emit-journal compaction: O(window) disk, byte-identity.

The week-long watcher contract (ROADMAP item 5b): with
``compact_emit`` set, every checkpoint save folds the checkpointed
journal prefix into the destination ``.elog`` and truncates the
journal, so on-disk state stays bounded by the poll window while the
packed ``.elog`` grows — and the final ``.elog`` is byte-identical to
a one-shot batch ``convert`` of the directory, *no matter where a
kill lands*: hypothesis chooses the growth schedule and the
compaction durability step to die at (``tests/faultinject.py``), and
a revived watcher must still converge to the same bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util.errors import ReproError
from repro.elstore.convert import convert_source
from repro.live.checkpoint import CHECKPOINT_VERSION
from repro.live.engine import LiveIngest
from repro.telemetry import Telemetry
from tests.faultinject import (
    COMPACTION_KILL_POINTS,
    SimulatedKill,
    kill_compaction_at,
    tear_tail,
)
from tests.strategies import DirectoryGrower, growth_steps

#: Generous ceiling for "journal holds only its header": the header is
#: one JSON line (~100 bytes); any journaled record would blow past it.
HEADER_ONLY = 256


def _batch_elog(tmp_path: Path, trace_dir: Path) -> bytes:
    dest = tmp_path / "batch.elog"
    convert_source(trace_dir, dest, workers=1)
    return dest.read_bytes()


def _engine(live_dir: Path, elog: Path, sidecar: Path,
            **kwargs) -> LiveIngest:
    return LiveIngest(live_dir, keep_records=False, emit=elog,
                      checkpoint=sidecar, compact_emit=1, **kwargs)


class TestDiskStaysBounded:
    def test_journal_shrinks_to_header_after_each_save(
            self, tmp_path, ior_file_bytes):
        """``compact_emit=1``: every save packs the whole durable
        journal, so right after a save the journal is header-only
        while the ``.elog`` keeps growing — disk usage is O(window),
        not O(events)."""
        live_dir = tmp_path / "traces"
        live_dir.mkdir()
        elog = tmp_path / "run.elog"
        journal = elog.with_name(elog.name + ".journal")
        engine = _engine(live_dir, elog, tmp_path / "ckpt.json")
        grower = DirectoryGrower(live_dir, ior_file_bytes)
        elog_sizes = []
        for _ in grower.each_finished():
            engine.poll()
            engine.save_checkpoint()
            assert journal.stat().st_size <= HEADER_ONLY
            elog_sizes.append(elog.stat().st_size)
        engine.finalize()
        engine.pack_emit()
        # The packed destination grew monotonically across compactions
        # and ends byte-identical to batch conversion.
        assert elog_sizes == sorted(elog_sizes)
        assert elog_sizes[-1] > elog_sizes[0]
        assert elog.read_bytes() == _batch_elog(tmp_path, live_dir)

    def test_compaction_metrics_are_exposed(self, tmp_path,
                                            ior_file_bytes):
        telemetry = Telemetry()
        live_dir = tmp_path / "traces"
        live_dir.mkdir()
        elog = tmp_path / "run.elog"
        engine = _engine(live_dir, elog, tmp_path / "ckpt.json",
                         telemetry=telemetry)
        grower = DirectoryGrower(live_dir, ior_file_bytes)
        grower.finish()
        engine.poll()
        engine.save_checkpoint()
        registry = telemetry.registry
        assert registry.counter("journal_compactions_total").value == 1
        assert registry.gauge("emit_journal_bytes").value <= HEADER_ONLY
        assert registry.histogram("phase_seconds",
                                  phase="compact").count == 1

    def test_below_threshold_no_compaction(self, tmp_path,
                                           ior_file_bytes):
        """A huge ``compact_emit`` never triggers: the journal just
        grows, exactly as without the flag."""
        live_dir = tmp_path / "traces"
        live_dir.mkdir()
        elog = tmp_path / "run.elog"
        journal = elog.with_name(elog.name + ".journal")
        engine = LiveIngest(live_dir, keep_records=False, emit=elog,
                            checkpoint=tmp_path / "ckpt.json",
                            compact_emit=1 << 40)
        grower = DirectoryGrower(live_dir, ior_file_bytes)
        grower.finish()
        engine.poll()
        engine.save_checkpoint()
        assert journal.stat().st_size > HEADER_ONLY  # nothing packed
        engine.finalize()
        engine.pack_emit()
        assert elog.read_bytes() == _batch_elog(tmp_path, live_dir)


class TestKillDuringCompaction:
    @pytest.mark.parametrize("point", COMPACTION_KILL_POINTS)
    def test_every_step_kill_recovers_byte_identical(
            self, tmp_path, ior_file_bytes, monkeypatch, point):
        """Die at each of the six compaction durability steps in turn;
        a revived watcher finishes the run and the packed ``.elog``
        equals batch conversion byte for byte."""
        live_dir = tmp_path / "traces"
        live_dir.mkdir()
        elog = tmp_path / "run.elog"
        sidecar = tmp_path / "ckpt.json"
        engine = _engine(live_dir, elog, sidecar)
        grower = DirectoryGrower(live_dir, ior_file_bytes)
        reveal = grower.each_finished()
        next(reveal)
        engine.poll()
        engine.save_checkpoint()  # compaction #1 lands cleanly
        next(reveal)
        engine.poll()
        with monkeypatch.context() as patched:
            kill_compaction_at(patched, point)
            with pytest.raises(SimulatedKill):
                engine.save_checkpoint()  # compaction #2 dies mid-step
        # Revive; the journal+elog pair must restore as a partition
        # of the record stream (never a loss, never a duplicate).
        revived = _engine(live_dir, elog, sidecar)
        for _ in reveal:
            revived.poll()
            revived.save_checkpoint()
        revived.finalize()
        revived.pack_emit()
        assert elog.read_bytes() == _batch_elog(tmp_path, live_dir)

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(schedule=growth_steps(n_files=4, max_steps=12),
           kill_step=st.integers(min_value=0, max_value=11),
           point=st.sampled_from(COMPACTION_KILL_POINTS))
    def test_random_schedule_random_kill_point(self, schedule,
                                               kill_step, point,
                                               ior_file_bytes,
                                               tmp_path_factory):
        """Hypothesis drives both adversaries at once: an arbitrary
        growth/poll schedule, plus a kill at an arbitrary compaction
        step somewhere in the middle. Polled steps checkpoint (and so
        compact); at ``kill_step`` the kill is armed — if that save's
        compaction reaches the doomed seam the process dies and is
        revived. The end state is always byte-identical to batch."""
        tmp_path = tmp_path_factory.mktemp("kill")
        live_dir = tmp_path / "traces"
        live_dir.mkdir()
        elog = tmp_path / "run.elog"
        sidecar = tmp_path / "ckpt.json"
        engine = _engine(live_dir, elog, sidecar)
        grower = DirectoryGrower(live_dir, ior_file_bytes)
        kill_step = min(kill_step, len(schedule) - 1)
        for step_index, (file_index, percent, poll) in \
                enumerate(schedule):
            grower.apply(file_index, percent)
            if not poll:
                continue
            engine.poll()
            if step_index == kill_step:
                with pytest.MonkeyPatch.context() as patched:
                    kill_compaction_at(patched, point)
                    try:
                        engine.save_checkpoint()
                    except SimulatedKill:
                        engine = _engine(live_dir, elog, sidecar)
            else:
                engine.save_checkpoint()
        grower.finish()
        engine.poll()
        engine.finalize()
        engine.save_checkpoint()
        engine.pack_emit()
        assert elog.read_bytes() == _batch_elog(tmp_path, live_dir)


class TestRestoreEdges:
    def _compacted_run(self, tmp_path, file_bytes):
        """A run with at least one compaction behind it; returns
        (live_dir, elog, sidecar, engine) with the engine closed."""
        live_dir = tmp_path / "traces"
        live_dir.mkdir()
        elog = tmp_path / "run.elog"
        sidecar = tmp_path / "ckpt.json"
        engine = _engine(live_dir, elog, sidecar)
        grower = DirectoryGrower(live_dir, file_bytes)
        grower.finish()
        engine.poll()
        engine.save_checkpoint()
        # The sidecar is written *before* its save's compaction runs;
        # a second save is what records the advanced pack offset.
        engine.save_checkpoint()
        engine.close()
        return live_dir, elog, sidecar

    def test_sidecar_is_v6_and_accounts_for_the_pack(self, tmp_path,
                                                     ls_file_bytes):
        live_dir, elog, sidecar = self._compacted_run(tmp_path,
                                                      ls_file_bytes)
        state = json.loads(sidecar.read_text())
        assert state["version"] == CHECKPOINT_VERSION
        assert state["emit_packed"] > 0
        assert state["emit_packed"] == state["emit_offset"]

    def test_journal_replaced_behind_checkpoint_is_an_error(
            self, tmp_path, ls_file_bytes):
        """Sidecar says N bytes were compacted; a journal that claims
        fewer (here: a fresh one) was swapped in behind it."""
        live_dir, elog, sidecar = self._compacted_run(tmp_path,
                                                      ls_file_bytes)
        elog.with_name(elog.name + ".journal").unlink()
        with pytest.raises(ReproError,
                           match="replaced behind the checkpoint"):
            _engine(live_dir, elog, sidecar)

    def test_checkpoint_older_than_compaction_is_an_error(
            self, tmp_path, ls_file_bytes):
        """A sidecar from *before* the compaction claims a durable
        offset inside the packed prefix — unrecoverably stale."""
        live_dir = tmp_path / "traces"
        live_dir.mkdir()
        elog = tmp_path / "run.elog"
        sidecar = tmp_path / "ckpt.json"
        engine = _engine(live_dir, elog, sidecar)
        items = sorted(ls_file_bytes.items())
        for name, content in items[:3]:
            (live_dir / name).write_bytes(content)
        engine.poll()
        engine.save_checkpoint(tmp_path / "old.json")  # pre-compaction
        old = (tmp_path / "old.json").read_bytes()
        for name, content in items[3:]:
            (live_dir / name).write_bytes(content)
        engine.poll()
        engine.save_checkpoint()  # compacts through a larger offset
        engine.close()
        sidecar.write_bytes(old)  # "restore from last week's backup"
        with pytest.raises(ReproError,
                           match="already compacted through"):
            _engine(live_dir, elog, sidecar)

    def test_missing_elog_after_compaction_is_an_error(self, tmp_path,
                                                       ls_file_bytes):
        live_dir, elog, sidecar = self._compacted_run(tmp_path,
                                                      ls_file_bytes)
        elog.unlink()
        revived = _engine(live_dir, elog, sidecar)
        with pytest.raises(ReproError, match="unrecoverable"):
            revived.pack_emit()

    def test_fresh_watch_discards_compacted_pair(self, tmp_path,
                                                 ls_file_bytes):
        """No checkpoint: a leftover journal/.elog pair from a dead
        watch is discarded, and the fresh run's pack overwrites the
        stale ``.elog`` with exactly the batch bytes."""
        live_dir, elog, sidecar = self._compacted_run(tmp_path,
                                                      ls_file_bytes)
        sidecar.unlink()
        fresh = LiveIngest(live_dir, keep_records=False, emit=elog)
        fresh.poll()
        fresh.finalize()
        fresh.pack_emit()
        assert elog.read_bytes() == _batch_elog(tmp_path, live_dir)

    def test_torn_journal_tail_is_recovered(self, tmp_path,
                                            ior_file_bytes):
        """Crash mid-append after the last checkpoint: the torn final
        line is past the checkpointed offset, so restore cuts it and
        the revived tails re-read those trace bytes."""
        live_dir = tmp_path / "traces"
        live_dir.mkdir()
        elog = tmp_path / "run.elog"
        sidecar = tmp_path / "ckpt.json"
        journal = elog.with_name(elog.name + ".journal")
        engine = _engine(live_dir, elog, sidecar)
        grower = DirectoryGrower(live_dir, ior_file_bytes)
        reveal = grower.each_finished()
        next(reveal)
        engine.poll()
        engine.save_checkpoint()
        next(reveal)
        engine.poll()  # journaled past the checkpointed offset
        engine.close()
        tear_tail(journal, 7)  # rip into the un-checkpointed tail
        revived = _engine(live_dir, elog, sidecar)
        for _ in reveal:
            revived.poll()
            revived.save_checkpoint()
        revived.finalize()
        revived.pack_emit()
        assert elog.read_bytes() == _batch_elog(tmp_path, live_dir)
