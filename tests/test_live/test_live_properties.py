"""The live-equals-batch invariant, under randomized growth schedules.

Hypothesis drives the adversary: it chooses how a finished trace
directory is revealed to the watcher — which files appear when, how
many bytes land per step (cut at *arbitrary* byte positions, so lines
and unfinished/resumed pairs split across polls), and where polls and
checkpoint kill/restart cycles happen. Whatever it picks, the final
live state must equal one-shot batch ingestion of the directory: the
packed ``--emit`` ``.elog`` byte-identical to ``convert`` (frames and
pools), equal DFGs, equal per-file merge diagnostics — across a
restart too, because the journal keeps the first life's records.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.mapping import CallTopDirs
from repro.live.engine import LiveIngest
from tests.emit_oracle import (assert_merge_stats_match_batch,
                               assert_pack_is_batch)
from tests.strategies import growth_steps, replay_schedule

MAPPING = CallTopDirs(levels=2)

#: The shared schedule strategy (see ``tests/strategies.py``).
steps = growth_steps(n_files=4, max_steps=30)


def _replay(file_bytes: dict[str, bytes], schedule, *,
            live_dir: Path, engine: LiveIngest,
            restart_after: int | None = None,
            sidecar: Path | None = None) -> LiveIngest:
    """Grow ``live_dir`` per the schedule, polling along the way,
    optionally killing + reviving the engine at one step."""
    holder = {"engine": engine}

    def on_step(step_index: int) -> None:
        if restart_after is not None and step_index == restart_after:
            holder["engine"].save_checkpoint()
            holder["engine"] = LiveIngest(
                live_dir, checkpoint=sidecar,
                emit=holder["engine"].emit_journal.elog_path)

    replay_schedule(file_bytes, schedule, live_dir=live_dir,
                    poll=lambda: holder["engine"].poll(),
                    on_step=on_step)
    holder["engine"].finalize()
    return holder["engine"]


def _engine(scratch: Path, **options) -> tuple[LiveIngest, Path]:
    """An emitting engine over ``scratch/traces`` (created)."""
    live_dir = scratch / "traces"
    live_dir.mkdir()
    return LiveIngest(live_dir, emit=scratch / "run.elog",
                      **options), live_dir


def _assert_batch_identical(engine: LiveIngest, live_dir: Path) -> None:
    assert_pack_is_batch(engine)
    batch_log = EventLog.from_source(live_dir, workers=1)
    assert engine.snapshot_dfg() == DFG(batch_log.with_mapping(MAPPING))
    assert_merge_stats_match_batch(engine)


class TestLiveEqualsBatch:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(schedule=steps)
    def test_random_growth_schedule(self, schedule, ior_file_bytes):
        with tempfile.TemporaryDirectory() as scratch:
            engine, live_dir = _engine(Path(scratch))
            engine = _replay(ior_file_bytes, schedule,
                             live_dir=live_dir, engine=engine)
            _assert_batch_identical(engine, live_dir)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(schedule=steps,
           restart_after=st.integers(min_value=0, max_value=29))
    def test_random_schedule_with_checkpoint_restart(self, schedule,
                                                     restart_after,
                                                     ior_file_bytes):
        """Kill + revive at a random schedule point: the final state
        still equals batch, the pack byte for byte — the journal keeps
        the first life's records, which died with its process."""
        with tempfile.TemporaryDirectory() as scratch:
            sidecar = Path(scratch) / "ckpt.json"
            engine, live_dir = _engine(Path(scratch), checkpoint=sidecar)
            engine = _replay(
                ior_file_bytes, schedule, live_dir=live_dir,
                engine=engine,
                restart_after=min(restart_after,
                                  max(len(schedule) - 1, 0)),
                sidecar=sidecar)
            _assert_batch_identical(engine, live_dir)


class TestWorkloadByteIdentity:
    def test_ls_workload_fixed_schedule(self, ls_file_bytes):
        """Deterministic replay of a simulate workload: files revealed
        in interleaved thirds — the documented byte-identity anchor."""
        with tempfile.TemporaryDirectory() as scratch:
            engine, live_dir = _engine(Path(scratch))
            names = sorted(ls_file_bytes)
            for third in range(3):
                for name in names:
                    content = ls_file_bytes[name]
                    cut = len(content) // 3
                    lo = third * cut
                    hi = (third + 1) * cut if third < 2 else len(content)
                    with open(live_dir / name, "ab") as handle:
                        handle.write(content[lo:hi])
                    engine.poll()
            engine.finalize()
            _assert_batch_identical(engine, live_dir)

    def test_ior_workload_fixed_schedule(self, ior_file_bytes):
        with tempfile.TemporaryDirectory() as scratch:
            engine, live_dir = _engine(Path(scratch))
            for name, content in sorted(ior_file_bytes.items()):
                half = len(content) // 2 + 7
                with open(live_dir / name, "ab") as handle:
                    handle.write(content[:half])
                engine.poll()
                with open(live_dir / name, "ab") as handle:
                    handle.write(content[half:])
                engine.poll()
            engine.finalize()
            _assert_batch_identical(engine, live_dir)
