"""The watch loop and the ``st-inspector watch`` command."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.fleet import FleetScheduler, WatchJob
from repro.live.engine import LiveIngest
from repro.live.watch import WatchView


def _write_all(directory: Path, file_bytes: dict[str, bytes]) -> None:
    for filename, content in file_bytes.items():
        (directory / filename).write_bytes(content)


class TestRunWatch:
    def test_bounded_polls_with_injected_clock(self, tmp_path,
                                               ls_file_bytes):
        _write_all(tmp_path, ls_file_bytes)
        outputs: list[str] = []
        naps: list[float] = []
        now = [0.0]

        def nap(delay: float) -> None:
            naps.append(delay)
            now[0] += delay

        job = WatchJob(LiveIngest(tmp_path), interval=0.5, polls=3)
        code = FleetScheduler([job], out=outputs.append, sleep=nap,
                              clock=lambda: now[0]).run()
        assert code == 0
        assert len(outputs) == 3
        assert naps == [0.5, 0.5]  # no sleep after the final poll
        assert "poll 1:" in outputs[0]
        assert "NODES" in outputs[0]  # first refresh renders the DFG
        assert "NODES" not in outputs[1]  # nothing changed: status only

    def test_slow_polls_do_not_stretch_the_cadence(self, tmp_path,
                                                   ls_file_bytes):
        """Deadline scheduling: a refresh that burns clock time
        shortens the following nap instead of shifting every later
        poll; an overrun re-anchors instead of sleeping negatively."""
        _write_all(tmp_path, ls_file_bytes)
        naps: list[float] = []
        events: list[str] = []
        now = [0.0]
        work = iter([0.25, 1.5, 0.125, 0.0])  # per-poll render cost

        def out(text: str) -> None:
            # The OVERRUN diagnostic is an extra out() between
            # refreshes — announcement lines burn no render budget.
            if text.startswith("OVERRUN"):
                events.append(text)
                return
            now[0] += next(work)

        def nap(delay: float) -> None:
            naps.append(delay)
            now[0] += delay

        FleetScheduler([WatchJob(LiveIngest(tmp_path), interval=1.0,
                                 polls=4)],
                       out=out, sleep=nap, clock=lambda: now[0]).run()
        # Poll 1 due at 0, works 0.25 → nap 0.75 to the 1.0 deadline.
        # Poll 2 works 1.5 → overruns the 2.0 deadline (now 2.5);
        # poll 3 starts immediately (no nap), re-anchoring at 2.5.
        # Poll 3 works 0.125 → nap 0.875 to the re-anchored 3.5.
        assert naps == [0.75, 0.875]
        # The overrun was announced, not silent: one structured event
        # naming the poll and the overshoot.
        assert events == ["OVERRUN poll 2: work exceeded the 1s "
                          "interval by 0.500s; cadence re-anchored"]

    def test_changes_are_highlighted_between_refreshes(self, tmp_path,
                                                       ls_file_bytes):
        items = sorted(ls_file_bytes.items())
        engine = LiveIngest(tmp_path)
        view = WatchView(engine, top=3)
        _write_all(tmp_path, dict(items[:3]))  # the three 'a' cases
        view.refresh(engine.poll())
        _write_all(tmp_path, dict(items[3:]))  # 'b' brings new edges
        text = view.refresh(engine.poll())
        assert "DFG DIFF" in text
        assert "[G]" in text  # new-since-baseline elements tagged

    def test_checkpoint_saved_every_poll(self, tmp_path, ls_file_bytes):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        _write_all(trace_dir, ls_file_bytes)
        sidecar = tmp_path / "ckpt.json"
        FleetScheduler([WatchJob(LiveIngest(trace_dir,
                                            checkpoint=sidecar),
                                 polls=1)],
                       out=lambda _: None, sleep=lambda _: None).run()
        assert sidecar.exists()

    def test_idle_polls_skip_the_sidecar_rewrite(self, tmp_path,
                                                 ls_file_bytes):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        _write_all(trace_dir, ls_file_bytes)
        sidecar = tmp_path / "ckpt.json"
        FleetScheduler([WatchJob(LiveIngest(trace_dir,
                                            checkpoint=sidecar),
                                 polls=1)],
                       out=lambda _: None, sleep=lambda _: None).run()
        first_save = sidecar.stat().st_mtime_ns
        # Nothing grows: three more polls must not rewrite the file.
        FleetScheduler([WatchJob(LiveIngest(trace_dir,
                                            checkpoint=sidecar),
                                 polls=3, interval=0)],
                       out=lambda _: None, sleep=lambda _: None).run()
        assert sidecar.stat().st_mtime_ns == first_save


class TestCli:
    def test_watch_once(self, tmp_path, ls_file_bytes, capsys):
        _write_all(tmp_path, ls_file_bytes)
        assert main(["watch", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "poll 1:" in out
        assert "EDGES" in out

    def test_watch_polls_and_no_dfg(self, tmp_path, ls_file_bytes,
                                    capsys):
        _write_all(tmp_path, ls_file_bytes)
        assert main(["watch", str(tmp_path), "--polls", "2",
                     "--interval", "0", "--no-dfg"]) == 0
        out = capsys.readouterr().out
        assert "poll 2:" in out
        assert "EDGES" not in out

    def test_watch_checkpoint_roundtrip(self, tmp_path, ls_file_bytes,
                                        capsys):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        _write_all(trace_dir, ls_file_bytes)
        sidecar = tmp_path / "ckpt.json"
        assert main(["watch", str(trace_dir), "--once",
                     "--checkpoint", str(sidecar)]) == 0
        assert sidecar.exists()
        capsys.readouterr()
        # Second run resumes: same files, no new events.
        assert main(["watch", str(trace_dir), "--once",
                     "--checkpoint", str(sidecar)]) == 0
        assert "poll 2:" in capsys.readouterr().out

    def test_no_dfg_watch_still_accumulates_statistics(self, tmp_path,
                                                       ls_file_bytes):
        """--no-dfg skips rendering, not accounting: the engine behind
        a summary-only watch holds full batch-equal statistics."""
        from repro.core.eventlog import EventLog
        from repro.core.mapping import CallTopDirs
        from repro.core.statistics import IOStatistics

        _write_all(tmp_path, ls_file_bytes)
        engine = LiveIngest(tmp_path, keep_records=False)
        outputs: list[str] = []
        FleetScheduler([WatchJob(engine, polls=1, show_dfg=False)],
                       out=outputs.append, sleep=lambda _: None).run()
        assert "NODES" not in outputs[0]
        log = EventLog.from_source(tmp_path, workers=1)
        batch = IOStatistics(log.with_mapping(CallTopDirs(levels=2)))
        live = engine.statistics()
        for activity in batch.activities():
            assert live[activity] == batch[activity], activity

    def test_watch_cli_runs_without_record_retention(self, tmp_path,
                                                     ls_file_bytes,
                                                     capsys):
        """The watch command never keeps raw records (graph and
        statistics are incremental) yet still renders full labels."""
        _write_all(tmp_path, ls_file_bytes)
        assert main(["watch", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "Load:" in out  # statistics rendered from accumulators

    def test_no_dfg_checkpoint_restart_keeps_statistics(self, tmp_path,
                                                        ls_file_bytes,
                                                        capsys):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        items = sorted(ls_file_bytes.items())
        sidecar = tmp_path / "ckpt.json"
        _write_all(trace_dir, dict(items[:3]))
        assert main(["watch", str(trace_dir), "--once", "--no-dfg",
                     "--checkpoint", str(sidecar)]) == 0
        _write_all(trace_dir, dict(items[3:]))
        assert main(["watch", str(trace_dir), "--once", "--no-dfg",
                     "--checkpoint", str(sidecar)]) == 0
        capsys.readouterr()
        # A third life still carries the full accumulated history.
        revived = LiveIngest(trace_dir, checkpoint=sidecar)
        revived.poll()
        revived.finalize()
        from repro.core.eventlog import EventLog
        from repro.core.mapping import CallTopDirs
        from repro.core.statistics import IOStatistics

        log = EventLog.from_source(trace_dir, workers=1)
        batch = IOStatistics(log.with_mapping(CallTopDirs(levels=2)))
        live = revived.statistics()
        for activity in batch.activities():
            assert live[activity] == batch[activity], activity
            assert live.timeline(activity) == \
                batch.timeline(activity), activity

    def test_watch_missing_directory_fails_cleanly(self, tmp_path,
                                                   capsys):
        assert main(["watch", str(tmp_path / "nope"), "--once"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("--interval", "-1"),
        ("--interval", "soon"),
        ("--polls", "0"),
        ("--polls", "-3"),
    ])
    def test_invalid_interval_and_polls_rejected(self, tmp_path, flags,
                                                 capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["watch", str(tmp_path), *flags])
        assert excinfo.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_restart_renders_full_history_statistics(self, tmp_path,
                                                     ls_file_bytes,
                                                     capsys):
        """A restarted watcher's node labels (Load/DR) must equal a
        batch run over the final directory — the post-restart
        statistics gap — and the old partial-statistics caveat note
        must be gone from the output."""
        from repro.core.eventlog import EventLog
        from repro.core.mapping import CallTopDirs
        from repro.core.statistics import IOStatistics

        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        sidecar = tmp_path / "ckpt.json"
        items = sorted(ls_file_bytes.items())
        _write_all(trace_dir, dict(items[:3]))
        assert main(["watch", str(trace_dir), "--once",
                     "--checkpoint", str(sidecar)]) == 0
        capsys.readouterr()
        # Kill (process gone), grow, restart from the sidecar: the
        # restarted process itself parses only the last three files.
        _write_all(trace_dir, dict(items[3:]))
        assert main(["watch", str(trace_dir), "--once",
                     "--checkpoint", str(sidecar)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint restart" not in out
        log = EventLog.from_source(trace_dir, workers=1)
        batch = IOStatistics(log.with_mapping(CallTopDirs(levels=2)))
        for activity in batch.activities():
            assert batch[activity].load_label in out, activity
            dr = batch[activity].dr_label
            if dr is not None:
                assert dr in out, activity


class TestWeekLongWatcherFlags:
    """``--memory-budget`` and ``--compact-emit`` on the watch CLI."""

    @pytest.mark.parametrize("flags", [
        ("--memory-budget", "0"),
        ("--memory-budget", "-1"),
        ("--memory-budget", "lots"),
        ("--compact-emit", "0"),
        ("--compact-emit", "many"),
    ])
    def test_invalid_values_are_parser_errors(self, tmp_path, flags,
                                              capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["watch", str(tmp_path), *flags])
        assert excinfo.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_memory_budget_conflicts_with_window(self, tmp_path,
                                                 ls_file_bytes,
                                                 capsys):
        _write_all(tmp_path, ls_file_bytes)
        code = main(["watch", str(tmp_path), "--once",
                     "--window", "64", "--memory-budget", "1048576"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_compact_emit_requires_emit_and_checkpoint(self, tmp_path,
                                                       ls_file_bytes,
                                                       capsys):
        _write_all(tmp_path, ls_file_bytes)
        assert main(["watch", str(tmp_path), "--once",
                     "--compact-emit", "65536"]) == 2
        assert "emit" in capsys.readouterr().err
        assert main(["watch", str(tmp_path), "--once",
                     "--emit", str(tmp_path / "run.elog"),
                     "--compact-emit", "65536"]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_budgeted_compacting_watch_runs_end_to_end(self, tmp_path,
                                                       ls_file_bytes,
                                                       capsys):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        _write_all(trace_dir, ls_file_bytes)
        elog = tmp_path / "run.elog"
        code = main(["watch", str(trace_dir), "--once",
                     "--memory-budget", "1048576",
                     "--checkpoint", str(tmp_path / "ckpt.json"),
                     "--emit", str(elog), "--compact-emit", "1"])
        assert code == 0
        assert f"emitted event log: {elog}" in capsys.readouterr().out
        # The compaction left the journal header-only on exit.
        journal = elog.with_name(elog.name + ".journal")
        assert journal.stat().st_size < 256
