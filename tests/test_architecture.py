"""Architecture guardrails: one road each for sources, sidecars and the
watch loop.

Every input goes through ``from_source``/``open_source``, a checkpoint
sidecar loads at exactly one version, and ``FleetScheduler.run`` is the
only watch loop — ``st-inspector watch`` is its one-job case. These
tests keep the removed parallel roads from growing back, and pin the
exit-path duties the one loop now owns alone.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from repro.core.eventlog import EventLog
from repro.fleet import FleetScheduler, WatchJob
from repro.live.engine import LiveIngest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Names of removed roads: the second watch driver, the per-format
#: constructors and CSV package that ``from_source`` replaced, and the
#: multi-version sidecar loader.
REMOVED_NAMES = ("run_watch", "from_strace_dir", "from_store",
                 "_LOADABLE_VERSIONS", "repro.adapters")


def test_adapters_package_is_gone():
    with pytest.raises(ImportError):
        importlib.import_module("repro.adapters")


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_no_source_file_names_a_removed_road(name):
    hits = [f"{path.relative_to(SRC)}:{lineno}"
            for path in sorted(SRC.rglob("*.py"))
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if name in line]
    assert hits == []


def _emitting_job(tmp_path: Path, file_bytes: dict[str, bytes],
                  polls: int) -> tuple[WatchJob, Path]:
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    for filename, content in file_bytes.items():
        (trace_dir / filename).write_bytes(content)
    elog = tmp_path / "run.elog"
    engine = LiveIngest(trace_dir, keep_records=False, emit=elog)
    return WatchJob(engine, polls=polls, interval=0), elog


def _run(job: WatchJob) -> int:
    return FleetScheduler([job], out=lambda _: None,
                          sleep=lambda _: None).run()


class TestTheOneWatchLoop:
    """``FleetScheduler.run`` packs the ``--emit`` journal into the
    ``.elog`` and releases the journal's append handle on every exit
    path."""

    def test_budget_spent(self, tmp_path, ls_file_bytes):
        job, elog = _emitting_job(tmp_path, ls_file_bytes, polls=2)
        assert _run(job) == 0
        assert EventLog.from_source(f"elog:{elog}").n_events == \
            job.engine.total_events > 0
        assert job.engine.emit_journal._handle is None

    def test_poll_raising_without_isolation(self, tmp_path,
                                            ls_file_bytes, monkeypatch):
        job, elog = _emitting_job(tmp_path, ls_file_bytes, polls=3)
        engine = job.engine
        real_poll = engine.poll
        calls: list[int] = []

        def poll():
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return real_poll()

        monkeypatch.setattr(engine, "poll", poll)
        with pytest.raises(RuntimeError, match="boom"):
            _run(job)
        # Everything the first poll sealed reached the .elog.
        assert EventLog.from_source(f"elog:{elog}").n_events == \
            engine.total_events > 0
        assert engine.emit_journal._handle is None
