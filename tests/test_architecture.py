"""Architecture guardrails: one road each for sources, strace fan-out,
sidecars and the watch loop.

Every input goes through ``from_source``/``open_source``, every strace
consumer fans out through ``iter_case_columns`` on the one process
pool, a checkpoint sidecar loads at exactly one version, and
``FleetScheduler.run`` is the only watch loop — ``st-inspector watch``
is its one-job case. These tests keep the removed parallel roads from
growing back, pin the exit-path duties the one loop now owns alone,
and keep every call perfbench's traced run wraps resolvable.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from repro.core.eventlog import EventLog
from repro.fleet import FleetScheduler, WatchJob
from repro.live.engine import LiveIngest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Names of removed roads: the second watch driver, the per-format
#: constructors and CSV package that ``from_source`` replaced, the
#: multi-version sidecar loader, and the list-map, record and shard
#: fan-outs that ``iter_case_columns`` replaced.
REMOVED_NAMES = ("run_watch", "from_strace_dir", "from_store",
                 "_LOADABLE_VERSIONS", "repro.adapters",
                 "ingest_event_frame", "read_cases", "_map_tasks",
                 "_pool_map", "dfg_from_trace_dir", "iter_case_dfgs",
                 "convert_strace_dir")


def test_adapters_package_is_gone():
    with pytest.raises(ImportError):
        importlib.import_module("repro.adapters")


def test_shard_module_is_gone():
    with pytest.raises(ImportError):
        importlib.import_module("repro.ingest.shards")


def test_one_process_pool():
    sites = [path.relative_to(SRC).as_posix()
             for path in sorted(SRC.rglob("*.py"))
             for _ in range(path.read_text(encoding="utf-8")
                            .count("ProcessPoolExecutor("))]
    assert sites == ["repro/ingest/parallel.py"]


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_no_source_file_names_a_removed_road(name):
    hits = [f"{path.relative_to(SRC)}:{lineno}"
            for path in sorted(SRC.rglob("*.py"))
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if name in line]
    assert hits == []


def _perfbench_targets() -> list[tuple[str, str]]:
    """(module, attribute path) of every call perfbench's traced run
    wraps: its ``SPANS`` and ``COUNTS`` tables and each literal
    ``_resolve(...)`` call (the ``TokenStream.__iter__`` target)."""
    tree = ast.parse((REPO / "perfbench" / "tracing.py")
                     .read_text(encoding="utf-8"))
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) in ("SPANS", "COUNTS")
                for target in node.targets):
            targets += [(module, attr) for module, attr, _
                        in ast.literal_eval(node.value)]
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "_resolve"
              and all(isinstance(arg, ast.Constant) for arg in node.args)):
            targets.append(tuple(arg.value for arg in node.args))
    return list(dict.fromkeys(targets))


PERFBENCH_TARGETS = _perfbench_targets()


def test_perfbench_targets_found():
    assert ("repro.ingest.streaming", "TokenStream.__iter__") in \
        PERFBENCH_TARGETS
    assert ("repro.sources.strace_dir", "StraceDirSource.event_log") in \
        PERFBENCH_TARGETS


@pytest.mark.parametrize("module, attr", PERFBENCH_TARGETS,
                         ids=[".".join(t) for t in PERFBENCH_TARGETS])
def test_perfbench_target_resolves(module, attr):
    """Resolved as ``perfbench/tracing.py``'s ``_resolve`` does: the
    name must be defined on its owner itself, not inherited."""
    owner = importlib.import_module(module)
    *parents, name = attr.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    assert name in vars(owner)


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
