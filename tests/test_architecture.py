"""Architecture guardrails: one road each for sources, strace fan-out,
batch statistics, sidecars and the watch loop, one definition of a
watch job, and what each command loads.

Every input goes through ``from_source``/``open_source``, every strace
consumer fans out through ``iter_case_columns`` on the one process
pool, a checkpoint sidecar loads at exactly one version, and
``FleetScheduler.run`` is the only watch loop — ``st-inspector watch``
is its one-job case. These tests keep the removed parallel roads from
growing back, pin the exit-path duties the one loop now owns alone,
and keep every call perfbench's traced run wraps resolvable. The
module-set tests run each command in a fresh interpreter, because this
process has long since imported everything.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.eventlog import EventLog
from repro.fleet import FleetScheduler, WatchJob
from repro.live.engine import LiveIngest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Names of removed roads: the second watch driver, the per-format
#: constructors and CSV package that ``from_source`` replaced, the
#: multi-version sidecar loader, the list-map, record and shard
#: fan-outs that ``iter_case_columns`` replaced, the batch feed of
#: the live accumulators that the statistics cell table replaced, the
#: per-front-end copies of the watch-job rules that
#: ``JobSpec.validate`` replaced, two options nothing read, and the
#: per-line merger feed that the block scan ``feed_text`` replaced.
REMOVED_NAMES = ("run_watch", "from_strace_dir", "from_store",
                 "_LOADABLE_VERSIONS", "repro.adapters",
                 "ingest_event_frame", "read_cases", "_map_tasks",
                 "_pool_map", "dfg_from_trace_dir", "iter_case_dfgs",
                 "convert_strace_dir", "feed_frame", "add_rows",
                 "_check_types", "_window_arg", "_nonneg_float_arg",
                 "_MAPPINGS", "supports_tail", "show_stats",
                 "feed_lines", "from_spec", "max_concurrency_of",
                 "_decode_column", "_toc_cases")


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


class TestOneDefinitionOfAWatchJob:
    """``JobSpec`` owns every per-job default, bound and name list; the
    ``watch`` and fleet front ends keep only their syntax."""

    def test_fleet_parser_restates_no_default(self):
        from dataclasses import fields

        from repro.fleet import JobSpec

        names = {item.name for item in fields(JobSpec)} | {"dfg"}
        tree = ast.parse((SRC / "repro/fleet/config.py")
                         .read_text(encoding="utf-8"))
        defaulted = [node.args[0].value for node in ast.walk(tree)
                     if isinstance(node, ast.Call)
                     and getattr(node.func, "attr", None) == "get"
                     and len(node.args) == 2
                     and isinstance(node.args[0], ast.Constant)
                     and node.args[0].value in names]
        assert defaulted == []

    def test_watch_parser_restates_no_default(self):
        import argparse

        from repro.cli import build_parser

        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        defaults = {action.dest: action.default
                    for action in sub.choices["watch"]._actions
                    if action.dest in ("interval", "mapping", "levels",
                                       "top")}
        assert defaults == dict.fromkeys(
            ("interval", "mapping", "levels", "top"), argparse.SUPPRESS)

    def test_watch_job_restates_no_default(self):
        """``WatchJob``'s constructor, for engines built without a spec,
        takes each default it shares with ``JobSpec`` from the spec (a
        ``name`` of None falls back to ``JobSpec.name``)."""
        import inspect
        from dataclasses import fields

        from repro.fleet import JobSpec

        spec_defaults = {item.name: item.default for item in fields(JobSpec)}
        shared = {name: parameter.default for name, parameter
                  in inspect.signature(WatchJob.__init__).parameters.items()
                  if name in spec_defaults and name != "name"}
        assert shared == {name: spec_defaults[name] for name in shared}
        tree = ast.parse((SRC / "repro/fleet/job.py")
                         .read_text(encoding="utf-8"))
        init = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef)
                    and node.name == "WatchJob").body
        init = next(node for node in init
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "__init__")
        restated = [node.value for node in ast.walk(init)
                    if isinstance(node, ast.Constant)
                    and node.value is not None
                    and node.value in (spec_defaults["name"],
                                       spec_defaults["interval"],
                                       spec_defaults["top"])]
        assert restated == []
        literal_defaults = [
            arg.arg for arg, default in zip(init.args.kwonlyargs,
                                            init.args.kw_defaults)
            if isinstance(default, ast.Constant)
            and default.value is not None]
        assert literal_defaults == []

    def test_mapping_names_are_spelled_once(self):
        from repro.fleet.job import MAPPING_NAMES

        def spelled(node) -> set:
            items = node.keys if isinstance(node, ast.Dict) else \
                getattr(node, "elts", ())
            return {item.value for item in items
                    if isinstance(item, ast.Constant)}

        lists = [path.relative_to(SRC).as_posix()
                 for path in sorted(SRC.rglob("*.py"))
                 for node in ast.walk(ast.parse(
                     path.read_text(encoding="utf-8")))
                 if isinstance(node, (ast.Tuple, ast.List, ast.Set,
                                      ast.Dict))
                 and set(MAPPING_NAMES) <= spelled(node)]
        assert lists == ["repro/fleet/job.py"]


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


# -- what each command loads -------------------------------------------------

#: Loaded by no batch command, nor by building the CLI parser: networkx
#: (``DFG.to_networkx`` alone imports it), the standard-library parts
#: behind the alert sinks, the metrics server, the catalog and the
#: rules and fleet files, and every live-only, alert, catalog,
#: simulator and telemetry module. Each entry covers its submodules.
BATCH_NEVER_LOADS = (
    "networkx", "urllib.request", "http.server", "sqlite3", "tomllib",
    "repro.alerts", "repro.catalog", "repro.simulate", "repro.telemetry",
    *(f"repro.live.{name}"
      for name in ("engine", "tail", "watch", "checkpoint", "emit")),
    *(f"repro.fleet.{name}"
      for name in ("scheduler", "config", "view", "telemetry")),
    "repro.pipeline.html")


def _fresh(code: str, cwd: Path) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object as
    its last line, which is returned."""
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _cli_loads(argv: list[str], cwd: Path) -> list[str]:
    """``sys.modules`` after ``st-inspector ARGV`` exits 0."""
    result = _fresh(
        "import json, sys\n"
        "from repro.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))",
        cwd)
    assert result["code"] == 0
    return result["modules"]


def _cli_run(argv: list[str], cwd: Path) -> tuple[int, list[str]]:
    """(exit code, ``sys.modules``) after ``st-inspector ARGV``, an
    argparse exit included."""
    result = _fresh(
        "import json, sys\n"
        "from repro.cli import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))",
        cwd)
    return result["code"], result["modules"]


def _among(modules: list[str], prefixes) -> list[str]:
    return [module for module in modules
            if any(module == prefix or module.startswith(prefix + ".")
                   for prefix in prefixes)]


@pytest.fixture(scope="module")
def fig1_elog(fig1_dir, tmp_path_factory) -> Path:
    from repro.elstore.convert import convert_source

    return convert_source(fig1_dir,
                          tmp_path_factory.mktemp("elog") / "fig1.elog")


class TestWhatEachCommandLoads:
    """Every entry point imports only what it runs (the module sets of
    ``docs/architecture.md``)."""

    def test_import_repro_loads_nothing_else(self, tmp_path):
        modules = _fresh("import json, sys\nimport repro\n"
                         "print(json.dumps(sorted(sys.modules)))",
                         tmp_path)
        assert _among(modules, ("repro",)) == ["repro"]
        assert _among(modules, ("numpy",)) == []

    @pytest.mark.parametrize("command", [
        ["report"], ["compare", "--green", "a"],
        ["diff", "--green", "a", "--json"]], ids=lambda c: c[0])
    def test_batch_commands(self, command, fig1_dir, tmp_path):
        argv = [command[0], str(fig1_dir), *command[1:]]
        assert _among(_cli_loads(argv, tmp_path), BATCH_NEVER_LOADS) == []

    @pytest.mark.parametrize("source", ["elog", "workers=1"])
    def test_no_pool_loads_no_pool_machinery(self, source, fig1_dir,
                                             fig1_elog, tmp_path):
        """A report that starts no process pool (read from a store, or
        parsed in process) loads none of its machinery."""
        argv = (["report", f"elog:{fig1_elog}"] if source == "elog"
                else ["report", str(fig1_dir), "--workers", "1"])
        modules = _cli_loads(argv, tmp_path)
        assert _among(modules, BATCH_NEVER_LOADS) == []
        assert _among(modules, ("concurrent.futures.process",)) == []

    def test_help_loads_no_numpy(self, tmp_path):
        code, modules = _cli_run(["--help"], tmp_path)
        assert code == 0
        assert _among(modules, ("numpy", "repro.core.statistics")) == []

    def test_health_loads_no_numpy(self, fig1_dir, tmp_path):
        """``health`` reads a sidecar's telemetry snapshot; it needs
        argparse, json and ``repro.telemetry``, not the batch core."""
        checkpoint = tmp_path / "watch.ckpt.json"
        _cli_loads(["watch", str(fig1_dir), "--once", "--no-dfg",
                    "--checkpoint", str(checkpoint), "--metrics-log",
                    str(tmp_path / "metrics.jsonl")], tmp_path)
        code, modules = _cli_run(["health", str(checkpoint)], tmp_path)
        assert code in (0, 1)  # a verdict, not a usage error
        assert _among(modules, ("numpy",)) == []

    def test_engine_minimum_window_is_the_statistics_one(self):
        """``live/options.py`` writes the window floor out so that the
        parser loads no NumPy; it must stay the accumulator's."""
        from repro.core.statistics import MIN_WINDOW
        from repro.live.options import ENGINE_MINIMUMS

        assert ENGINE_MINIMUMS["window"] == MIN_WINDOW

    def test_watch_without_exposition(self, fig1_dir, tmp_path):
        rules = tmp_path / "rules.toml"
        rules.write_text('[[rule]]\nname = "edges"\ntype = "new_edge"\n',
                         encoding="utf-8")
        modules = _cli_loads(
            ["watch", str(fig1_dir), "--once", "--rules", str(rules),
             "--alert-log", str(tmp_path / "alerts.jsonl")], tmp_path)
        assert (tmp_path / "alerts.jsonl").stat().st_size > 0
        assert _among(modules, ("networkx", "urllib.request",
                                "http.server")) == []


#: Packages whose ``__init__`` imports its modules eagerly:
#: ``repro.sources``, because importing it registers the schemes.
EAGER_PACKAGES = ("repro.sources",)

PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in SRC.rglob("__init__.py"))


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports(package, tmp_path):
    """Each ``__all__`` name resolves, ``dir()`` lists it, a star import
    binds exactly ``__all__`` and an unknown name is an AttributeError;
    importing a lazy package loads none of the modules it exports
    from (only its parents and the export helper)."""
    result = _fresh(
        "import importlib, json, sys\n"
        "before = set(sys.modules)\n"
        f"package = importlib.import_module({package!r})\n"
        "loaded = sorted(set(sys.modules) - before)\n"
        "names = list(getattr(package, '__all__', []))\n"
        "star = {}\n"
        f"exec('from {package} import *', star)\n"
        "star.pop('__builtins__')\n"
        "try:\n"
        "    getattr(package, 'no_such_export')\n"
        "    unknown = 'resolved'\n"
        "except AttributeError:\n"
        "    unknown = 'AttributeError'\n"
        "print(json.dumps({\n"
        "    'loaded': loaded, 'names': names,\n"
        "    'unresolved': [n for n in names if not hasattr(package, n)],\n"
        "    'undirred': [n for n in names if n not in dir(package)],\n"
        "    'star': sorted(star), 'unknown': unknown}))",
        tmp_path)
    assert result["names"]
    assert result["unresolved"] == []
    assert result["undirred"] == []
    assert result["star"] == sorted(result["names"])
    assert result["unknown"] == "AttributeError"
    if package not in EAGER_PACKAGES:
        parts = package.split(".")
        allowed = {".".join(parts[:i]) for i in range(1, len(parts) + 1)}
        allowed |= {"repro._util", "repro._util.lazy"}
        assert set(_among(result["loaded"], ("repro",))) - allowed == set()
